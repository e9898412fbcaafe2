//! The run-time engine: event delivery, rule execution and change
//! propagation.
//!
//! Section 3.2 specifies the processing of an event X targeted at an OID Y:
//!
//! 1. find Y and its view's run-time rules (plus the `default` view's, which
//!    "applies to all the views");
//! 2. execute all *assign* rules;
//! 3. re-evaluate all continuous assignments of the OID;
//! 4. invoke the scripts of *exec* rules (collected here, dispatched by the
//!    project server after the wave — wrappers run outside the engine);
//! 5. execute *post* rules;
//! 6. propagate X, and every posted event, across the links of Y — a link
//!    carries an event only if its PROPAGATE set allows it and its
//!    orientation matches the event's up/down direction — and repeat the
//!    whole procedure at each receiving OID.
//!
//! Events posted with `post <event> <dir>` do **not** execute on their origin
//! OID (they only leave it); `post <event> <dir> to <view>` delivers to the
//! link-adjacent OIDs of the named view. Each wave carries a visited set per
//! `(OID, event)` pair so cyclic link graphs terminate; the paper is silent
//! on cycles, so this is a documented deviation (see DESIGN.md §7).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use damocles_meta::{Direction, MetaDb, OidId, Sym};

use crate::engine::audit::{AuditKind, AuditLog, AuditRecord};
use crate::engine::compile::CompiledBlueprint;
use crate::engine::error::EngineError;
use crate::engine::eval::EvalCtx;
use crate::engine::event::{Delivery, QueuedEvent};
use crate::engine::exec::ScriptInvocation;
use crate::engine::policy::{Policy, PolicyViolation, Strictness};
use crate::engine::trace::{TraceLog, TraceRecord};
use crate::lang::ast::{Action, Blueprint, LetDef, RuleDef, Template};

/// What one processed event produced.
#[derive(Debug, Default)]
pub struct ProcessOutcome {
    /// Wrapper invocations to dispatch (in rule order across the wave).
    pub invocations: Vec<ScriptInvocation>,
    /// How many OIDs executed rules in this wave.
    pub delivered: u64,
}

/// Reusable buffers for the compiled wave loop, owned by the engine so one
/// `process_compiled` call allocates nothing in the steady state: the
/// visited set, the work queue and the neighbor scratch keep their capacity
/// across waves.
#[derive(Debug, Default)]
struct WaveScratch {
    /// `(OID, event)` pairs already delivered in the current wave.
    visited: HashSet<(OidId, Sym)>,
    /// Pending wave items.
    work: VecDeque<CompiledWaveItem>,
    /// Neighbor output buffer for [`MetaDb::neighbors_into`].
    neighbors: Vec<OidId>,
    /// Symbols for event names outside the compiled blueprint's universe
    /// (wire messages may post arbitrary names). Indexed above the compiled
    /// table. Cleared at the start of every wave — extras are only needed
    /// for intra-wave visited-set keys, and retaining them would grow
    /// engine memory by one entry per distinct unknown name for the
    /// server's lifetime.
    extra_map: HashMap<String, (Sym, Arc<str>)>,
    /// Per-view dispatch resolution cache, indexed by the database's
    /// interned view symbol ([`OidEntry::view_sym`]): `None` = not yet
    /// resolved; `Some(None)` = undeclared view (fallback table);
    /// `Some(Some(i))` = `tables[i]`. Lets the hot loop skip the view-name
    /// string hash in `table_for_view` after the first delivery per view.
    /// Valid only for the compiled blueprint generation in
    /// `view_cache_gen` — cleared when the server reinits the blueprint.
    view_cache: Vec<Option<Option<usize>>>,
    /// The [`CompiledBlueprint::generation`] the cache was filled against.
    view_cache_gen: u64,
}

impl WaveScratch {
    /// Resolves an OID's dispatch-table index, hashing the view-name string
    /// only on the first delivery to each view per blueprint generation.
    fn table_index(
        &mut self,
        compiled: &CompiledBlueprint,
        view_sym: Sym,
        view_name: &str,
    ) -> Option<usize> {
        if self.view_cache_gen != compiled.generation() {
            self.view_cache.clear();
            self.view_cache_gen = compiled.generation();
        }
        let slot = view_sym.index();
        if slot >= self.view_cache.len() {
            self.view_cache.resize(slot + 1, None);
        }
        *self.view_cache[slot].get_or_insert_with(|| compiled.table_index_for_view(view_name))
    }

    /// Interns an event name against `compiled`'s universe, extending it
    /// with wave-local symbols for unknown names.
    fn intern(&mut self, compiled: &CompiledBlueprint, event: &str) -> (Sym, Arc<str>) {
        if let Some(sym) = compiled.lookup(event) {
            let name = compiled.name_arc(sym).expect("interned names resolve");
            return (sym, Arc::clone(name));
        }
        if let Some((sym, name)) = self.extra_map.get(event) {
            return (*sym, Arc::clone(name));
        }
        let sym = Sym((compiled.symbols().len() + self.extra_map.len()) as u32);
        let name: Arc<str> = Arc::from(event);
        self.extra_map
            .insert(event.to_string(), (sym, Arc::clone(&name)));
        (sym, name)
    }
}

/// The run-time engine. Owns the policy, the logical clock and the wave
/// scratch buffers; borrows the blueprint, database and audit log per call
/// so the project server can keep them in one place.
#[derive(Debug)]
pub struct RuntimeEngine {
    /// Project policy in force.
    pub policy: Policy,
    clock: u64,
    scratch: WaveScratch,
}

impl Default for RuntimeEngine {
    fn default() -> Self {
        Self::new(Policy::default())
    }
}

/// One unit of wave work on the interpreted (AST-walking) path.
#[derive(Debug)]
struct WaveItem {
    event: String,
    direction: Direction,
    delivery: Delivery,
    args: Vec<String>,
    depth: u32,
}

/// The shared empty post-argument list: most `post` rules carry no
/// arguments, so wave items for them all clone one static `Arc` instead of
/// allocating a fresh empty slice per post.
fn empty_args() -> Arc<[String]> {
    static EMPTY: std::sync::OnceLock<Arc<[String]>> = std::sync::OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new())))
}

/// Counts `kind` on the allocation-free path, or materializes the full
/// record (the closure may look OIDs up in the database, hence the
/// `Result`) when the log retains records. Keeping the kind and the record
/// constructor in one call site prevents the two from drifting apart.
fn audit_record(
    audit: &mut AuditLog,
    kind: AuditKind,
    make: impl FnOnce() -> Result<AuditRecord, EngineError>,
) -> Result<(), EngineError> {
    if audit.enabled() {
        audit.push(make()?);
    } else {
        audit.note(kind);
    }
    Ok(())
}

/// One unit of wave work on the compiled path: the event travels as an
/// interned symbol plus a shared name, and the arguments are shared, so
/// scheduling a propagation hop clones two `Arc`s instead of strings.
#[derive(Debug)]
struct CompiledWaveItem {
    event: Sym,
    name: Arc<str>,
    direction: Direction,
    delivery: Delivery,
    args: Arc<[String]>,
    depth: u32,
}

impl RuntimeEngine {
    /// Creates an engine with the given policy.
    pub fn new(policy: Policy) -> Self {
        RuntimeEngine {
            policy,
            clock: 0,
            scratch: WaveScratch::default(),
        }
    }

    /// The logical clock: number of design events processed so far. Exposed
    /// to rules as `$date`.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Drops the cached per-view dispatch resolutions. Must be called when
    /// the engine is pointed at a *different database* (`adopt_project`):
    /// the cache is indexed by the database's interned view symbols, and a
    /// replacement database may intern the same view names in a different
    /// order (e.g. `persist::load` interns in image order, not original
    /// creation order). Blueprint swaps are detected automatically via
    /// [`CompiledBlueprint::generation`]; database swaps are not.
    pub fn invalidate_dispatch_cache(&mut self) {
        // Generations start at 1, so 0 forces a refill on the next wave.
        self.scratch.view_cache.clear();
        self.scratch.view_cache_gen = 0;
    }

    /// Processes one design event to completion (the full propagation wave).
    ///
    /// # Errors
    ///
    /// Returns a policy violation under [`Strictness::Reject`] policies, or
    /// a meta-database error on stale handles. Database changes made before
    /// a mid-wave error are kept (the engine is an observer, not a
    /// transaction manager — matching DAMOCLES' non-obstructive stance).
    pub fn process(
        &mut self,
        bp: &Blueprint,
        db: &mut MetaDb,
        audit: &mut AuditLog,
        ev: QueuedEvent,
    ) -> Result<ProcessOutcome, EngineError> {
        self.clock += 1;
        let mut outcome = ProcessOutcome::default();
        let mut visited: HashSet<(OidId, String)> = HashSet::new();
        let mut work: VecDeque<WaveItem> = VecDeque::new();
        work.push_back(WaveItem {
            event: ev.event,
            direction: ev.direction,
            delivery: ev.delivery,
            args: ev.args,
            depth: 0,
        });

        while let Some(item) = work.pop_front() {
            match item.delivery {
                Delivery::Target(id) => {
                    self.deliver(
                        bp,
                        db,
                        audit,
                        &ev.user,
                        &item,
                        id,
                        &mut visited,
                        &mut work,
                        &mut outcome,
                    )?;
                }
                Delivery::PropagateFrom(id) => {
                    self.propagate(db, audit, &item, id, &mut work)?;
                }
            }
        }
        Ok(outcome)
    }

    /// Rule execution at one OID, then onward propagation.
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &self,
        bp: &Blueprint,
        db: &mut MetaDb,
        audit: &mut AuditLog,
        user: &str,
        item: &WaveItem,
        id: OidId,
        visited: &mut HashSet<(OidId, String)>,
        work: &mut VecDeque<WaveItem>,
        outcome: &mut ProcessOutcome,
    ) -> Result<(), EngineError> {
        let oid = db.oid(id)?.clone();
        if self.policy.cycle_guard && !visited.insert((id, item.event.clone())) {
            audit.push(AuditRecord::CycleSkipped {
                oid,
                event: item.event.clone(),
            });
            return Ok(());
        }

        let view_name = oid.view.to_string();
        let view = bp.view(&view_name);
        if view.is_none() && view_name != "default" {
            match self.policy.unknown_views {
                Strictness::Reject => {
                    return Err(PolicyViolation::UnknownView {
                        view: view_name,
                        event: item.event.clone(),
                    }
                    .into());
                }
                Strictness::Observe => audit.push(AuditRecord::UnmatchedEvent {
                    oid: oid.clone(),
                    event: item.event.clone(),
                }),
                Strictness::Lenient => {}
            }
        }

        // Gather matching rules: default view first ("applies to all the
        // views"), then the specific view's.
        let mut rules: Vec<&RuleDef> = Vec::new();
        if let Some(default) = bp.default_view() {
            if view_name != "default" {
                rules.extend(default.rules_for(&item.event));
            }
        }
        if let Some(v) = view {
            rules.extend(v.rules_for(&item.event));
        }

        if rules.is_empty() {
            match self.policy.unmatched_events {
                Strictness::Reject => {
                    return Err(PolicyViolation::UnmatchedEvent {
                        view: view_name,
                        event: item.event.clone(),
                    }
                    .into());
                }
                Strictness::Observe => audit.push(AuditRecord::UnmatchedEvent {
                    oid: oid.clone(),
                    event: item.event.clone(),
                }),
                Strictness::Lenient => {}
            }
        }

        audit.push(AuditRecord::Delivered {
            oid: oid.clone(),
            event: item.event.clone(),
        });
        outcome.delivered += 1;

        // Phase split per Section 3.2: assigns, then lets, then execs, then
        // posts.
        let mut assigns: Vec<(&str, &Template)> = Vec::new();
        let mut execs: Vec<(&Template, &[Template], bool)> = Vec::new();
        let mut posts: Vec<(&str, Direction, Option<&str>, &[Template])> = Vec::new();
        for rule in &rules {
            for action in &rule.actions {
                match action {
                    Action::Assign { prop, value } => assigns.push((prop, value)),
                    Action::Exec { script, args } => execs.push((script, args, false)),
                    Action::Notify { message } => {
                        execs.push((message, &[], true));
                    }
                    Action::Post {
                        event,
                        direction,
                        to_view,
                        args,
                    } => posts.push((event, *direction, to_view.as_deref(), args)),
                }
            }
        }

        // 1. assign rules
        for (prop, template) in assigns {
            let value = {
                let entry = db.entry(id)?;
                let ctx = EvalCtx {
                    props: &entry.props,
                    oid: &oid,
                    event: &item.event,
                    args: &item.args,
                    user,
                    date: self.clock,
                };
                ctx.render_value(template)
            };
            let old = db.set_prop(id, prop, value.clone())?;
            audit.push(AuditRecord::Assigned {
                oid: oid.clone(),
                prop: prop.to_string(),
                old,
                new: value,
            });
        }

        // 2. continuous assignments (default view's, then the view's).
        let mut lets: Vec<&LetDef> = Vec::new();
        if self.policy.eager_lets {
            if let Some(default) = bp.default_view() {
                if view_name != "default" {
                    lets.extend(default.lets.iter());
                }
            }
            if let Some(v) = view {
                lets.extend(v.lets.iter());
            }
        }
        for let_def in lets {
            let value = {
                let entry = db.entry(id)?;
                let ctx = EvalCtx {
                    props: &entry.props,
                    oid: &oid,
                    event: &item.event,
                    args: &item.args,
                    user,
                    date: self.clock,
                };
                ctx.eval(&let_def.expr)
            };
            db.set_prop(id, &let_def.name, value.clone())?;
            audit.push(AuditRecord::Reevaluated {
                oid: oid.clone(),
                name: let_def.name.clone(),
                value,
            });
        }

        // 3. exec rules (collected; the server dispatches them post-wave).
        for (script_t, args_t, notify) in execs {
            let entry = db.entry(id)?;
            let ctx = EvalCtx {
                props: &entry.props,
                oid: &oid,
                event: &item.event,
                args: &item.args,
                user,
                date: self.clock,
            };
            let invocation = if notify {
                ScriptInvocation {
                    script: "notify".to_string(),
                    args: vec![ctx.render(script_t)],
                    notify: true,
                    origin: oid.to_string(),
                    event: item.event.clone(),
                }
            } else {
                ScriptInvocation {
                    script: ctx.render(script_t),
                    args: args_t.iter().map(|a| ctx.render(a)).collect(),
                    notify: false,
                    origin: oid.to_string(),
                    event: item.event.clone(),
                }
            };
            audit.push(AuditRecord::ScriptInvoked {
                script: invocation.script.clone(),
                args: invocation.args.clone(),
                notify,
            });
            outcome.invocations.push(invocation);
        }

        // 4. post rules
        for (event, direction, to_view, args_t) in posts {
            let rendered_args: Vec<String> = {
                let entry = db.entry(id)?;
                let ctx = EvalCtx {
                    props: &entry.props,
                    oid: &oid,
                    event: &item.event,
                    args: &item.args,
                    user,
                    date: self.clock,
                };
                args_t.iter().map(|a| ctx.render(a)).collect()
            };
            audit.push(AuditRecord::EventPosted {
                from: oid.clone(),
                event: event.to_string(),
                direction,
                to_view: to_view.map(str::to_string),
            });
            if item.depth >= self.policy.max_post_depth {
                audit.push(AuditRecord::DepthTruncated {
                    event: event.to_string(),
                });
                continue;
            }
            match to_view {
                Some(target_view) => {
                    // Targeted post: one hop through an allowing link to OIDs
                    // of the named view; rules run there.
                    for next in db.neighbors(id, direction, Some(event))? {
                        if db.oid(next)?.view.as_str() == target_view {
                            audit.push(AuditRecord::Propagated {
                                from: oid.clone(),
                                to: db.oid(next)?.clone(),
                                event: event.to_string(),
                            });
                            work.push_back(WaveItem {
                                event: event.to_string(),
                                direction,
                                delivery: Delivery::Target(next),
                                args: rendered_args.clone(),
                                depth: item.depth + 1,
                            });
                        }
                    }
                }
                None => {
                    work.push_back(WaveItem {
                        event: event.to_string(),
                        direction,
                        delivery: Delivery::PropagateFrom(id),
                        args: rendered_args,
                        depth: item.depth + 1,
                    });
                }
            }
        }

        // 5. propagate the delivered event itself.
        self.propagate(db, audit, item, id, work)?;
        Ok(())
    }

    /// Crosses every allowing link out of `id`, scheduling full delivery at
    /// the far ends.
    fn propagate(
        &self,
        db: &mut MetaDb,
        audit: &mut AuditLog,
        item: &WaveItem,
        id: OidId,
        work: &mut VecDeque<WaveItem>,
    ) -> Result<(), EngineError> {
        let from = db.oid(id)?.clone();
        for next in db.neighbors(id, item.direction, Some(&item.event))? {
            audit.push(AuditRecord::Propagated {
                from: from.clone(),
                to: db.oid(next)?.clone(),
                event: item.event.clone(),
            });
            work.push_back(WaveItem {
                event: item.event.clone(),
                direction: item.direction,
                delivery: Delivery::Target(next),
                args: item.args.clone(),
                depth: item.depth,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Compiled dispatch path
    // ------------------------------------------------------------------

    /// Processes one design event through the compiled dispatch path —
    /// semantically identical to [`RuntimeEngine::process`] (the
    /// differential property test in `tests/compiled_differential.rs` holds
    /// the two to the same outcome, audit sequence and database state), but:
    ///
    /// * rule lookup is a hash probe on an interned event symbol instead of
    ///   a linear scan with string compares;
    /// * the visited set is keyed by `(OidId, Sym)` — `Copy`, no `String`
    ///   clone per probe;
    /// * the visited set, work queue and neighbor buffers are engine-owned
    ///   scratch reused across waves, so steady-state processing does not
    ///   allocate;
    /// * audit records are only materialized when the log retains them
    ///   (counters stay exact either way).
    ///
    /// # Errors
    ///
    /// As [`RuntimeEngine::process`].
    pub fn process_compiled(
        &mut self,
        compiled: &CompiledBlueprint,
        db: &mut MetaDb,
        audit: &mut AuditLog,
        ev: QueuedEvent,
    ) -> Result<ProcessOutcome, EngineError> {
        self.process_compiled_traced(compiled, db, audit, &mut TraceLog::disabled(), ev)
    }

    /// [`RuntimeEngine::process_compiled`] with execution tracing: when
    /// `trace` retains records, the wave's steps land in it bracketed by
    /// `Begin`/`End` (see [`TraceRecord`]). With a disabled trace this is
    /// exactly `process_compiled` — every hook is one branch.
    ///
    /// # Errors
    ///
    /// As [`RuntimeEngine::process`].
    pub fn process_compiled_traced(
        &mut self,
        compiled: &CompiledBlueprint,
        db: &mut MetaDb,
        audit: &mut AuditLog,
        trace: &mut TraceLog,
        ev: QueuedEvent,
    ) -> Result<ProcessOutcome, EngineError> {
        self.clock += 1;
        let clock = self.clock;
        let mut outcome = ProcessOutcome::default();
        let mut scratch = std::mem::take(&mut self.scratch);
        if trace.enabled() {
            if let Ok(target) = db.oid(ev.delivery.anchor()) {
                trace.push(TraceRecord::Begin {
                    event: ev.event.clone(),
                    target: target.clone(),
                    user: ev.user.clone(),
                    clock,
                });
            }
        }
        let user = Self::seed_wave(compiled, &mut scratch, ev);
        let result = self.run_wave(
            compiled,
            db,
            audit,
            trace,
            &user,
            &mut scratch,
            &mut outcome,
            clock,
        );
        if trace.enabled() {
            trace.push(TraceRecord::End {
                delivered: outcome.delivered,
            });
        }
        self.scratch = scratch;
        result.map(|()| outcome)
    }

    /// Resets the scratch and enqueues the wave's root item for `ev`,
    /// moving the event's arguments into it rather than cloning them.
    /// Returns the posting user.
    fn seed_wave(
        compiled: &CompiledBlueprint,
        scratch: &mut WaveScratch,
        ev: QueuedEvent,
    ) -> String {
        scratch.visited.clear();
        scratch.work.clear();
        scratch.extra_map.clear();
        let (sym, name) = scratch.intern(compiled, &ev.event);
        scratch.work.push_back(CompiledWaveItem {
            event: sym,
            name,
            direction: ev.direction,
            delivery: ev.delivery,
            args: if ev.args.is_empty() {
                empty_args()
            } else {
                ev.args.into()
            },
            depth: 0,
        });
        ev.user
    }

    #[allow(clippy::too_many_arguments)]
    fn run_wave(
        &self,
        compiled: &CompiledBlueprint,
        db: &mut MetaDb,
        audit: &mut AuditLog,
        trace: &mut TraceLog,
        user: &str,
        scratch: &mut WaveScratch,
        outcome: &mut ProcessOutcome,
        clock: u64,
    ) -> Result<(), EngineError> {
        while let Some(item) = scratch.work.pop_front() {
            match item.delivery {
                Delivery::Target(id) => {
                    self.deliver_compiled(
                        compiled, db, audit, trace, user, &item, id, scratch, outcome, clock,
                    )?;
                }
                Delivery::PropagateFrom(id) => {
                    self.propagate_compiled(db, audit, trace, &item, id, scratch)?;
                }
            }
        }
        Ok(())
    }

    /// Rule execution at one OID on the compiled path, then onward
    /// propagation. Mirrors [`RuntimeEngine::deliver`] step for step
    /// (including audit-record order) so the two paths stay differentially
    /// testable.
    #[allow(clippy::too_many_arguments)]
    fn deliver_compiled(
        &self,
        compiled: &CompiledBlueprint,
        db: &mut MetaDb,
        audit: &mut AuditLog,
        trace: &mut TraceLog,
        user: &str,
        item: &CompiledWaveItem,
        id: OidId,
        scratch: &mut WaveScratch,
        outcome: &mut ProcessOutcome,
        clock: u64,
    ) -> Result<(), EngineError> {
        let ev_name: &str = &item.name;
        // Probe liveness first, as the interpreted path does.
        db.entry(id)?;
        if self.policy.cycle_guard && !scratch.visited.insert((id, item.event)) {
            audit_record(audit, AuditKind::CycleSkipped, || {
                Ok(AuditRecord::CycleSkipped {
                    oid: db.oid(id)?.clone(),
                    event: ev_name.to_string(),
                })
            })?;
            return Ok(());
        }

        let (table, dispatch) = {
            // Resolve the dispatch table through the per-view cache: the
            // database interned the view name at OID creation, so the
            // steady state is one Vec index instead of a string hash.
            let view_sym = db.entry(id)?.view_sym();
            let table_index = {
                let oid = db.oid(id)?;
                scratch.table_index(compiled, view_sym, oid.view.as_str())
            };
            if table_index.is_none() && db.oid(id)?.view.as_str() != "default" {
                match self.policy.unknown_views {
                    Strictness::Reject => {
                        return Err(PolicyViolation::UnknownView {
                            view: db.oid(id)?.view.to_string(),
                            event: ev_name.to_string(),
                        }
                        .into());
                    }
                    Strictness::Observe => {
                        audit_record(audit, AuditKind::UnmatchedEvent, || {
                            Ok(AuditRecord::UnmatchedEvent {
                                oid: db.oid(id)?.clone(),
                                event: ev_name.to_string(),
                            })
                        })?;
                    }
                    Strictness::Lenient => {}
                }
            }
            let table = compiled.table_at(table_index);
            (table, table.dispatch(item.event))
        };

        if dispatch.is_none() {
            match self.policy.unmatched_events {
                Strictness::Reject => {
                    return Err(PolicyViolation::UnmatchedEvent {
                        view: db.oid(id)?.view.to_string(),
                        event: ev_name.to_string(),
                    }
                    .into());
                }
                Strictness::Observe => {
                    audit_record(audit, AuditKind::UnmatchedEvent, || {
                        Ok(AuditRecord::UnmatchedEvent {
                            oid: db.oid(id)?.clone(),
                            event: ev_name.to_string(),
                        })
                    })?;
                }
                Strictness::Lenient => {}
            }
        }

        audit_record(audit, AuditKind::Delivered, || {
            Ok(AuditRecord::Delivered {
                oid: db.oid(id)?.clone(),
                event: ev_name.to_string(),
            })
        })?;
        if trace.enabled() {
            let oid = db.oid(id)?.clone();
            trace.push(TraceRecord::Deliver {
                view: oid.view.to_string(),
                oid,
                event: ev_name.to_string(),
            });
        }
        outcome.delivered += 1;

        // 1. assign rules (pre-merged, pre-phase-split).
        if let Some(d) = dispatch {
            for assign in d.assigns.iter() {
                let value = {
                    let entry = db.entry(id)?;
                    let ctx = EvalCtx {
                        props: &entry.props,
                        oid: &entry.oid,
                        event: ev_name,
                        args: &item.args,
                        user,
                        date: clock,
                    };
                    ctx.render_value(&assign.value)
                };
                if trace.enabled() {
                    trace.push(TraceRecord::Write {
                        oid: db.oid(id)?.clone(),
                        prop: assign.prop.clone(),
                        value: value.clone(),
                    });
                }
                if audit.enabled() {
                    let old = db.set_prop(id, &assign.prop, value.clone())?;
                    audit.push(AuditRecord::Assigned {
                        oid: db.oid(id)?.clone(),
                        prop: assign.prop.clone(),
                        old,
                        new: value,
                    });
                } else {
                    db.set_prop(id, &assign.prop, value)?;
                    audit.note(AuditKind::Assigned);
                }
            }
        }

        // 2. continuous assignments (pre-merged per view).
        if self.policy.eager_lets {
            for let_def in table.lets() {
                let value = {
                    let entry = db.entry(id)?;
                    let ctx = EvalCtx {
                        props: &entry.props,
                        oid: &entry.oid,
                        event: ev_name,
                        args: &item.args,
                        user,
                        date: clock,
                    };
                    ctx.eval(&let_def.expr)
                };
                if trace.enabled() {
                    trace.push(TraceRecord::Write {
                        oid: db.oid(id)?.clone(),
                        prop: let_def.name.clone(),
                        value: value.clone(),
                    });
                }
                if audit.enabled() {
                    db.set_prop(id, &let_def.name, value.clone())?;
                    audit.push(AuditRecord::Reevaluated {
                        oid: db.oid(id)?.clone(),
                        name: let_def.name.clone(),
                        value,
                    });
                } else {
                    db.set_prop(id, &let_def.name, value)?;
                    audit.note(AuditKind::Reevaluated);
                }
            }
        }

        if let Some(d) = dispatch {
            // 3. exec rules (collected; the server dispatches them post-wave).
            for exec in d.execs.iter() {
                let invocation = {
                    let entry = db.entry(id)?;
                    let ctx = EvalCtx {
                        props: &entry.props,
                        oid: &entry.oid,
                        event: ev_name,
                        args: &item.args,
                        user,
                        date: clock,
                    };
                    if exec.notify {
                        ScriptInvocation {
                            script: "notify".to_string(),
                            args: vec![ctx.render(&exec.script)],
                            notify: true,
                            origin: entry.oid.to_string(),
                            event: ev_name.to_string(),
                        }
                    } else {
                        ScriptInvocation {
                            script: ctx.render(&exec.script),
                            args: exec.args.iter().map(|a| ctx.render(a)).collect(),
                            notify: false,
                            origin: entry.oid.to_string(),
                            event: ev_name.to_string(),
                        }
                    }
                };
                audit_record(audit, AuditKind::ScriptInvoked, || {
                    Ok(AuditRecord::ScriptInvoked {
                        script: invocation.script.clone(),
                        args: invocation.args.clone(),
                        notify: exec.notify,
                    })
                })?;
                if trace.enabled() {
                    trace.push(TraceRecord::Invoke {
                        script: invocation.script.clone(),
                        origin: db.oid(id)?.clone(),
                        event: ev_name.to_string(),
                    });
                }
                outcome.invocations.push(invocation);
            }

            // 4. post rules.
            for post in d.posts.iter() {
                let post_name = compiled
                    .name_arc(post.event)
                    .expect("compiled posts resolve");
                let rendered_args: Arc<[String]> = if post.args.is_empty() {
                    empty_args()
                } else {
                    let entry = db.entry(id)?;
                    let ctx = EvalCtx {
                        props: &entry.props,
                        oid: &entry.oid,
                        event: ev_name,
                        args: &item.args,
                        user,
                        date: clock,
                    };
                    post.args
                        .iter()
                        .map(|a| ctx.render(a))
                        .collect::<Vec<_>>()
                        .into()
                };
                audit_record(audit, AuditKind::EventPosted, || {
                    Ok(AuditRecord::EventPosted {
                        from: db.oid(id)?.clone(),
                        event: post_name.to_string(),
                        direction: post.direction,
                        to_view: post.to_view.clone(),
                    })
                })?;
                if item.depth >= self.policy.max_post_depth {
                    audit_record(audit, AuditKind::DepthTruncated, || {
                        Ok(AuditRecord::DepthTruncated {
                            event: post_name.to_string(),
                        })
                    })?;
                    continue;
                }
                match &post.to_view {
                    Some(target_view) => {
                        // Targeted post: one hop through an allowing link to
                        // OIDs of the named view; rules run there.
                        scratch.neighbors.clear();
                        db.neighbors_into(
                            id,
                            post.direction,
                            Some(post_name),
                            &mut scratch.neighbors,
                        )?;
                        for i in 0..scratch.neighbors.len() {
                            let next = scratch.neighbors[i];
                            if db.oid(next)?.view.as_str() == target_view.as_str() {
                                audit_record(audit, AuditKind::Propagated, || {
                                    Ok(AuditRecord::Propagated {
                                        from: db.oid(id)?.clone(),
                                        to: db.oid(next)?.clone(),
                                        event: post_name.to_string(),
                                    })
                                })?;
                                if trace.enabled() {
                                    trace.push(TraceRecord::Fire {
                                        from: db.oid(id)?.clone(),
                                        to: db.oid(next)?.clone(),
                                        event: post_name.to_string(),
                                    });
                                }
                                scratch.work.push_back(CompiledWaveItem {
                                    event: post.event,
                                    name: Arc::clone(post_name),
                                    direction: post.direction,
                                    delivery: Delivery::Target(next),
                                    args: Arc::clone(&rendered_args),
                                    depth: item.depth + 1,
                                });
                            }
                        }
                    }
                    None => {
                        scratch.work.push_back(CompiledWaveItem {
                            event: post.event,
                            name: Arc::clone(post_name),
                            direction: post.direction,
                            delivery: Delivery::PropagateFrom(id),
                            args: rendered_args,
                            depth: item.depth + 1,
                        });
                    }
                }
            }
        }

        // 5. propagate the delivered event itself.
        self.propagate_compiled(db, audit, trace, item, id, scratch)?;
        Ok(())
    }

    /// Compiled-path counterpart of [`RuntimeEngine::propagate`]: crosses
    /// every allowing link out of `id` using the reusable neighbor buffer.
    fn propagate_compiled(
        &self,
        db: &MetaDb,
        audit: &mut AuditLog,
        trace: &mut TraceLog,
        item: &CompiledWaveItem,
        id: OidId,
        scratch: &mut WaveScratch,
    ) -> Result<(), EngineError> {
        scratch.neighbors.clear();
        db.neighbors_into(id, item.direction, Some(&item.name), &mut scratch.neighbors)?;
        for i in 0..scratch.neighbors.len() {
            let next = scratch.neighbors[i];
            audit_record(audit, AuditKind::Propagated, || {
                Ok(AuditRecord::Propagated {
                    from: db.oid(id)?.clone(),
                    to: db.oid(next)?.clone(),
                    event: item.name.to_string(),
                })
            })?;
            if trace.enabled() {
                trace.push(TraceRecord::Fire {
                    from: db.oid(id)?.clone(),
                    to: db.oid(next)?.clone(),
                    event: item.name.to_string(),
                });
            }
            scratch.work.push_back(CompiledWaveItem {
                event: item.event,
                name: Arc::clone(&item.name),
                direction: item.direction,
                delivery: Delivery::Target(next),
                args: Arc::clone(&item.args),
                depth: item.depth,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::template;
    use crate::lang::parser::parse;
    use damocles_meta::{Oid, Value};

    /// hdl --derived(outofdate)--> sch --use(outofdate)--> reg
    /// with the default view's ckin/outofdate rules from §3.4.
    fn flow() -> (Blueprint, MetaDb, OidId, OidId, OidId) {
        let bp = parse(
            r#"blueprint t
            view default
                property uptodate default true
                when ckin do uptodate = true; post outofdate down done
                when outofdate do uptodate = false done
            endview
            view HDL_model endview
            view schematic
                link_from HDL_model move propagates outofdate type derived
                use_link move propagates outofdate
            endview
            endblueprint"#,
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let hdl = db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap();
        template::apply_on_create(&bp, &mut db, hdl, &mut audit).unwrap();
        let sch = db.create_oid(Oid::new("cpu", "schematic", 1)).unwrap();
        template::apply_on_create(&bp, &mut db, sch, &mut audit).unwrap();
        let reg = db.create_oid(Oid::new("reg", "schematic", 1)).unwrap();
        template::apply_on_create(&bp, &mut db, reg, &mut audit).unwrap();
        template::instantiate_link(&bp, &mut db, hdl, sch).unwrap();
        template::instantiate_link(&bp, &mut db, sch, reg).unwrap();
        (bp, db, hdl, sch, reg)
    }

    fn uptodate(db: &MetaDb, id: OidId) -> bool {
        db.get_prop(id, "uptodate").unwrap().unwrap().is_truthy()
    }

    #[test]
    fn ckin_invalidates_derived_hierarchy() {
        let (bp, mut db, hdl, sch, reg) = flow();
        let mut audit = AuditLog::counters_only();
        let mut engine = RuntimeEngine::default();
        assert!(uptodate(&db, sch) && uptodate(&db, reg));

        let ev = QueuedEvent::target("ckin", Direction::Up, hdl, "yves");
        let outcome = engine.process(&bp, &mut db, &mut audit, ev).unwrap();

        // The posting OID keeps uptodate=true (posted events skip origin)...
        assert!(uptodate(&db, hdl));
        // ...while the derived schematic and its hierarchical component are
        // invalidated.
        assert!(!uptodate(&db, sch));
        assert!(!uptodate(&db, reg));
        // hdl + sch + reg all executed rules (hdl for ckin, others for
        // outofdate).
        assert_eq!(outcome.delivered, 3);
        assert_eq!(audit.summary().propagations, 2);
    }

    #[test]
    fn propagation_respects_event_filter() {
        let (bp, mut db, hdl, sch, _) = flow();
        let mut audit = AuditLog::counters_only();
        let mut engine = RuntimeEngine::default();
        // A `drc` event: no link propagates it, so it stays at its target.
        let ev = QueuedEvent::target("drc", Direction::Down, hdl, "t").with_arg("ok");
        let outcome = engine.process(&bp, &mut db, &mut audit, ev).unwrap();
        assert_eq!(outcome.delivered, 1);
        assert!(uptodate(&db, sch));
    }

    #[test]
    fn assign_uses_event_arg() {
        let bp = parse(
            r#"blueprint t view HDL_model
                property sim_result default bad
                when hdl_sim do sim_result = $arg done
            endview endblueprint"#,
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let id = db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap();
        template::apply_on_create(&bp, &mut db, id, &mut audit).unwrap();
        let mut engine = RuntimeEngine::default();
        let ev = QueuedEvent::target("hdl_sim", Direction::Up, id, "sim").with_arg("4 errors");
        engine.process(&bp, &mut db, &mut audit, ev).unwrap();
        assert_eq!(
            db.get_prop(id, "sim_result").unwrap().unwrap().as_atom(),
            "4 errors"
        );
    }

    #[test]
    fn lets_reevaluate_after_assigns() {
        let bp = parse(
            r#"blueprint t view layout
                property drc_result default bad
                let state = ($drc_result == good)
                when drc do drc_result = $arg done
            endview endblueprint"#,
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let id = db.create_oid(Oid::new("alu", "layout", 1)).unwrap();
        template::apply_on_create(&bp, &mut db, id, &mut audit).unwrap();
        let mut engine = RuntimeEngine::default();

        let ev = QueuedEvent::target("drc", Direction::Down, id, "drc").with_arg("good");
        engine.process(&bp, &mut db, &mut audit, ev).unwrap();
        assert_eq!(db.get_prop(id, "state").unwrap(), Some(&Value::Bool(true)));

        let ev = QueuedEvent::target("drc", Direction::Down, id, "drc").with_arg("bad");
        engine.process(&bp, &mut db, &mut audit, ev).unwrap();
        assert_eq!(db.get_prop(id, "state").unwrap(), Some(&Value::Bool(false)));
    }

    #[test]
    fn exec_invocations_are_collected_not_run() {
        let bp = parse(
            r#"blueprint t view schematic
                when ckin do exec netlister "$oid" done
            endview endblueprint"#,
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let id = db.create_oid(Oid::new("cpu", "schematic", 2)).unwrap();
        let mut engine = RuntimeEngine::default();
        let ev = QueuedEvent::target("ckin", Direction::Up, id, "yves");
        let outcome = engine.process(&bp, &mut db, &mut audit, ev).unwrap();
        assert_eq!(outcome.invocations.len(), 1);
        let inv = &outcome.invocations[0];
        assert_eq!(inv.script, "netlister");
        assert_eq!(inv.args, vec!["cpu,schematic,2"]);
        assert!(!inv.notify);
    }

    #[test]
    fn post_to_view_targets_only_that_view() {
        let bp = parse(
            r#"blueprint t
            view src
                use_link propagates sim_ok
                link_from src propagates nothing
                when checkin do post sim_ok down to VerilogNetList done
            endview
            view VerilogNetList
                property seen default false
                link_from src propagates sim_ok type derived
                when sim_ok do seen = true done
            endview
            view EdifNetlist
                property seen default false
                link_from src propagates sim_ok type derived
                when sim_ok do seen = true done
            endview
            endblueprint"#,
        )
        .unwrap();
        // note: `link_from src` inside view src is invalid per validate(),
        // but harmless here; parser accepts it.
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let src = db.create_oid(Oid::new("cpu", "src", 1)).unwrap();
        let vnl = db.create_oid(Oid::new("cpu", "VerilogNetList", 1)).unwrap();
        let enl = db.create_oid(Oid::new("cpu", "EdifNetlist", 1)).unwrap();
        template::apply_on_create(&bp, &mut db, vnl, &mut audit).unwrap();
        template::apply_on_create(&bp, &mut db, enl, &mut audit).unwrap();
        template::instantiate_link(&bp, &mut db, src, vnl).unwrap();
        template::instantiate_link(&bp, &mut db, src, enl).unwrap();
        let mut engine = RuntimeEngine::default();
        let ev = QueuedEvent::target("checkin", Direction::Down, src, "yves");
        engine.process(&bp, &mut db, &mut audit, ev).unwrap();
        assert_eq!(db.get_prop(vnl, "seen").unwrap(), Some(&Value::Bool(true)));
        assert_eq!(db.get_prop(enl, "seen").unwrap(), Some(&Value::Bool(false)));
    }

    #[test]
    fn cycle_guard_terminates_equivalence_ping_pong() {
        // Two views tied by an equivalence link that propagates `lvs` both
        // ways, each re-posting on reception: without the guard this spins.
        let bp = parse(
            r#"blueprint t
            view A
                property got default false
                link_from B propagates lvs type equivalence
                when lvs do got = true; post lvs up done
            endview
            view B
                property got default false
                link_from A propagates lvs type equivalence
                when lvs do got = true; post lvs down done
            endview
            endblueprint"#,
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let a = db.create_oid(Oid::new("x", "A", 1)).unwrap();
        let b = db.create_oid(Oid::new("x", "B", 1)).unwrap();
        template::apply_on_create(&bp, &mut db, a, &mut audit).unwrap();
        template::apply_on_create(&bp, &mut db, b, &mut audit).unwrap();
        // Template orientation: B -> A (A declares link_from B).
        template::instantiate_link(&bp, &mut db, b, a).unwrap();
        let mut engine = RuntimeEngine::default();
        let ev = QueuedEvent::target("lvs", Direction::Down, b, "t");
        let outcome = engine.process(&bp, &mut db, &mut audit, ev).unwrap();
        assert!(outcome.delivered <= 3);
        assert!(audit.summary().cycle_skips >= 1);
        assert_eq!(db.get_prop(a, "got").unwrap(), Some(&Value::Bool(true)));
        assert_eq!(db.get_prop(b, "got").unwrap(), Some(&Value::Bool(true)));
    }

    #[test]
    fn depth_limit_truncates_runaway_posts() {
        // a chain of `ping` posts bouncing down a two-node path with a
        // pathological self-amplifying rule; depth limit must stop it even
        // with the cycle guard disabled.
        let bp = parse(
            r#"blueprint t
            view A
                link_from A propagates ping
                when ping do post ping down done
            endview
            endblueprint"#,
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        // chain a1 -> a2 -> a3 ... of the same view with ping links.
        let ids: Vec<OidId> = (0..6)
            .map(|i| db.create_oid(Oid::new(format!("b{i}"), "A", 1)).unwrap())
            .collect();
        for w in ids.windows(2) {
            db.add_link_with(
                w[0],
                w[1],
                damocles_meta::LinkClass::Derive,
                damocles_meta::LinkKind::DeriveFrom,
                ["ping"],
            )
            .unwrap();
        }
        let policy = Policy {
            cycle_guard: false,
            max_post_depth: 3,
            ..Policy::default()
        };
        let mut engine = RuntimeEngine::new(policy);
        let ev = QueuedEvent::target("ping", Direction::Down, ids[0], "t");
        let outcome = engine.process(&bp, &mut db, &mut audit, ev).unwrap();
        assert!(audit.summary().depth_truncations > 0);
        assert!(outcome.delivered < 64);
    }

    #[test]
    fn strict_policy_rejects_unknown_view() {
        let bp = parse("blueprint t view known endview endblueprint").unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let id = db.create_oid(Oid::new("b", "mystery", 1)).unwrap();
        let mut engine = RuntimeEngine::new(Policy::signoff());
        let ev = QueuedEvent::target("ckin", Direction::Up, id, "t");
        let err = engine.process(&bp, &mut db, &mut audit, ev).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Policy(PolicyViolation::UnknownView { .. })
        ));
    }

    #[test]
    fn lenient_policy_ignores_unmatched_events() {
        let bp = parse("blueprint t view v endview endblueprint").unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let id = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        let mut engine = RuntimeEngine::default();
        let ev = QueuedEvent::target("unheard_of", Direction::Down, id, "t");
        let outcome = engine.process(&bp, &mut db, &mut audit, ev).unwrap();
        assert_eq!(outcome.delivered, 1);
        assert!(outcome.invocations.is_empty());
    }

    #[test]
    fn clock_advances_per_event() {
        let bp = parse("blueprint t view v endview endblueprint").unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let id = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        let mut engine = RuntimeEngine::default();
        assert_eq!(engine.clock(), 0);
        for i in 1..=3 {
            let ev = QueuedEvent::target("e", Direction::Down, id, "t");
            engine.process(&bp, &mut db, &mut audit, ev).unwrap();
            assert_eq!(engine.clock(), i);
        }
    }

    /// Compiles `bp` and runs one event through the compiled path.
    fn process_c(
        engine: &mut RuntimeEngine,
        bp: &Blueprint,
        db: &mut MetaDb,
        audit: &mut AuditLog,
        ev: QueuedEvent,
    ) -> ProcessOutcome {
        let compiled = CompiledBlueprint::compile(bp);
        engine.process_compiled(&compiled, db, audit, ev).unwrap()
    }

    #[test]
    fn compiled_path_invalidates_derived_hierarchy() {
        let (bp, mut db, hdl, sch, reg) = flow();
        let mut audit = AuditLog::counters_only();
        let mut engine = RuntimeEngine::default();
        let ev = QueuedEvent::target("ckin", Direction::Up, hdl, "yves");
        let outcome = process_c(&mut engine, &bp, &mut db, &mut audit, ev);
        assert!(uptodate(&db, hdl));
        assert!(!uptodate(&db, sch));
        assert!(!uptodate(&db, reg));
        assert_eq!(outcome.delivered, 3);
        assert_eq!(audit.summary().propagations, 2);
    }

    #[test]
    fn compiled_path_reuses_scratch_across_waves() {
        let (bp, mut db, hdl, _, _) = flow();
        let mut audit = AuditLog::counters_only();
        let mut engine = RuntimeEngine::default();
        let compiled = CompiledBlueprint::compile(&bp);
        for _ in 0..3 {
            let ev = QueuedEvent::target("ckin", Direction::Up, hdl, "yves");
            engine
                .process_compiled(&compiled, &mut db, &mut audit, ev)
                .unwrap();
        }
        assert_eq!(engine.clock(), 3);
        assert_eq!(audit.summary().deliveries, 9);
    }

    #[test]
    fn compiled_path_handles_events_outside_the_blueprint() {
        // An event name the blueprint never mentions must still deliver,
        // propagate across manually-created links that allow it, and hit the
        // cycle guard — exercising the engine-local symbol extension.
        let bp =
            parse("blueprint t view A property got default false endview endblueprint").unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let a = db.create_oid(Oid::new("x", "A", 1)).unwrap();
        let b = db.create_oid(Oid::new("y", "A", 1)).unwrap();
        db.add_link_with(
            a,
            b,
            damocles_meta::LinkClass::Derive,
            damocles_meta::LinkKind::DeriveFrom,
            ["zap"],
        )
        .unwrap();
        let mut engine = RuntimeEngine::default();
        let ev = QueuedEvent::target("zap", Direction::Down, a, "t");
        let outcome = process_c(&mut engine, &bp, &mut db, &mut audit, ev);
        assert_eq!(outcome.delivered, 2);
        assert_eq!(audit.summary().propagations, 1);
    }

    #[test]
    fn compiled_path_respects_post_to_view() {
        let bp = parse(
            r#"blueprint t
            view src
                use_link propagates sim_ok
                when checkin do post sim_ok down to VerilogNetList done
            endview
            view VerilogNetList
                property seen default false
                link_from src propagates sim_ok type derived
                when sim_ok do seen = true done
            endview
            view EdifNetlist
                property seen default false
                link_from src propagates sim_ok type derived
                when sim_ok do seen = true done
            endview
            endblueprint"#,
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let src = db.create_oid(Oid::new("cpu", "src", 1)).unwrap();
        let vnl = db.create_oid(Oid::new("cpu", "VerilogNetList", 1)).unwrap();
        let enl = db.create_oid(Oid::new("cpu", "EdifNetlist", 1)).unwrap();
        template::apply_on_create(&bp, &mut db, vnl, &mut audit).unwrap();
        template::apply_on_create(&bp, &mut db, enl, &mut audit).unwrap();
        template::instantiate_link(&bp, &mut db, src, vnl).unwrap();
        template::instantiate_link(&bp, &mut db, src, enl).unwrap();
        let mut engine = RuntimeEngine::default();
        let ev = QueuedEvent::target("checkin", Direction::Down, src, "yves");
        process_c(&mut engine, &bp, &mut db, &mut audit, ev);
        assert_eq!(db.get_prop(vnl, "seen").unwrap(), Some(&Value::Bool(true)));
        assert_eq!(db.get_prop(enl, "seen").unwrap(), Some(&Value::Bool(false)));
    }

    #[test]
    fn compiled_path_enforces_strict_policies() {
        let bp = parse("blueprint t view known endview endblueprint").unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let id = db.create_oid(Oid::new("b", "mystery", 1)).unwrap();
        let compiled = CompiledBlueprint::compile(&bp);
        let mut engine = RuntimeEngine::new(Policy::signoff());
        let ev = QueuedEvent::target("ckin", Direction::Up, id, "t");
        let err = engine
            .process_compiled(&compiled, &mut db, &mut audit, ev)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Policy(PolicyViolation::UnknownView { .. })
        ));
    }

    #[test]
    fn notify_renders_message() {
        let bp = parse(
            r#"blueprint t view v
                when checkin do notify "$owner: Your oid $OID has been modified" done
            endview endblueprint"#,
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::retaining();
        let id = db.create_oid(Oid::new("reg", "v", 4)).unwrap();
        db.set_prop(id, "owner", Value::Str("salma".into()))
            .unwrap();
        let mut engine = RuntimeEngine::default();
        let ev = QueuedEvent::target("checkin", Direction::Up, id, "yves");
        let outcome = engine.process(&bp, &mut db, &mut audit, ev).unwrap();
        assert_eq!(outcome.invocations.len(), 1);
        assert!(outcome.invocations[0].notify);
        assert_eq!(
            outcome.invocations[0].args[0],
            "salma: Your oid reg,v,4 has been modified"
        );
    }
}

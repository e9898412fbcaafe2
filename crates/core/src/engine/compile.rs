//! The blueprint compiler: the one-time translation from the parsed rule
//! language to the run-time engine's dispatch tables.
//!
//! The paper's run-time loop (Section 3.2) consults the blueprint on every
//! delivered event: find the OID's view, collect the `default` view's rules
//! plus the view's own rules for the event, split their actions into phases,
//! and walk the links. Interpreting the AST for each of those steps costs a
//! linear scan over `Vec<ViewDef>`, a string comparison per rule, and a
//! phase-partitioning pass per delivery — all of it identical every time.
//!
//! [`CompiledBlueprint`] does that work once per blueprint load, the way a
//! query planner separates planning from execution:
//!
//! * every event, view and property name is interned into a [`SymbolTable`]
//!   (shared `damocles-meta` intern module), so the wave loop keys its
//!   visited set and rule lookups by `Copy` symbols;
//! * each view gets a [`DispatchTable`] mapping event symbol → pre-merged,
//!   pre-phase-split action lists (`default` view's rules first, "applies to
//!   all the views"), so delivery is a single hash lookup;
//! * the PROPAGATE sets of link templates are precomputed as [`SymSet`]
//!   bitsets over the interned event universe — the blueprint-level mirror
//!   of the per-link bitsets the meta-database keeps for the engine's
//!   per-hop filter (see `MetaDb::neighbors_iter`). Their union
//!   ([`CompiledBlueprint::may_propagate`]) answers "could any template
//!   forward this event" for tooling and validation; the engine itself
//!   keeps the exact per-link check, since links created through the raw
//!   database API may forward events no template mentions;
//! * continuous assignments are pre-merged per view in evaluation order.
//!
//! The shard partition is not compiled: [`ShardMap`] groups the live OIDs
//! themselves by the links that can carry an event, and follows the
//! database's [`topology stamp`](damocles_meta::MetaDb::topology_stamp).
//! It is an analysis the benchmark reads; the engine runs every wave
//! inline and never consults it.
//!
//! The compiled form owns its data (templates and expressions are cloned out
//! of the AST), so the engine can hold it alongside the blueprint without
//! self-referential lifetimes.

use std::collections::HashMap;
use std::sync::Arc;

use damocles_meta::{Direction, MetaDb, OidId, Sym, SymSet, SymbolTable, TopoDelta};

use crate::lang::ast::{Action, Blueprint, Expr, Template};

/// A per-event action list inlining up to four entries.
///
/// Almost every `(view, event)` pair merges only a handful of actions (the
/// `default` view's plus the view's own), so the common case lives inside
/// the [`Dispatch`] itself and the wave loop follows no `Vec` indirection
/// to reach it; longer lists spill to the heap transparently.
#[derive(Debug, Clone)]
pub struct ActionVec<T> {
    inline: [Option<T>; 4],
    spill: Vec<T>,
}

impl<T> Default for ActionVec<T> {
    fn default() -> Self {
        ActionVec {
            inline: [None, None, None, None],
            spill: Vec::new(),
        }
    }
}

impl<T> ActionVec<T> {
    /// Appends an action, spilling past the fourth.
    pub fn push(&mut self, item: T) {
        for slot in &mut self.inline {
            if slot.is_none() {
                *slot = Some(item);
                return;
            }
        }
        self.spill.push(item);
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.inline.iter().filter(|s| s.is_some()).count() + self.spill.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.inline[0].is_none() && self.spill.is_empty()
    }

    /// The action at `index`, in push order.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.iter().nth(index)
    }

    /// Iterates in push order: inline entries first, then the spill.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline.iter().flatten().chain(self.spill.iter())
    }
}

impl<T> std::ops::Index<usize> for ActionVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        self.get(index).expect("ActionVec index out of bounds")
    }
}

impl<'a, T> IntoIterator for &'a ActionVec<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::slice::Iter<'a, Option<T>>>,
        std::slice::Iter<'a, T>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline.iter().flatten().chain(self.spill.iter())
    }
}

/// A compiled `prop = value` action.
#[derive(Debug, Clone)]
pub struct CompiledAssign {
    /// Target property name.
    pub prop: String,
    /// Value template.
    pub value: Template,
}

/// A compiled `exec`/`notify` action.
#[derive(Debug, Clone)]
pub struct CompiledExec {
    /// Script-name template (for `notify`, the message template).
    pub script: Template,
    /// Argument templates.
    pub args: Vec<Template>,
    /// True for `notify` actions.
    pub notify: bool,
}

/// A compiled `post` action.
#[derive(Debug, Clone)]
pub struct CompiledPost {
    /// The posted event, interned.
    pub event: Sym,
    /// Propagation direction.
    pub direction: Direction,
    /// Target view of the `post … to <view>` form.
    pub to_view: Option<String>,
    /// Argument templates.
    pub args: Vec<Template>,
}

/// A compiled continuous assignment.
#[derive(Debug, Clone)]
pub struct CompiledLet {
    /// The derived property name.
    pub name: String,
    /// The defining expression.
    pub expr: Expr,
}

/// The pre-merged, pre-phase-split actions one `(view, event)` pair executes:
/// Section 3.2's assign / exec / post ordering, with the `default` view's
/// rules already merged in front.
#[derive(Debug, Clone, Default)]
pub struct Dispatch {
    /// Phase 1: property assignments.
    pub assigns: ActionVec<CompiledAssign>,
    /// Phase 3: script invocations (collected, dispatched post-wave).
    pub execs: ActionVec<CompiledExec>,
    /// Phase 4: event posts.
    pub posts: ActionVec<CompiledPost>,
}

impl Dispatch {
    fn absorb(&mut self, actions: &[Action], symbols: &mut SymbolTable) {
        for action in actions {
            match action {
                Action::Assign { prop, value } => {
                    symbols.intern(prop);
                    self.assigns.push(CompiledAssign {
                        prop: prop.clone(),
                        value: value.clone(),
                    });
                }
                Action::Exec { script, args } => self.execs.push(CompiledExec {
                    script: script.clone(),
                    args: args.clone(),
                    notify: false,
                }),
                Action::Notify { message } => self.execs.push(CompiledExec {
                    script: message.clone(),
                    args: Vec::new(),
                    notify: true,
                }),
                Action::Post {
                    event,
                    direction,
                    to_view,
                    args,
                } => self.posts.push(CompiledPost {
                    event: symbols.intern(event),
                    direction: *direction,
                    to_view: to_view.clone(),
                    args: args.clone(),
                }),
            }
        }
    }
}

/// A group of the [`ShardMap`]: OIDs in different groups can never reach
/// each other inside one propagation wave.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u32);

/// One view's compiled run-time information.
#[derive(Debug, Clone, Default)]
pub struct DispatchTable {
    /// Event symbol → merged phase-split actions. Only events with at least
    /// one matching rule (in `default` or the view itself) appear.
    dispatch: HashMap<Sym, Dispatch>,
    /// Continuous assignments in evaluation order (`default`'s, then the
    /// view's own).
    lets: Vec<CompiledLet>,
}

impl DispatchTable {
    /// The actions for an event, if any rule anywhere matches it.
    pub fn dispatch(&self, event: Sym) -> Option<&Dispatch> {
        self.dispatch.get(&event)
    }

    /// The pre-merged continuous assignments, in evaluation order.
    pub fn lets(&self) -> &[CompiledLet] {
        &self.lets
    }

    /// Number of events with at least one rule.
    pub fn rule_event_count(&self) -> usize {
        self.dispatch.len()
    }
}

/// A compiled link template's PROPAGATE set (diagnostic / tooling view; the
/// per-instance sets live on the database links themselves).
#[derive(Debug, Clone)]
pub struct CompiledLinkTemplate {
    /// The declaring view's name.
    pub view: String,
    /// PROPAGATE set as a bitset over the blueprint's event universe.
    pub propagates: SymSet,
}

/// A blueprint compiled for the run-time engine. Built once per blueprint
/// load by [`CompiledBlueprint::compile`]; immutable afterwards.
#[derive(Debug, Clone)]
pub struct CompiledBlueprint {
    symbols: SymbolTable,
    /// Shared name behind each symbol, aligned with `symbols`: wave items
    /// carry a clone of these so per-hop scheduling never copies a string.
    arc_names: Vec<Arc<str>>,
    /// Declared view name → index into `tables`. Presence here is what
    /// distinguishes "declared view without rules" from "unknown view".
    view_index: HashMap<String, usize>,
    tables: Vec<DispatchTable>,
    /// Dispatch for OIDs whose view the blueprint does not declare: the
    /// `default` view's rules only.
    fallback: DispatchTable,
    /// Index of the `default` view in `tables`, if declared.
    default_index: Option<usize>,
    /// Compiled link templates, in declaration order.
    link_templates: Vec<CompiledLinkTemplate>,
    /// Union of every link template's PROPAGATE set: an event outside this
    /// set can never cross a template-instantiated link.
    propagate_union: SymSet,
    /// Process-unique id of this compilation, used by the engine's per-view
    /// dispatch cache to detect blueprint swaps (`reinit`) without holding a
    /// reference.
    generation: u64,
}

impl CompiledBlueprint {
    /// Compiles a parsed blueprint.
    pub fn compile(bp: &Blueprint) -> Self {
        let mut symbols = SymbolTable::new();

        // Intern the full event/view/property universe first so symbol
        // handles are dense and stable regardless of rule order.
        for view in &bp.views {
            symbols.intern(&view.name);
            for rule in &view.rules {
                symbols.intern(&rule.event);
            }
            for link in &view.links {
                for event in &link.propagates {
                    symbols.intern(event);
                }
            }
            for prop in &view.properties {
                symbols.intern(&prop.name);
            }
            for let_def in &view.lets {
                symbols.intern(&let_def.name);
            }
        }

        let default = bp.default_view();

        // The fallback table: `default` rules and lets only, for OIDs of
        // undeclared views ("applies to all the views").
        let mut fallback = DispatchTable::default();
        if let Some(default) = default {
            for rule in &default.rules {
                let sym = symbols.intern(&rule.event);
                fallback
                    .dispatch
                    .entry(sym)
                    .or_default()
                    .absorb(&rule.actions, &mut symbols);
            }
            fallback
                .lets
                .extend(default.lets.iter().map(|l| CompiledLet {
                    name: l.name.clone(),
                    expr: l.expr.clone(),
                }));
        }

        let mut view_index = HashMap::with_capacity(bp.views.len());
        let mut tables = Vec::with_capacity(bp.views.len());
        let mut default_index = None;
        let mut link_templates = Vec::new();
        let mut propagate_union = SymSet::new();

        for view in &bp.views {
            let is_default = view.name == "default";
            // Merged table: default's rules first (unless this *is* the
            // default view), then the view's own — the order `deliver`
            // executes them in.
            let mut table = if is_default {
                DispatchTable::default()
            } else {
                fallback.clone()
            };
            for rule in &view.rules {
                let sym = symbols.intern(&rule.event);
                table
                    .dispatch
                    .entry(sym)
                    .or_default()
                    .absorb(&rule.actions, &mut symbols);
            }
            table.lets.extend(view.lets.iter().map(|l| CompiledLet {
                name: l.name.clone(),
                expr: l.expr.clone(),
            }));

            for link in &view.links {
                let propagates: SymSet = link
                    .propagates
                    .iter()
                    .map(|event| symbols.intern(event))
                    .collect();
                for event in &link.propagates {
                    propagate_union.insert(symbols.intern(event));
                }
                link_templates.push(CompiledLinkTemplate {
                    view: view.name.clone(),
                    propagates,
                });
            }

            let index = tables.len();
            if is_default {
                default_index = Some(index);
            }
            // First declaration wins on duplicate names, matching
            // `Blueprint::view`'s linear-scan semantics (the validator
            // rejects duplicates anyway).
            view_index.entry(view.name.clone()).or_insert(index);
            tables.push(table);
        }

        let arc_names = symbols.iter().map(|(_, name)| Arc::from(name)).collect();
        static GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        CompiledBlueprint {
            symbols,
            arc_names,
            view_index,
            tables,
            fallback,
            default_index,
            link_templates,
            propagate_union,
            generation: GENERATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Process-unique id of this compilation — changes on every
    /// [`CompiledBlueprint::compile`] call, letting caches keyed on it
    /// detect a blueprint swap.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The `tables` index of a declared view's dispatch table, or `None`
    /// for undeclared views (which dispatch through the fallback table).
    /// The cacheable form of [`CompiledBlueprint::table_for_view`].
    pub fn table_index_for_view(&self, view: &str) -> Option<usize> {
        self.view_index.get(view).copied()
    }

    /// The dispatch table at a [`CompiledBlueprint::table_index_for_view`]
    /// index; `None` selects the fallback table.
    pub fn table_at(&self, index: Option<usize>) -> &DispatchTable {
        match index {
            Some(i) => &self.tables[i],
            None => &self.fallback,
        }
    }

    /// The interned name universe (events, views, properties).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The symbol of an already-interned name. Never allocates.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.symbols.lookup(name)
    }

    /// The shared name behind a symbol; cloning the `Arc` is how wave items
    /// carry event names without string copies.
    pub fn name_arc(&self, sym: Sym) -> Option<&Arc<str>> {
        self.arc_names.get(sym.index())
    }

    /// Whether the blueprint declares a view of this name.
    pub fn declares_view(&self, view: &str) -> bool {
        self.view_index.contains_key(view)
    }

    /// The dispatch table for OIDs of `view`: the view's merged table if
    /// declared, the `default`-only fallback otherwise.
    pub fn table_for_view(&self, view: &str) -> &DispatchTable {
        self.table_at(self.table_index_for_view(view))
    }

    /// Whether a `default` view is declared.
    pub fn has_default_view(&self) -> bool {
        self.default_index.is_some()
    }

    /// Whether any link template's PROPAGATE set forwards `event` — the
    /// cheap pre-check before walking a node's links. Events outside the
    /// union can still cross links added through the raw
    /// [`MetaDb`] API, so this is advisory for
    /// template-instantiated graphs; the engine keeps the exact per-link
    /// check.
    pub fn may_propagate(&self, event: Sym) -> bool {
        self.propagate_union.contains(event)
    }

    /// Compiled link templates, in declaration order.
    pub fn link_templates(&self) -> &[CompiledLinkTemplate] {
        &self.link_templates
    }
}

/// Union-find `find` with path compression over a flat parent vector.
fn uf_find(parent: &mut [u32], mut a: u32) -> u32 {
    while parent[a as usize] != a {
        let grand = parent[parent[a as usize] as usize];
        parent[a as usize] = grand;
        a = grand;
    }
    a
}

/// Union-find `union`; returns whether two distinct roots were merged.
fn uf_union(parent: &mut [u32], a: u32, b: u32) -> bool {
    let (ra, rb) = (uf_find(parent, a), uf_find(parent, b));
    if ra == rb {
        return false;
    }
    // Lower root wins so ids stay stable under re-runs.
    let (keep, fold) = if ra < rb { (ra, rb) } else { (rb, ra) };
    parent[fold as usize] = keep;
    true
}

// ---------------------------------------------------------------------
// The runtime shard map
// ---------------------------------------------------------------------

/// The runtime **instance-level** shard partition.
///
/// A `ShardMap` runs a union-find over the **live OIDs themselves**, keyed
/// by arena slot, folding in every live link that can carry at least one
/// event (an empty PROPAGATE set carries nothing), so two disjoint
/// instance chains of the same views land in different groups. The result
/// is the finest partition with this invariant:
///
/// > a propagation wave anchored at an OID of group *g* can only ever
/// > read or write OIDs of group *g*,
///
/// because every wave read and write reaches its OIDs by walking
/// propagating links out from the anchor.
///
/// Any link-topology change bumps the database's
/// [`topology stamp`](MetaDb::topology_stamp), which makes the map
/// [stale](ShardMap::is_current). The owner first tries
/// [`ShardMap::try_update`], which replays the database's bounded
/// [topology delta log](MetaDb::topology_deltas_since) — new bridges are
/// pure union-find merges, so mid-session `Connect`/`PROPAGATE` growth
/// costs O(deltas), not a rescan of every link. Only severing changes
/// (link removal or repointing away) force a full rebuild, because a
/// union-find cannot un-merge.
///
/// Nothing in the drain reads the map: waves run inline. It stays as an
/// analysis of how independent a project's waves are (the benchmark
/// reports [`ShardMap::group_count`] and
/// [`ShardMap::incremental_updates`]).
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Union-find parents over OID arena slots, seeded identity and
    /// folded by propagating links. Slots at or beyond the vector's end
    /// are implicit singletons (OIDs created after the map was built).
    parent: Vec<u32>,
    /// The [`MetaDb::topology_stamp`] this map describes.
    topo_stamp: u64,
    /// The [`CompiledBlueprint::generation`] this map was built against.
    compiled_generation: u64,
    /// Distinct components merged by propagating links (build + updates).
    merges: u64,
    /// Incremental delta-log updates absorbed since the last full build.
    incremental_updates: u64,
    /// Distinct groups among live OIDs at build time, maintained
    /// approximately across incremental updates (exact again on rebuild).
    groups: u32,
}

impl ShardMap {
    /// Builds the map for the current database topology: seeds every live
    /// OID as its own group, then folds in every live link whose
    /// PROPAGATE set is non-empty.
    pub fn build(compiled: &CompiledBlueprint, db: &MetaDb) -> ShardMap {
        let slots = db
            .iter_oids()
            .map(|(id, _)| id.slot() + 1)
            .max()
            .unwrap_or(0);
        let mut parent: Vec<u32> = (0..slots).collect();
        let mut merges = 0u64;
        for (_, link) in db.iter_links() {
            if link.propagates().is_empty() {
                continue;
            }
            if uf_union(&mut parent, link.from.slot(), link.to.slot()) {
                merges += 1;
            }
        }
        let mut roots: Vec<u32> = db
            .iter_oids()
            .map(|(id, _)| uf_find(&mut parent, id.slot()))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        ShardMap {
            parent,
            topo_stamp: db.topology_stamp(),
            compiled_generation: compiled.generation(),
            merges,
            incremental_updates: 0,
            groups: roots.len() as u32,
        }
    }

    /// Whether the map still describes `(compiled, db)` — `false` after a
    /// blueprint swap or any link-topology change (including a `Connect`
    /// that bridges two previously-disjoint components).
    pub fn is_current(&self, compiled: &CompiledBlueprint, db: &MetaDb) -> bool {
        self.compiled_generation == compiled.generation() && self.topo_stamp == db.topology_stamp()
    }

    /// Brings a stale map up to date by replaying the database's bounded
    /// topology delta log, without rescanning any link. Returns `true` on
    /// success (the map is then [current](ShardMap::is_current)) and
    /// `false` when only a full [`ShardMap::build`] can help: the
    /// blueprint generation moved, the log has been truncated past this
    /// map's stamp, or a delta severed topology (union-find cannot
    /// un-merge).
    pub fn try_update(&mut self, compiled: &CompiledBlueprint, db: &MetaDb) -> bool {
        if self.compiled_generation != compiled.generation() {
            return false;
        }
        if self.topo_stamp == db.topology_stamp() {
            return true;
        }
        let Some(deltas) = db.topology_deltas_since(self.topo_stamp) else {
            return false;
        };
        let deltas: Vec<TopoDelta> = deltas.copied().collect();
        if deltas.iter().any(|d| matches!(d, TopoDelta::Sever)) {
            return false;
        }
        for delta in deltas {
            let TopoDelta::Bridge { a, b } = delta else {
                continue; // Quiet: a link that still carries nothing
            };
            let grow = a.slot().max(b.slot()) + 1;
            if grow as usize > self.parent.len() {
                // OIDs created since the build: late singletons.
                self.groups += grow - self.parent.len() as u32;
                self.parent.extend(self.parent.len() as u32..grow);
            }
            if uf_union(&mut self.parent, a.slot(), b.slot()) {
                self.merges += 1;
                self.groups = self.groups.saturating_sub(1);
            }
        }
        self.topo_stamp = db.topology_stamp();
        self.incremental_updates += 1;
        true
    }

    /// The shard-map generation: the `(blueprint generation, topology
    /// stamp)` pair the partition describes. Any bridge-creating
    /// `Connect` moves it.
    pub fn generation(&self) -> (u64, u64) {
        (self.compiled_generation, self.topo_stamp)
    }

    /// The execution group of an OID: the union-find root of its arena
    /// slot. OIDs created after the map was built are singleton groups
    /// (correct: had they gained a propagating link, the map would be
    /// stale). A stale handle lands in group 0.
    pub fn group_of(&self, db: &MetaDb, id: OidId) -> ShardId {
        if !db.is_live(id) {
            return ShardId(0);
        }
        let mut a = id.slot();
        while (a as usize) < self.parent.len() && self.parent[a as usize] != a {
            a = self.parent[a as usize];
        }
        ShardId(a)
    }

    /// Distinct components merged by propagating links (at build time plus
    /// across incremental updates).
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Incremental delta-log updates absorbed since the last full build —
    /// `0` on a freshly built map, so a nonzero value proves mid-session
    /// topology growth was patched in rather than rebuilt over.
    pub fn incremental_updates(&self) -> u64 {
        self.incremental_updates
    }

    /// Distinct execution groups among live OIDs at build time — the
    /// parallelism ceiling of one batch. Maintained approximately across
    /// incremental updates (merges decrement it, late OIDs join as
    /// singletons); a rebuild makes it exact again.
    pub fn group_count(&self) -> u32 {
        self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parser::parse;

    fn edtc_like() -> Blueprint {
        parse(
            r#"blueprint t
            view default
                property uptodate default true
                when ckin do uptodate = true; post outofdate down done
                when outofdate do uptodate = false done
            endview
            view HDL_model
                when hdl_sim do sim_result = $arg done
            endview
            view schematic
                link_from HDL_model move propagates outofdate type derived
                use_link move propagates outofdate
                let state = ($uptodate == true)
            endview
            endblueprint"#,
        )
        .unwrap()
    }

    #[test]
    fn merged_dispatch_prepends_default_rules() {
        let bp = edtc_like();
        let compiled = CompiledBlueprint::compile(&bp);
        let ckin = compiled.lookup("ckin").unwrap();
        let hdl_sim = compiled.lookup("hdl_sim").unwrap();

        // HDL_model answers both its own event and the default's.
        let table = compiled.table_for_view("HDL_model");
        assert!(table.dispatch(ckin).is_some());
        let d = table.dispatch(hdl_sim).unwrap();
        assert_eq!(d.assigns.len(), 1);
        assert_eq!(d.assigns[0].prop, "sim_result");

        // The default view's own table holds its rules exactly once.
        let d = compiled.table_for_view("default").dispatch(ckin).unwrap();
        assert_eq!(d.assigns.len(), 1);
        assert_eq!(d.posts.len(), 1);
    }

    #[test]
    fn unknown_views_fall_back_to_default_rules() {
        let bp = edtc_like();
        let compiled = CompiledBlueprint::compile(&bp);
        assert!(!compiled.declares_view("mystery"));
        let ckin = compiled.lookup("ckin").unwrap();
        let table = compiled.table_for_view("mystery");
        assert!(table.dispatch(ckin).is_some());
        assert_eq!(table.rule_event_count(), 2);
    }

    #[test]
    fn lets_merge_in_evaluation_order() {
        let bp = parse(
            r#"blueprint t
            view default
                let base = (1 == 1)
            endview
            view layout
                let refined = ($base == true)
            endview
            endblueprint"#,
        )
        .unwrap();
        let compiled = CompiledBlueprint::compile(&bp);
        let names: Vec<&str> = compiled
            .table_for_view("layout")
            .lets()
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        assert_eq!(names, vec!["base", "refined"]);
        // The default view itself evaluates its own lets once.
        assert_eq!(compiled.table_for_view("default").lets().len(), 1);
    }

    #[test]
    fn propagate_union_covers_template_sets_only() {
        let bp = edtc_like();
        let compiled = CompiledBlueprint::compile(&bp);
        let outofdate = compiled.lookup("outofdate").unwrap();
        let ckin = compiled.lookup("ckin").unwrap();
        assert!(compiled.may_propagate(outofdate));
        assert!(!compiled.may_propagate(ckin));
        assert_eq!(compiled.link_templates().len(), 2);
        assert!(compiled.link_templates()[0].propagates.contains(outofdate));
    }

    #[test]
    fn action_vec_inlines_four_and_spills_beyond() {
        let mut v: ActionVec<u32> = ActionVec::default();
        assert!(v.is_empty());
        for i in 0..6 {
            v.push(i);
        }
        assert_eq!(v.len(), 6);
        assert!(!v.is_empty());
        let collected: Vec<u32> = v.iter().copied().collect();
        assert_eq!(collected, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(v[4], 4);
        assert_eq!(v.get(6), None);
    }

    #[test]
    fn shard_map_merges_on_raw_bridge_links_only() {
        use damocles_meta::{LinkClass, LinkKind, MetaDb, Oid};
        let bp = parse(
            r#"blueprint shards
            view a endview
            view b endview
            endblueprint"#,
        )
        .unwrap();
        let compiled = CompiledBlueprint::compile(&bp);
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("x", "a", 1)).unwrap();
        let b = db.create_oid(Oid::new("x", "b", 1)).unwrap();

        // A link with an EMPTY PROPAGATE set carries nothing: no merge.
        let bare = db
            .add_link(a, b, LinkClass::Derive, LinkKind::DeriveFrom)
            .unwrap();
        let map = ShardMap::build(&compiled, &db);
        assert_eq!(map.merges(), 0);
        assert_ne!(map.group_of(&db, a), map.group_of(&db, b));
        assert_eq!(map.group_count(), 2);
        assert!(map.is_current(&compiled, &db));

        // Growing its PROPAGATE set moves the topology stamp (the map
        // goes stale) and the rebuilt map merges the two components.
        db.allow_event(bare, "zap").unwrap();
        assert!(!map.is_current(&compiled, &db));
        let merged = ShardMap::build(&compiled, &db);
        assert_ne!(merged.generation(), map.generation());
        assert_eq!(merged.merges(), 1);
        assert_eq!(merged.group_of(&db, a), merged.group_of(&db, b));
        assert_eq!(merged.group_count(), 1);
    }

    #[test]
    fn shard_map_absorbs_bridges_incrementally_and_rebuilds_on_sever() {
        use damocles_meta::{LinkClass, LinkKind, MetaDb, Oid};
        let bp = parse(
            r#"blueprint shards
            view a endview
            view b endview
            endblueprint"#,
        )
        .unwrap();
        let compiled = CompiledBlueprint::compile(&bp);
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("x", "a", 1)).unwrap();
        let b = db.create_oid(Oid::new("x", "b", 1)).unwrap();
        let mut map = ShardMap::build(&compiled, &db);
        assert_eq!(map.incremental_updates(), 0);
        assert!(map.try_update(&compiled, &db), "current map: no-op update");
        assert_eq!(map.incremental_updates(), 0, "no-op absorbs nothing");

        // A late OID plus a bridge to it: both patched in from the delta
        // log, no rebuild.
        let c = db.create_oid(Oid::new("x", "b", 2)).unwrap();
        let bridge = db
            .add_link_with(a, c, LinkClass::Derive, LinkKind::DeriveFrom, ["zap"])
            .unwrap();
        assert!(!map.is_current(&compiled, &db));
        assert!(map.try_update(&compiled, &db));
        assert!(map.is_current(&compiled, &db));
        assert_eq!(map.incremental_updates(), 1);
        assert_eq!(map.merges(), 1);
        assert_eq!(map.group_of(&db, a), map.group_of(&db, c));
        assert_ne!(map.group_of(&db, a), map.group_of(&db, b));
        assert_eq!(map.group_count(), 2, "{{a,c}} and {{b}}");

        // Severing topology cannot be patched into a union-find.
        db.remove_link(bridge).unwrap();
        assert!(!map.try_update(&compiled, &db));
        let rebuilt = ShardMap::build(&compiled, &db);
        assert_eq!(rebuilt.incremental_updates(), 0);
        assert_ne!(rebuilt.group_of(&db, a), rebuilt.group_of(&db, c));
        assert_eq!(rebuilt.group_count(), 3);
    }

    #[test]
    fn shard_map_separates_disjoint_chains_of_one_view_family() {
        use damocles_meta::{LinkClass, LinkKind, MetaDb, Oid};
        let bp = parse(
            r#"blueprint shards
            view a endview
            view b endview
            endblueprint"#,
        )
        .unwrap();
        let compiled = CompiledBlueprint::compile(&bp);
        let mut db = MetaDb::new();
        // Two instance chains over the SAME views: per-view sharding
        // would serialize them; instance-level sharding must not.
        let a1 = db.create_oid(Oid::new("x", "a", 1)).unwrap();
        let b1 = db.create_oid(Oid::new("x", "b", 1)).unwrap();
        let a2 = db.create_oid(Oid::new("y", "a", 1)).unwrap();
        let b2 = db.create_oid(Oid::new("y", "b", 1)).unwrap();
        db.add_link_with(a1, b1, LinkClass::Derive, LinkKind::DeriveFrom, ["ev"])
            .unwrap();
        db.add_link_with(a2, b2, LinkClass::Derive, LinkKind::DeriveFrom, ["ev"])
            .unwrap();
        let map = ShardMap::build(&compiled, &db);
        assert_eq!(map.group_of(&db, a1), map.group_of(&db, b1));
        assert_ne!(
            map.group_of(&db, a1),
            map.group_of(&db, a2),
            "disjoint chains of one view family get their own groups"
        );
        assert_eq!(map.group_count(), 2);
    }

    #[test]
    fn posts_are_interned() {
        let bp = edtc_like();
        let compiled = CompiledBlueprint::compile(&bp);
        let ckin = compiled.lookup("ckin").unwrap();
        let outofdate = compiled.lookup("outofdate").unwrap();
        let d = compiled.table_for_view("schematic").dispatch(ckin).unwrap();
        assert_eq!(d.posts[0].event, outofdate);
        assert_eq!(d.posts[0].direction, Direction::Down);
    }
}

//! The DAMOCLES project server: the façade tying blueprint, meta-database,
//! workspace, event queue and run-time engine together (Fig. 1).
//!
//! Wrapper programs (and designers' front-ends) talk to a [`ProjectServer`]:
//! they check data in and out, post event messages, and query project state.
//! The server drains its FIFO queue with [`ProjectServer::process_all`],
//! dispatching `exec` invocations to its [`ScriptExecutor`] and feeding any
//! events those wrappers post back into the queue — the automatic tool
//! invocation loop of Section 3.3.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use damocles_meta::journal::{self, JournalOp, JournalWriter, RecordBatch, RecoveryReport};
use damocles_meta::{
    persist, Direction, EventMessage, LinkId, MetaDb, MetaError, Oid, OidId, ProjectQuery, Value,
    Workspace,
};

use crate::engine::audit::{AuditKind, AuditLog};
use crate::engine::compile::{CompiledBlueprint, ShardMap};
use crate::engine::error::EngineError;
use crate::engine::event::{Delivery, QueuedEvent};
use crate::engine::exec::{NullExecutor, PreparedRun, ScriptExecutor, ScriptInvocation, ToolCtx};
use crate::engine::invoke::{
    FinishedInvocation, InvokeOutcome, InvokeStats, Invoker, RetryPolicy, WakeFn,
};
use crate::engine::policy::{Policy, PolicyViolation, Strictness};
use crate::engine::queue::{EventQueue, Posted};
use crate::engine::runtime::RuntimeEngine;
use crate::engine::tail::TailHub;
use crate::engine::template;
use crate::engine::trace::{TraceLog, TraceRecord};
use crate::lang::ast::Blueprint;
use crate::lang::{parser, validate};

/// Aggregate results of one [`ProjectServer::process_all`] drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessReport {
    /// Design events processed (queue entries).
    pub events: u64,
    /// OIDs that executed rules across all waves.
    pub deliveries: u64,
    /// Wrapper invocations dispatched.
    pub scripts: u64,
    /// Event messages wrappers posted back.
    pub emitted: u64,
}

impl ProcessReport {
    fn absorb(&mut self, other: ProcessReport) {
        self.events += other.events;
        self.deliveries += other.deliveries;
        self.scripts += other.scripts;
        self.emitted += other.emitted;
    }
}

/// Snapshot file name inside a durability directory.
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.ddb";
/// Journal file name inside a durability directory.
pub(crate) const JOURNAL_FILE: &str = "journal.djl";

/// Durability state of a journaling server: where the checkpoint snapshot
/// and op journal live, the open journal writer, and the fold policy.
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    writer: JournalWriter,
    /// Epoch of the snapshot the journal extends.
    epoch: u64,
    /// Leadership term the journal is written under (see `fence_term`).
    term: u64,
    /// Fold the journal into a fresh snapshot after this many appended ops.
    checkpoint_every: u64,
    ops_since_checkpoint: u64,
    /// Set when the database was swapped wholesale (`adopt_project`): the
    /// journal on disk no longer describes the in-memory state, so the next
    /// sync point must checkpoint before appending anything.
    force_checkpoint: bool,
}

fn journal_io(e: std::io::Error) -> EngineError {
    EngineError::Journal {
        reason: e.to_string(),
    }
}

/// Reads a durability directory **at rest** and reconstructs the project
/// image at journal cursor `(epoch, seq)`: the snapshot plus its first
/// `seq` journal records, replayed against a scratch database. Nothing in
/// the directory is written or truncated — the offline half of
/// [`ProjectServer::replay_at`], used by `damocles_server --replay-until`
/// and `damocles_inspect` to examine a copied bug-report directory.
/// Returns the recovered object count and the image in
/// [`persist::save_project`] format.
///
/// # Errors
///
/// [`EngineError::Journal`] when the snapshot is unreadable, `epoch` does
/// not match the on-disk snapshot, or `seq` lies beyond the journal.
pub fn replay_dir(
    dir: impl AsRef<Path>,
    epoch: u64,
    seq: u64,
) -> Result<(u64, String), EngineError> {
    let dir = dir.as_ref();
    let snapshot = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).map_err(journal_io)?;
    let on_disk = journal::snapshot_epoch(&snapshot);
    if epoch != on_disk {
        return Err(EngineError::Journal {
            reason: format!(
                "replay cursor epoch {epoch} is not addressable: the directory \
                 holds epoch {on_disk} (checkpoints fold earlier epochs away)"
            ),
        });
    }
    let bytes = match std::fs::read(dir.join(JOURNAL_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(journal_io(e)),
    };
    let recovered = journal::recover_until(&snapshot, &bytes, Some(seq))?;
    let oids = recovered.db.oid_count() as u64;
    let image = persist::save_project(&recovered.db, &recovered.workspace);
    Ok((oids, image))
}

/// Reads the addressable cursor range of a durability directory **at
/// rest**: the snapshot's epoch and the number of valid journal records
/// extending it, plus the encoded body of every such record (for
/// timeline rendering). A cursor `(epoch, s)` for any `s` up to the
/// returned count is valid input to [`replay_dir`].
///
/// # Errors
///
/// [`EngineError::Journal`] when the snapshot is unreadable or the
/// journal is corrupt mid-file (a torn tail is fine — it is past the
/// valid prefix by definition).
pub fn journal_dir_cursor(dir: impl AsRef<Path>) -> Result<(u64, Vec<String>), EngineError> {
    let dir = dir.as_ref();
    let snapshot = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).map_err(journal_io)?;
    let epoch = journal::snapshot_epoch(&snapshot);
    let bytes = match std::fs::read(dir.join(JOURNAL_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(journal_io(e)),
    };
    let tail = journal::parse_journal(&bytes)?;
    Ok((epoch, tail.ops.iter().map(JournalOp::encode).collect()))
}

/// How long the blocking drain parks per poll while detached invocations
/// are still in flight (results usually arrive earlier via the condvar).
const INVOKE_POLL: Duration = Duration::from_millis(50);

/// The work-queue journal record for a durably accepted event, or `None`
/// when the event carries no sequence stamp (journaling off at accept) or
/// its target address no longer resolves.
///
/// A free function (not a method) so callers can borrow the queue and the
/// database from disjoint fields at the same time.
fn event_queued_op(db: &MetaDb, ev: &QueuedEvent) -> Option<JournalOp> {
    let seq = ev.seq?;
    let target = db.oid(ev.delivery.anchor()).ok()?.clone();
    Some(JournalOp::EventQueued {
        seq,
        event: ev.event.clone(),
        direction: match ev.direction {
            Direction::Up => "up".to_string(),
            Direction::Down => "down".to_string(),
        },
        propagate: matches!(ev.delivery, Delivery::PropagateFrom(_)),
        target,
        args: ev.args.clone(),
        user: ev.user.clone(),
    })
}

/// The project server.
///
/// Generic over its script executor so tests can use
/// [`RecordingExecutor`](crate::engine::exec::RecordingExecutor) and the
/// `damocles-tools` crate can plug a simulated tool chain in, while the
/// default is the inert [`NullExecutor`].
///
/// # Example
///
/// ```
/// use blueprint_core::engine::server::ProjectServer;
///
/// # fn main() -> Result<(), blueprint_core::engine::error::EngineError> {
/// let mut server = ProjectServer::from_source(r#"
///     blueprint demo
///     view default
///         property uptodate default true
///         when ckin do uptodate = true; post outofdate down done
///         when outofdate do uptodate = false done
///     endview
///     view HDL_model endview
///     view schematic
///         link_from HDL_model move propagates outofdate type derived
///     endview
///     endblueprint
/// "#)?;
/// let hdl = server.checkin("cpu", "HDL_model", "yves", b"module cpu;".to_vec())?;
/// let sch = server.checkin("cpu", "schematic", "yves", b"...".to_vec())?;
/// server.connect_oids(&hdl, &sch)?;
/// server.process_all()?;
///
/// // A new HDL version invalidates the derived schematic.
/// server.checkin("cpu", "HDL_model", "yves", b"module cpu; // v2".to_vec())?;
/// server.process_all()?;
/// assert_eq!(server.prop(&sch, "uptodate").unwrap().as_atom(), "false");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProjectServer<E = NullExecutor> {
    blueprint: Arc<Blueprint>,
    /// The blueprint compiled for the engine; rebuilt whenever the
    /// blueprint changes (`reinit`). Behind an [`Arc`] so a fleet can
    /// share one compilation across every tenant on the same source.
    compiled: Arc<CompiledBlueprint>,
    db: MetaDb,
    workspace: Workspace,
    engine: RuntimeEngine,
    queue: EventQueue,
    audit: AuditLog,
    /// Per-wave execution trace (see [`crate::engine::trace`]):
    /// retention off by default, so the hot path pays nothing until a
    /// `trace on` request flips it.
    trace: TraceLog,
    /// Invoker fault counters already folded into the audit log as
    /// `InvokeRetried` / `InvokeTimedOut` notes (the pool's counters are
    /// cumulative; the server notes deltas).
    seen_invoke_faults: (u64, u64),
    executor: E,
    /// Reusable inbox-drain buffer (see `EventQueue::drain_inbox_into`).
    inbox_buf: Vec<Posted>,
    /// Journal + checkpoint state (see [`ProjectServer::enable_journal`]).
    durability: Option<Durability>,
    /// The leadership term this server last journaled (or adopted a
    /// snapshot) under; 1 until a journal or promotion says otherwise.
    term: u64,
    /// Set when a newer leadership term fenced this server (see
    /// [`ProjectServer::fence_term`]): the fencing term. A fenced server
    /// can never commit again — the service layer refuses its mutations
    /// as stale-term, and the journal refuses appends.
    fenced_by: Option<u64>,
    /// Group-commit mode: operation boundaries buffer their journal ops
    /// in memory instead of appending+fsyncing; the owner (the command
    /// loop) calls [`ProjectServer::flush_journal`] once per batch.
    group_commit: bool,
    /// Set when a journal failure *disabled* durability (poisoning), as
    /// opposed to durability being off by configuration. The command
    /// loop consumes it ([`ProjectServer::take_journal_poisoned`]) to
    /// error un-acked mutations of the poisoned window.
    journal_poisoned: bool,
    /// Replication publication point: committed journal records and
    /// checkpoint rollovers are published here for tail subscribers
    /// (see [`crate::engine::tail`]). Shared with the service layer so
    /// the hub survives `Init` server swaps.
    tail: Arc<TailHub>,
    /// Cached shard partition ([`ProjectServer::shard_map`]), built on
    /// first request and patched or rebuilt when the blueprint
    /// generation or the database's link topology moves (a `Connect`
    /// that bridges two previously-disjoint components bumps the topology
    /// stamp and thereby the shard-map generation).
    shard_map: Option<ShardMap>,
    /// The async invocation pool running detached tool runs (see
    /// [`crate::engine::invoke`]); inline executors never touch it.
    invoker: Invoker,
    /// `InvokeQueued` records of detached invocations not yet terminal,
    /// kept so a checkpoint can re-seed the fresh journal with them
    /// (work records have no snapshot representation).
    in_flight_ops: BTreeMap<u64, JournalOp>,
    /// Next durable event-queue sequence number.
    next_event_seq: u64,
    /// Next invocation id (monotonic across inline and detached runs).
    next_invoke_id: u64,
    /// Safety valve for `process_all`.
    pub max_events_per_drain: u64,
}

impl ProjectServer<NullExecutor> {
    /// Initializes a server from blueprint source text, validating it.
    ///
    /// # Errors
    ///
    /// Returns parse errors or validation errors (warnings are tolerated,
    /// matching the non-obstructive stance).
    pub fn from_source(source: &str) -> Result<Self, EngineError> {
        let bp = parser::parse(source)?;
        Self::new(bp)
    }

    /// Initializes a server from a parsed blueprint, validating it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Invalid`] when validation finds errors.
    pub fn new(blueprint: Blueprint) -> Result<Self, EngineError> {
        Self::with_executor(blueprint, NullExecutor)
    }
}

impl<E: ScriptExecutor> ProjectServer<E> {
    /// Initializes a server with a custom script executor.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Invalid`] when validation finds errors.
    pub fn with_executor(blueprint: Blueprint, executor: E) -> Result<Self, EngineError> {
        validate::check(&blueprint).map_err(|issues| EngineError::Invalid {
            issues: issues.iter().map(ToString::to_string).collect(),
        })?;
        let compiled = Arc::new(CompiledBlueprint::compile(&blueprint));
        Ok(Self::with_shared(Arc::new(blueprint), compiled, executor))
    }

    /// Initializes a server around an **already validated and compiled**
    /// blueprint — the fleet path, where hundreds of tenants loading the
    /// same source share one [`CompiledBlueprint`] allocation through the
    /// registry's content-hash cache instead of compiling per tenant.
    ///
    /// The caller vouches that `compiled` was compiled from `blueprint`
    /// and that the source passed [`validate::check`]; [`with_executor`]
    /// is the checked single-project path.
    ///
    /// [`with_executor`]: ProjectServer::with_executor
    pub fn with_shared(
        blueprint: Arc<Blueprint>,
        compiled: Arc<CompiledBlueprint>,
        executor: E,
    ) -> Self {
        ProjectServer {
            blueprint,
            compiled,
            db: MetaDb::new(),
            workspace: Workspace::new("project"),
            engine: RuntimeEngine::default(),
            queue: EventQueue::new(),
            audit: AuditLog::counters_only(),
            trace: TraceLog::disabled(),
            seen_invoke_faults: (0, 0),
            executor,
            inbox_buf: Vec::new(),
            durability: None,
            term: 1,
            fenced_by: None,
            group_commit: false,
            journal_poisoned: false,
            tail: Arc::new(TailHub::new()),
            shard_map: None,
            invoker: Invoker::default(),
            in_flight_ops: BTreeMap::new(),
            next_event_seq: 0,
            next_invoke_id: 0,
            max_events_per_drain: 1_000_000,
        }
    }

    /// Replaces the blueprint — "re-initializing the BluePrint mechanism"
    /// between project phases (Section 3.2). The meta-database, workspace
    /// and queue are kept.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Invalid`] when the new blueprint fails
    /// validation; the old blueprint stays in force.
    pub fn reinit(&mut self, blueprint: Blueprint) -> Result<(), EngineError> {
        validate::check(&blueprint).map_err(|issues| EngineError::Invalid {
            issues: issues.iter().map(ToString::to_string).collect(),
        })?;
        self.compiled = Arc::new(CompiledBlueprint::compile(&blueprint));
        self.blueprint = Arc::new(blueprint);
        Ok(())
    }

    /// Batch re-evaluation of every continuous assignment on every live
    /// OID — the deferred half of the `eager_lets` ablation (with eager
    /// evaluation disabled, `let` properties are only refreshed when this is
    /// called, e.g. once per query burst instead of once per delivery).
    ///
    /// Returns the number of `let` properties written.
    ///
    /// # Errors
    ///
    /// Propagates database errors (none expected on a live database).
    pub fn refresh_lets(&mut self) -> Result<u64, EngineError> {
        use crate::engine::eval::EvalCtx;
        let ids: Vec<OidId> = self.db.iter_oids().map(|(id, _)| id).collect();
        let mut written = 0u64;
        for id in ids {
            // The compiled per-view tables hold the default view's lets and
            // the view's own pre-merged in evaluation order.
            let table = {
                let view = &self.db.oid(id)?.view;
                self.compiled.table_for_view(view.as_str())
            };
            // Evaluate against a stable snapshot of the entry's properties.
            let values: Vec<(String, Value)> = {
                let entry = self.db.entry(id)?;
                let ctx = EvalCtx {
                    props: &entry.props,
                    oid: &entry.oid,
                    event: "refresh",
                    args: &[],
                    user: "server",
                    date: 0,
                };
                table
                    .lets()
                    .iter()
                    .map(|l| (l.name.clone(), ctx.eval(&l.expr)))
                    .collect()
            };
            for (name, value) in values {
                self.db.set_prop(id, &name, value)?;
                written += 1;
            }
        }
        self.journal_sync(None)?;
        Ok(written)
    }

    /// Adopts a restored database and workspace (e.g. from
    /// [`damocles_meta::persist::load_project`]), discarding the current
    /// ones. Any queued events are dropped — their addresses belong to the
    /// old database.
    ///
    /// With journaling enabled, the on-disk journal no longer describes the
    /// adopted state; a checkpoint is forced at the next sync point (call
    /// [`ProjectServer::checkpoint`] immediately if you need the window
    /// closed now).
    pub fn adopt_project(&mut self, db: MetaDb, workspace: Workspace) {
        while self.queue.dequeue().is_some() {}
        for _ in self.queue.drain_inbox() {}
        // Detached jobs were captured against the old database; a fresh
        // pool (same policies and wake) replaces them. On a durable server
        // the journal's in-flight records re-dispatch them instead.
        let (default_policy, overrides) = self.invoker.policies();
        let wake = self.invoker.take_wake();
        let mut fresh = Invoker::default();
        fresh.set_policy(None, default_policy);
        for (script, policy) in &overrides {
            fresh.set_policy(Some(script), *policy);
        }
        fresh.set_wake(wake);
        self.invoker = fresh;
        self.in_flight_ops.clear();
        self.db = db;
        self.workspace = workspace;
        // The engine's per-view dispatch cache is keyed by the old
        // database's view symbols; the adopted database may intern the
        // same view names in a different order. The shard map is likewise
        // per-database (its topology stamp could coincide by value).
        self.engine.invalidate_dispatch_cache();
        self.shard_map = None;
        if let Some(d) = self.durability.as_mut() {
            self.db.attach_journal(d.writer.record_count());
            d.force_checkpoint = true;
        }
    }

    // ------------------------------------------------------------------
    // Durability: op journal + incremental checkpoints
    // ------------------------------------------------------------------

    /// Turns on durability: writes an initial checkpoint (snapshot +
    /// fresh journal) under `dir`, attaches a journal recorder to the
    /// database, and from then on appends every mutation's op record at
    /// each server operation boundary, folding the journal into a fresh
    /// snapshot every `checkpoint_every` ops (and on
    /// [`ProjectServer::checkpoint`]). Returns the checkpoint epoch.
    ///
    /// The durability cost between checkpoints scales with the mutation
    /// rate, not the database size — the point of the journal over plain
    /// [`damocles_meta::persist::save`] snapshots.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] on file-system failures.
    pub fn enable_journal(
        &mut self,
        dir: impl AsRef<Path>,
        checkpoint_every: u64,
    ) -> Result<u64, EngineError> {
        self.enable_journal_inner(dir.as_ref(), checkpoint_every, 0, None)
    }

    /// The failover half of [`ProjectServer::enable_journal`]: enables
    /// journaling under an explicit fencing `term` (the promotion bumps
    /// it past the deposed leader's) with an epoch floor — a promoted
    /// follower that consumed the leader's stream up to epoch *k* must
    /// journal at epoch ≥ *k*+1 so its reign never reuses a coordinate
    /// the old reign published. Returns the promoted epoch.
    ///
    /// # Errors
    ///
    /// [`EngineError::Fenced`] when this server was already fenced by a
    /// term ≥ `term`; [`EngineError::Journal`] on file-system failures.
    pub fn promote_journal(
        &mut self,
        dir: impl AsRef<Path>,
        checkpoint_every: u64,
        min_epoch: u64,
        term: u64,
    ) -> Result<u64, EngineError> {
        if let Some(fence) = self.fenced_by.filter(|f| *f >= term) {
            return Err(EngineError::Fenced {
                term,
                current: fence,
            });
        }
        // A promotion must strictly advance the reign: re-promoting at
        // (or below) the term already in force would let two nodes
        // journal under one term — exactly the dual-commit fencing
        // exists to prevent.
        let current = self.current_term();
        if term <= current {
            return Err(EngineError::Fenced { term, current });
        }
        self.fenced_by = None;
        self.enable_journal_inner(dir.as_ref(), checkpoint_every, min_epoch, Some(term))
    }

    fn enable_journal_inner(
        &mut self,
        dir: &Path,
        checkpoint_every: u64,
        min_epoch: u64,
        term: Option<u64>,
    ) -> Result<u64, EngineError> {
        let dir = dir.to_path_buf();
        std::fs::create_dir_all(&dir).map_err(journal_io)?;
        // Continue the epoch sequence (and, absent an explicit promotion
        // term, the term) of any previous incarnation so a stale journal
        // from before this enable can never pass the (epoch, term) match
        // against a new snapshot. Only a MISSING snapshot means a fresh
        // start; an unreadable one is an error (enable would otherwise
        // overwrite state the operator may still want).
        let (on_disk_epoch, on_disk_term) = match std::fs::read_to_string(dir.join(SNAPSHOT_FILE)) {
            Ok(s) => (journal::snapshot_epoch(&s), journal::snapshot_term(&s)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (0, self.term),
            Err(e) => return Err(journal_io(e)),
        };
        let epoch = (on_disk_epoch + 1).max(min_epoch);
        let term = term.unwrap_or(on_disk_term);
        let (writer, image) =
            Self::write_checkpoint_files(&dir, epoch, term, &self.db, &self.workspace)?;
        self.db.attach_journal(writer.record_count());
        self.journal_poisoned = false;
        self.term = term;
        self.tail.publish_enable(epoch, term, image);
        self.durability = Some(Durability {
            dir,
            writer,
            epoch,
            term,
            checkpoint_every: checkpoint_every.max(1),
            ops_since_checkpoint: 0,
            force_checkpoint: false,
        });
        // Events queued before this enable predate the journal: stamp them
        // with sequence numbers and record their acceptance now, so the
        // fresh journal's pending-work scan covers the whole queue.
        for ev in self.queue.iter_mut() {
            if ev.seq.is_some() {
                continue;
            }
            ev.seq = Some(self.next_event_seq);
            self.next_event_seq += 1;
            if let Some(op) = event_queued_op(&self.db, ev) {
                self.db.record_extra(&op);
            }
        }
        self.journal_sync(None)?;
        Ok(epoch)
    }

    /// Whether durability is enabled.
    pub fn journal_enabled(&self) -> bool {
        self.durability.is_some()
    }

    /// The current checkpoint epoch, when journaling.
    pub fn journal_epoch(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.epoch)
    }

    /// Ops appended to the current journal since the last checkpoint.
    pub fn journal_records(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.writer.record_count())
    }

    /// The durability directory, when journaling.
    pub fn journal_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// The leadership term in force: the open journal's, or the last
    /// term this server journaled / adopted under (1 for a server that
    /// never saw a failover).
    pub fn current_term(&self) -> u64 {
        self.durability.as_ref().map_or(self.term, |d| d.term)
    }

    /// The fencing term, when a newer reign fenced this server (see
    /// [`ProjectServer::fence_term`]). The service layer consults this
    /// before every mutation.
    pub fn fenced_by(&self) -> Option<u64> {
        self.fenced_by
    }

    /// Fences this server out of leadership: a coordinator (or a revived
    /// ex-leader's operator) announces that term `term` now holds the
    /// reign. If `term` is newer than this server's, the server becomes
    /// permanently read-only — durability is closed (the on-disk journal
    /// stays, a valid artifact of the old reign), the tail hub publishes
    /// its end so subscribers fail over, and every later mutation or
    /// journal append is refused as stale-term. Returns the term this
    /// server held.
    ///
    /// Any journal records still buffered (group-commit window) are
    /// discarded un-appended: they were never acked as durable, and
    /// appending them under a deposed term could dual-commit against the
    /// new reign's journal.
    ///
    /// # Errors
    ///
    /// [`EngineError::Fenced`] when `term` is not newer than the term
    /// this server already holds — the fence request itself is stale.
    pub fn fence_term(&mut self, term: u64) -> Result<u64, EngineError> {
        let current = self.current_term();
        if term <= current {
            return Err(EngineError::Fenced { term, current });
        }
        self.term = current;
        self.fenced_by = Some(term);
        let _discarded = self.db.drain_journal();
        if self.durability.take().is_some() {
            self.db.detach_journal();
            self.tail.publish_disable();
        }
        Ok(current)
    }

    /// The replication publication point: tail subscribers read committed
    /// journal records and checkpoint rollovers from here (see
    /// [`crate::engine::tail`]).
    pub fn tail_hub(&self) -> Arc<TailHub> {
        Arc::clone(&self.tail)
    }

    /// Replaces the tail hub — the service layer shares one hub across
    /// `Init` server swaps so live subscriptions survive by address.
    ///
    /// If journaling is already enabled, the committed on-disk state
    /// (snapshot + the journal's complete records) is published to the
    /// new hub so subscribers can bootstrap; the in-memory record buffer,
    /// not yet fsynced, is intentionally excluded and publishes at its
    /// flush.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when the on-disk state cannot be read
    /// back (the hub is left disabled; durability itself is unaffected).
    pub fn set_tail_hub(&mut self, hub: Arc<TailHub>) -> Result<(), EngineError> {
        self.tail = hub;
        let Some(d) = self.durability.as_ref() else {
            return Ok(());
        };
        let snapshot = std::fs::read_to_string(d.dir.join(SNAPSHOT_FILE)).map_err(journal_io)?;
        let bytes = std::fs::read(d.dir.join(JOURNAL_FILE)).map_err(journal_io)?;
        let text = String::from_utf8_lossy(&bytes);
        let records = text.split_once('\n').map_or("", |(_header, rest)| rest);
        self.tail.publish_enable(d.epoch, d.term, snapshot);
        // Only newline-terminated lines are committed records; a torn
        // fragment (impossible outside a crash) is dropped.
        self.tail
            .publish_records(RecordBatch::from_lines(records.to_string()));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Replication follower surface
    // ------------------------------------------------------------------

    /// Adopts a leader checkpoint snapshot (a `persist` project image, as
    /// carried by a `tail-reset` frame) as this server's whole state —
    /// the follower bootstrap step. Returns the live object count.
    ///
    /// # Errors
    ///
    /// [`EngineError::Meta`] when the image fails to parse.
    pub fn adopt_replica_image(&mut self, image: &str) -> Result<usize, EngineError> {
        let (db, workspace) = persist::load_project(image).map_err(EngineError::Meta)?;
        let oids = db.oid_count();
        self.adopt_project(db, workspace);
        Ok(oids)
    }

    /// The journal-tag map (tag → link address) for the current database
    /// image, tags assigned in image order — exactly the assignment the
    /// leader makes at each checkpoint, so a follower rebuilds it after
    /// every bootstrap and epoch rollover.
    pub fn replica_link_tags(&self) -> HashMap<u64, LinkId> {
        self.db
            .links_in_image_order()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (i as u64, id))
            .collect()
    }

    /// Applies one streamed journal record through the normal database
    /// API — the follower's unit of replication (see
    /// [`damocles_meta::journal::apply_op`]). `tags` is the follower's
    /// link-tag map, maintained across calls.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when the op does not apply — the stream
    /// does not match this follower's image (it must re-bootstrap).
    pub fn apply_replica_op(
        &mut self,
        op: &JournalOp,
        tags: &mut HashMap<u64, LinkId>,
    ) -> Result<(), EngineError> {
        journal::apply_op(&mut self.db, &mut self.workspace, tags, op)
            .map_err(|reason| EngineError::Journal { reason })
    }

    /// The full project image (database + workspace payloads) — what a
    /// byte-identical follower must reproduce.
    pub fn project_image(&self) -> String {
        persist::save_project(&self.db, &self.workspace)
    }

    /// Folds the journal into a fresh snapshot: writes the full image at
    /// the next epoch (atomically), starts an empty journal, and re-bases
    /// the database's link tags. Returns the new epoch.
    ///
    /// Crash-safe ordering: the snapshot lands (tmp + rename) *before* the
    /// journal resets, and recovery ignores a journal whose header epoch
    /// does not match the snapshot — so dying between the two steps loses
    /// nothing and corrupts nothing.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when journaling is not enabled or on
    /// file-system failures.
    pub fn checkpoint(&mut self) -> Result<u64, EngineError> {
        if self.durability.is_none() {
            return Err(EngineError::Journal {
                reason: "journaling is not enabled (call enable_journal first)".to_string(),
            });
        }
        // Buffered records are already reflected in the live database;
        // the fresh snapshot subsumes them. Dropping any here (or folding a
        // wholesale-adopted database) makes the rollover non-seamless for
        // tail subscribers: the stream never carried those changes, so a
        // caught-up follower must re-bootstrap rather than take the cheap
        // epoch marker.
        let dropped = self.db.drain_journal().len();
        let (dir, epoch, term, adopted) = {
            let d = self.durability.as_ref().expect("checked above");
            (d.dir.clone(), d.epoch + 1, d.term, d.force_checkpoint)
        };
        let (writer, image) =
            match Self::write_checkpoint_files(&dir, epoch, term, &self.db, &self.workspace) {
                Ok(w) => w,
                Err(e) => {
                    // The snapshot may have landed at the new epoch while the
                    // journal did not reset; continuing to append would write
                    // ops recovery must ignore.
                    self.poison_journal();
                    return Err(e);
                }
            };
        // Re-tag links in image order so tail ops and the snapshot agree,
        // numbering records from the fresh journal's start.
        self.db.attach_journal(writer.record_count());
        let d = self.durability.as_mut().expect("checked above");
        d.writer = writer;
        d.epoch = epoch;
        d.ops_since_checkpoint = 0;
        d.force_checkpoint = false;
        // Work records — still-queued events, in-flight detached
        // invocations — have no snapshot representation: re-seed the fresh
        // journal with them so recovery from the new epoch still sees the
        // accepted-but-unfinished set. This stays consistent with the
        // buffered drop above: a terminal record dropped there had its
        // queued record leave the pending sets too.
        for ev in self.queue.iter() {
            if let Some(op) = event_queued_op(&self.db, ev) {
                self.db.record_extra(&op);
            }
        }
        for op in self.in_flight_ops.values() {
            self.db.record_extra(op);
        }
        let reseeded = self.db.drain_journal();
        let d = self.durability.as_mut().expect("checked above");
        if let Err(e) = Self::append_and_sync(d, &reseeded) {
            self.poison_journal();
            return Err(EngineError::Journal {
                reason: format!("checkpoint re-seed failed, durability disabled: {e}"),
            });
        }
        self.tail
            .publish_checkpoint(epoch, term, image, dropped == 0 && !adopted);
        self.tail.publish_records(reseeded);
        Ok(epoch)
    }

    /// Restores the project from a durability directory: loads
    /// `snapshot + journal tail`, replays the tail through the normal
    /// database API (rebuilding indices and interned bitsets rather than
    /// trusting them), adopts the result, and folds it into a fresh
    /// checkpoint so journaling continues cleanly from the recovered
    /// state.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when the snapshot is unreadable, the
    /// journal is corrupt beyond a torn tail, or a record fails to replay.
    pub fn recover_journal(
        &mut self,
        dir: impl AsRef<Path>,
        checkpoint_every: u64,
    ) -> Result<RecoveryReport, EngineError> {
        let dir = dir.as_ref().to_path_buf();
        let snapshot = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).map_err(journal_io)?;
        // A MISSING journal file is a valid (empty) tail — the crash may
        // have hit before the first journal write. Any other read failure
        // must surface: proceeding would recover the snapshot alone and
        // then truncate the unread journal, destroying fsynced ops.
        let journal_bytes = match std::fs::read(dir.join(JOURNAL_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(journal_io(e)),
        };
        let recovered = journal::recover(&snapshot, &journal_bytes)?;
        self.durability = None;
        self.adopt_project(recovered.db, recovered.workspace);
        // Recovery continues the on-disk reign: the fresh checkpoint is
        // written under the recovered snapshot's term (promotion, which
        // BUMPS the term, goes through `promote_journal` instead).
        self.term = recovered.report.term;
        self.enable_journal(dir, checkpoint_every)?;
        // Work records survive even a stale journal (they have no
        // snapshot representation): re-enqueue unprocessed events and
        // re-dispatch in-flight invocations under their original ids.
        self.restore_pending_work(recovered.pending)?;
        Ok(recovered.report)
    }

    /// Reconstructs the historical project image at journal cursor
    /// `(epoch, seq)`: the snapshot of that epoch plus its first `seq`
    /// journal records, replayed through the recovery path against a
    /// **scratch** database — the live server is untouched. Returns the
    /// recovered object count and the image in
    /// [`persist::save_project`] format.
    ///
    /// Only the current epoch is addressable (checkpoints fold earlier
    /// journals away). `stat` reports the live cursor; replaying at it
    /// reproduces the live image byte for byte, and replaying at a
    /// smaller `seq` travels back in time — a bug report becomes a
    /// journal directory plus a cursor.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when journaling is off, `epoch` is not
    /// the current epoch, `seq` lies beyond the journal, or the on-disk
    /// files cannot be read or replayed.
    pub fn replay_at(&mut self, epoch: u64, seq: u64) -> Result<(u64, String), EngineError> {
        // The on-disk journal must cover every acked op before the read;
        // under group commit the command loop has already flushed (replay
        // is a barrier request), so this is usually a no-op.
        self.flush_journal()?;
        let Some(d) = self.durability.as_ref() else {
            return Err(EngineError::Journal {
                reason: "replay requires journaling (enable a journal first)".to_string(),
            });
        };
        if epoch != d.epoch {
            return Err(EngineError::Journal {
                reason: format!(
                    "replay cursor epoch {epoch} is not addressable: only the current \
                     epoch {} is on disk (checkpoints fold earlier epochs away)",
                    d.epoch
                ),
            });
        }
        replay_dir(&d.dir, epoch, seq)
    }

    fn write_checkpoint_files(
        dir: &Path,
        epoch: u64,
        term: u64,
        db: &MetaDb,
        workspace: &Workspace,
    ) -> Result<(JournalWriter, String), EngineError> {
        let image = journal::write_snapshot(db, workspace, epoch, term);
        journal::write_file_atomic(dir.join(SNAPSHOT_FILE), &image).map_err(journal_io)?;
        let writer =
            JournalWriter::create(dir.join(JOURNAL_FILE), epoch, term).map_err(journal_io)?;
        Ok((writer, image))
    }

    /// Records an optional server-level op (e.g. a payload record) in
    /// order with the database's buffered records, then — outside
    /// group-commit mode — flushes everything to the journal. Under group
    /// commit the records stay buffered until the owner's
    /// [`ProjectServer::flush_journal`] at the batch boundary. No-op
    /// without durability.
    fn journal_sync(&mut self, extra: Option<&JournalOp>) -> Result<(), EngineError> {
        if self.durability.is_none() {
            return Ok(());
        }
        if let Some(op) = extra {
            // Through the recorder, not a side buffer, so the op keeps its
            // position relative to surrounding database mutations even
            // when several operations' ops drain in one batch.
            self.db.record_extra(op);
        }
        if self.group_commit {
            return Ok(());
        }
        self.flush_journal()
    }

    /// Enters or leaves group-commit mode. While on, operation boundaries
    /// (`checkin`, `process_all`, …) buffer their journal records in memory;
    /// one [`ProjectServer::flush_journal`] appends and fsyncs the whole
    /// batch — the group-commit discipline that amortizes the
    /// ~per-sync-dominated durability cost across many requests. Leaving
    /// the mode flushes whatever is pending.
    ///
    /// Crash semantics: dying before the flush loses the in-memory batch,
    /// but the on-disk journal still ends at the previous batch boundary —
    /// recovery replays a valid prefix, never a torn batch.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] from the flush when leaving the mode.
    pub fn set_group_commit(&mut self, on: bool) -> Result<(), EngineError> {
        let was = self.group_commit;
        self.group_commit = on;
        if was && !on {
            self.flush_journal()?;
        }
        Ok(())
    }

    /// Whether group-commit mode is on.
    pub fn group_commit(&self) -> bool {
        self.group_commit
    }

    /// Takes (and clears) the poison marker: `true` when a journal
    /// failure disabled durability since the last call. Distinct from
    /// "journaling is off" — a fresh or deliberately un-journaled server
    /// never reports poisoning, while a failure does even after the
    /// server was replaced or re-enabled.
    pub fn take_journal_poisoned(&mut self) -> bool {
        std::mem::take(&mut self.journal_poisoned)
    }

    /// Appends all buffered journal records and syncs once; folds into a
    /// checkpoint when the policy says so. No-op without durability.
    ///
    /// Failure semantics: an append/sync error — including a batch the
    /// writer refuses because its numbering does not continue the journal
    /// — **disables durability** (poison) and surfaces the error. The
    /// drained records cannot be retried —
    /// the failed write may have left a partial record on disk, and
    /// appending after it would turn a recoverable torn tail into mid-file
    /// corruption. Poisoning keeps the on-disk journal a valid prefix of
    /// history and makes the gap loud instead of silent.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] on append/sync/checkpoint failures.
    pub fn flush_journal(&mut self) -> Result<(), EngineError> {
        // A fenced server must never append again: even with durability
        // already closed, any records that slipped into the buffer are
        // refused loudly rather than silently dropped.
        if let Some(fence) = self.fenced_by {
            if !self.db.drain_journal().is_empty() {
                return Err(EngineError::Fenced {
                    term: self.term,
                    current: fence,
                });
            }
            return Ok(());
        }
        if self.durability.is_none() {
            return Ok(());
        }
        if self.durability.as_ref().is_some_and(|d| d.force_checkpoint) {
            // The on-disk journal predates an adopt_project; fold first.
            self.checkpoint()?;
        }
        let batch = self.db.drain_journal();
        if batch.is_empty() {
            return Ok(());
        }
        let d = self.durability.as_mut().expect("checked above");
        if let Err(e) = Self::append_and_sync(d, &batch) {
            self.poison_journal();
            return Err(EngineError::Journal {
                reason: format!("journal append failed, durability disabled: {e}"),
            });
        }
        let appended = batch.len() as u64;
        // Publish to tail subscribers strictly AFTER the fsync: a record a
        // follower ever sees is on the leader's stable storage, so
        // replication can never run ahead of durability. The hub keeps
        // the written buffer itself, so followers get the bytes on disk.
        self.tail.publish_records(batch);
        let d = self.durability.as_mut().expect("checked above");
        d.ops_since_checkpoint += appended;
        if d.ops_since_checkpoint >= d.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Appends a drained record batch to the journal with one write and
    /// fsyncs it — the one write path of both the group-commit flush and
    /// the checkpoint's work re-seed. An empty batch neither writes nor
    /// syncs.
    fn append_and_sync(d: &mut Durability, batch: &RecordBatch) -> Result<(), std::io::Error> {
        if !batch.is_empty() {
            d.writer.append(batch)?;
            d.writer.sync()?;
        }
        Ok(())
    }

    /// Disables durability after a failed journal or snapshot write,
    /// loudly: the recorder detaches with its buffered records (or the
    /// database would buffer records forever), the poison marker is set,
    /// and tail subscriptions end.
    fn poison_journal(&mut self) {
        self.durability = None;
        self.db.detach_journal();
        self.journal_poisoned = true;
        self.tail.publish_disable();
    }

    /// Replaces the blueprint from source text.
    ///
    /// # Errors
    ///
    /// Parse or validation errors; the old blueprint stays in force.
    pub fn reinit_from_source(&mut self, source: &str) -> Result<(), EngineError> {
        let bp = parser::parse(source)?;
        self.reinit(bp)
    }

    /// Sets the engine policy (builder style).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.engine = RuntimeEngine::new(policy);
        self
    }

    /// Turns on full audit-record retention (builder style).
    pub fn with_audit_retention(mut self) -> Self {
        self.audit = AuditLog::retaining();
        self
    }

    /// The `(worker_ns, apply_ns)` phase split the deleted wave lanes
    /// reported. Every wave runs inline, so both are always 0; the
    /// benchmark package still reads it.
    pub fn wave_phase_ns(&self) -> (u64, u64) {
        (0, 0)
    }

    // ------------------------------------------------------------------
    // Async invocation pool
    // ------------------------------------------------------------------

    /// Live counters of the async invocation pool (pending, running,
    /// retrying, and terminal totals) — surfaced through `Request::Stat`.
    pub fn invoke_stats(&self) -> InvokeStats {
        self.invoker.stats()
    }

    /// Sets the retry policy detached runs of `script` use, or the pool
    /// default when `script` is `None`. Applies to subsequent dispatches.
    pub fn set_retry_policy(&mut self, script: Option<&str>, policy: RetryPolicy) {
        self.invoker.set_policy(script, policy);
    }

    /// Every configured retry policy (the default plus per-script
    /// overrides) — the service re-installs them across `Init` swaps.
    pub fn retry_policies(&self) -> (RetryPolicy, Vec<(String, RetryPolicy)>) {
        self.invoker.policies()
    }

    /// Arms (or clears) the callback fired when a detached result becomes
    /// harvestable — the command loop's "pump me" signal.
    pub fn set_invoke_wake(&self, wake: Option<WakeFn>) {
        self.invoker.set_wake(wake);
    }

    /// Detached invocations submitted and not yet fed back.
    pub fn invocations_in_flight(&self) -> usize {
        self.invoker.in_flight()
    }

    /// Blocks up to `timeout` for a harvestable detached result; `true`
    /// when one is ready (polling loops around
    /// [`ProjectServer::process_round`]).
    pub fn wait_invocations(&self, timeout: Duration) -> bool {
        self.invoker.wait_harvest(timeout)
    }

    /// The project's shard partition right now: the groups of OIDs that
    /// no propagation wave crosses between. It is an analysis the
    /// benchmark reads (group count, runtime merges, incremental updates,
    /// generation); the drain never asks for it, so it costs nothing
    /// until something does. A stale cached [`ShardMap`] is first offered
    /// the database's topology delta log ([`ShardMap::try_update`]) —
    /// mid-session `Connect`/`PROPAGATE` growth patches in as pure
    /// union-find merges; only severing changes (or delta-log truncation,
    /// or a blueprint swap) pay for a full rebuild.
    pub fn shard_map(&mut self) -> &ShardMap {
        let updated = match self.shard_map.as_mut() {
            Some(map) => map.try_update(&self.compiled, &self.db),
            None => false,
        };
        if !updated {
            self.shard_map = Some(ShardMap::build(&self.compiled, &self.db));
        }
        self.shard_map.as_ref().expect("built above")
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The active blueprint.
    pub fn blueprint(&self) -> &Blueprint {
        &self.blueprint
    }

    /// The active blueprint's compiled form.
    pub fn compiled(&self) -> &CompiledBlueprint {
        &self.compiled
    }

    /// A shared handle to the compiled blueprint — cheap to clone, and
    /// pointer-comparable (`Arc::ptr_eq`) to prove two tenants share one
    /// compilation through the fleet's blueprint cache.
    pub fn compiled_shared(&self) -> Arc<CompiledBlueprint> {
        Arc::clone(&self.compiled)
    }

    /// The meta-database (read-only; mutate through server operations).
    pub fn db(&self) -> &MetaDb {
        &self.db
    }

    /// The workspace.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// The audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Clears the audit log (counters and records).
    pub fn reset_audit(&mut self) {
        self.audit.reset();
    }

    /// The execution trace log (see [`crate::engine::trace`]).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Turns per-wave trace retention on or off. Turning it off drops any
    /// captured records; while off, wave execution pays no trace cost.
    pub fn set_trace_retention(&mut self, on: bool) {
        self.trace.set_retaining(on);
    }

    /// Drains the captured trace records, leaving retention as it is —
    /// the `trace get` request, so repeated polls see each record once
    /// and the server never accumulates an unbounded trace.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace.take_records()
    }

    /// The engine policy in force.
    pub fn policy(&self) -> &Policy {
        &self.engine.policy
    }

    /// Mutable policy access (tighten/loosen between phases).
    pub fn policy_mut(&mut self) -> &mut Policy {
        &mut self.engine.policy
    }

    /// The script executor.
    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// Mutable executor access.
    pub fn executor_mut(&mut self) -> &mut E {
        &mut self.executor
    }

    /// Read-only query facade.
    pub fn query(&self) -> ProjectQuery<'_> {
        ProjectQuery::new(&self.db)
    }

    /// Events currently queued.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// A property of an OID, by triplet.
    pub fn prop(&self, oid: &Oid, name: &str) -> Option<Value> {
        let id = self.db.resolve(oid)?;
        self.db.get_prop(id, name).ok().flatten().cloned()
    }

    // ------------------------------------------------------------------
    // Design activities
    // ------------------------------------------------------------------

    /// Checks new design data in: creates the next version OID, applies
    /// template rules, records the owner, and queues a `ckin` event targeted
    /// at the new OID (direction `up`, as in the paper's wire example).
    ///
    /// # Errors
    ///
    /// Fails on frozen views (policy), check-out conflicts, or database
    /// errors.
    pub fn checkin(
        &mut self,
        block: &str,
        view: &str,
        user: &str,
        payload: Vec<u8>,
    ) -> Result<Oid, EngineError> {
        if self.engine.policy.is_frozen(view) {
            return Err(PolicyViolation::FrozenView {
                view: view.to_string(),
            }
            .into());
        }
        let (id, oid) = self
            .workspace
            .checkin(&mut self.db, block, view, user, payload)?;
        template::apply_on_create(&self.blueprint, &mut self.db, id, &mut self.audit)?;
        self.db
            .set_prop(id, "owner", Value::Str(user.to_string()))?;
        self.accept_event(QueuedEvent::target("ckin", Direction::Up, id, user));
        // Journal the payload alongside the meta-data ops so recovery can
        // rebuild the workspace too, not just the database.
        let data_op = self.durability.is_some().then(|| JournalOp::Data {
            oid: oid.clone(),
            payload: self
                .workspace
                .datum(id)
                .map(|d| d.content.clone())
                .unwrap_or_default(),
        });
        self.journal_sync(data_op.as_ref())?;
        Ok(oid)
    }

    /// Checks a `(block, view)` chain out for `user`.
    ///
    /// # Errors
    ///
    /// Fails on check-out conflicts.
    pub fn checkout(&mut self, block: &str, view: &str, user: &str) -> Result<(), EngineError> {
        self.workspace.checkout(&self.db, block, view, user)?;
        Ok(())
    }

    /// Creates a bare OID (no payload) with template application — for tools
    /// and setup code. No `ckin` event is queued.
    ///
    /// # Errors
    ///
    /// Fails on duplicate triplets.
    pub fn create_object(&mut self, oid: Oid) -> Result<OidId, EngineError> {
        let id = self.db.create_oid(oid)?;
        template::apply_on_create(&self.blueprint, &mut self.db, id, &mut self.audit)?;
        self.journal_sync(None)?;
        Ok(id)
    }

    /// Relates two OIDs (by address), attaching the template's
    /// PROPAGATE/TYPE annotation.
    ///
    /// # Errors
    ///
    /// Fails on stale handles or self-links.
    pub fn connect(&mut self, from: OidId, to: OidId) -> Result<(), EngineError> {
        template::instantiate_link(&self.blueprint, &mut self.db, from, to)?;
        self.journal_sync(None)?;
        Ok(())
    }

    /// Relates two OIDs by triplet.
    ///
    /// # Errors
    ///
    /// Fails when either triplet is unknown.
    pub fn connect_oids(&mut self, from: &Oid, to: &Oid) -> Result<(), EngineError> {
        let f = self.db.require(from)?;
        let t = self.db.require(to)?;
        self.connect(f, t)
    }

    /// Resolves a triplet to its address.
    ///
    /// # Errors
    ///
    /// Fails when the triplet is unknown.
    pub fn resolve(&self, oid: &Oid) -> Result<OidId, EngineError> {
        Ok(self.db.require(oid)?)
    }

    // ------------------------------------------------------------------
    // Event traffic
    // ------------------------------------------------------------------

    /// Queues an event message on behalf of `user`.
    ///
    /// # Errors
    ///
    /// Fails when the target OID does not exist.
    pub fn post(&mut self, message: &EventMessage, user: &str) -> Result<(), EngineError> {
        let ev = QueuedEvent::from_message(&self.db, message, user)?;
        self.accept_event(ev);
        // A post's ack means "accepted and queued" — with journaling on,
        // the acceptance record is durable (or buffered for the batch
        // flush under group commit) before the ack.
        self.journal_sync(None)?;
        Ok(())
    }

    /// Queues an event from a raw `postEvent` line.
    ///
    /// # Errors
    ///
    /// Fails on wire-format errors or unknown targets.
    pub fn post_line(&mut self, line: &str, user: &str) -> Result<(), EngineError> {
        let message: EventMessage = line.parse::<EventMessage>().map_err(EngineError::Meta)?;
        self.post(&message, user)
    }

    /// A cloneable handle that concurrent wrapper threads can post through;
    /// the messages are folded into FIFO order at the next
    /// [`ProjectServer::process_all`].
    pub fn sender(&self) -> crossbeam::channel::Sender<crate::engine::queue::Posted> {
        self.queue.sender()
    }

    /// Drains the event queue to quiescence: processes every queued event,
    /// dispatches wrapper invocations, and feeds posted messages back until
    /// nothing is left. With a detached executor the drain also waits for
    /// every in-flight tool run to land and feeds its results through, so
    /// "quiescent" still means *fully* quiescent — and because results
    /// re-enter the queue in dispatch order (the pool's ordered harvest,
    /// see [`crate::engine::invoke`]), the final image is independent of
    /// worker scheduling and fault timing. Command loops that must not
    /// block behind slow tools use [`ProjectServer::process_round`].
    ///
    /// # Errors
    ///
    /// Policy violations under strict policies, database errors, or
    /// [`EngineError::Runaway`] when `max_events_per_drain` is exceeded.
    pub fn process_all(&mut self) -> Result<ProcessReport, EngineError> {
        let mut report = ProcessReport::default();
        loop {
            self.drain_round(&mut report)?;
            if self.invoker.in_flight() == 0 {
                break;
            }
            self.invoker.wait_harvest(INVOKE_POLL);
        }
        // One durability sync per drain: every op the wave performed is on
        // disk before process_all returns.
        self.journal_sync(None)?;
        Ok(report)
    }

    /// One non-blocking processing round: absorbs any landed detached
    /// results, drains the queue, and returns without waiting on
    /// still-running invocations — the command loop's building block, so
    /// a storm of retrying tools never stalls unrelated requests.
    /// [`ProjectServer::invocations_in_flight`] says whether more results
    /// are coming; the pool's wake callback
    /// ([`ProjectServer::set_invoke_wake`]) signals when to call again.
    ///
    /// # Errors
    ///
    /// As [`ProjectServer::process_all`].
    pub fn process_round(&mut self) -> Result<ProcessReport, EngineError> {
        let mut report = ProcessReport::default();
        self.drain_round(&mut report)?;
        self.journal_sync(None)?;
        Ok(report)
    }

    /// The drain loop: folds landed results and the wrapper inbox into
    /// the queue, then handles the queued events one at a time until the
    /// queue is empty — trip the runaway guard before taking an event,
    /// run its wave inline, record its `EventDone`, dispatch its
    /// wrappers, so the next wave reads what those wrappers wrote.
    /// Never waits on in-flight detached work.
    fn drain_round(&mut self, report: &mut ProcessReport) -> Result<(), EngineError> {
        loop {
            self.absorb_finished(report)?;
            // Reuse one inbox buffer across polls instead of allocating a
            // fresh Vec per drain.
            let mut inbox = std::mem::take(&mut self.inbox_buf);
            inbox.clear();
            self.queue.drain_inbox_into(&mut inbox);
            let drained: Result<(), EngineError> = inbox
                .iter()
                .try_for_each(|posted| self.enqueue_lenient(&posted.message, &posted.user));
            self.inbox_buf = inbox;
            drained?;
            if self.queue.is_empty() {
                return Ok(());
            }
            if report.events >= self.max_events_per_drain {
                return Err(EngineError::Runaway {
                    processed: report.events,
                });
            }
            let ev = self.queue.dequeue().expect("queue checked non-empty");
            let seq = ev.seq;
            let outcome = self.engine.process_compiled_traced(
                &self.compiled,
                &mut self.db,
                &mut self.audit,
                &mut self.trace,
                ev,
            )?;
            report.absorb(ProcessReport {
                events: 1,
                deliveries: outcome.delivered,
                ..Default::default()
            });
            self.mark_event_done(seq);
            self.dispatch_invocations(outcome.invocations, report)?;
        }
    }

    /// Records the terminal `EventDone` for a durably accepted event once
    /// its waves have run; the record travels in the same flush batch as
    /// the event's effects, so recovery either replays both or re-runs
    /// the event (at-least-once).
    fn mark_event_done(&mut self, seq: Option<u64>) {
        if self.durability.is_none() {
            return;
        }
        if let Some(seq) = seq {
            self.db.record_extra(&JournalOp::EventDone { seq });
        }
    }

    /// Runs collected `exec`/`notify` invocations through the script
    /// executor, in order: inline runs feed their messages straight back
    /// into the queue; detached runs are journaled as in-flight and handed
    /// to the worker pool, their results coming back through the harvest
    /// in this same dispatch order.
    fn dispatch_invocations(
        &mut self,
        invocations: Vec<ScriptInvocation>,
        report: &mut ProcessReport,
    ) -> Result<(), EngineError> {
        for invocation in invocations {
            let id = self.next_invoke_id;
            self.next_invoke_id += 1;
            self.dispatch_one(id, invocation, report)?;
        }
        Ok(())
    }

    /// Dispatches one invocation under a fixed id (recovery re-dispatch
    /// reuses the id the crashed run was journaled under).
    fn dispatch_one(
        &mut self,
        id: u64,
        invocation: ScriptInvocation,
        report: &mut ProcessReport,
    ) -> Result<(), EngineError> {
        let queued_op = self.durability.is_some().then(|| JournalOp::InvokeQueued {
            id,
            script: invocation.script.clone(),
            args: invocation.args.clone(),
            notify: invocation.notify,
            origin: invocation.origin.clone(),
            event: invocation.event.clone(),
        });
        if let Some(op) = &queued_op {
            self.db.record_extra(op);
        }
        let prepared = {
            let mut ctx = ToolCtx {
                db: &mut self.db,
                workspace: &mut self.workspace,
                blueprint: &self.blueprint,
                audit: &mut self.audit,
            };
            self.executor.prepare(&invocation, &mut ctx)
        };
        report.scripts += 1;
        match prepared {
            PreparedRun::Inline(messages) => {
                // Queued and completed travel in one flush batch: an
                // inline run never appears in-flight after recovery.
                if self.durability.is_some() {
                    self.db.record_extra(&JournalOp::InvokeCompleted { id });
                }
                for message in messages {
                    report.emitted += 1;
                    self.enqueue_lenient(&message, &invocation.script)?;
                }
            }
            PreparedRun::Detached(job) => {
                if let Some(op) = queued_op {
                    self.in_flight_ops.insert(id, op);
                }
                self.invoker.submit(
                    id,
                    &invocation.script,
                    &invocation.origin,
                    &invocation.event,
                    job,
                );
            }
        }
        Ok(())
    }

    /// Harvests terminal detached invocations (submission order, see
    /// [`crate::engine::invoke`]) and feeds them back: a completion
    /// journals `InvokeCompleted` and enqueues its result messages; an
    /// exhausted retry budget journals `InvokeFailed` and surfaces as a
    /// `tool_failed` event at the invocation's origin (args: script,
    /// attempts, reason) so blueprints can react to it like any other
    /// design event.
    fn absorb_finished(&mut self, report: &mut ProcessReport) -> Result<(), EngineError> {
        // Fold the pool's cumulative fault counters into the audit log as
        // allocation-free notes, so a retry/timeout storm shows up in
        // `audit` counters even with retention off.
        let stats = self.invoker.stats();
        let (seen_retries, seen_timeouts) = self.seen_invoke_faults;
        for _ in seen_retries..stats.retried {
            self.audit.note(AuditKind::InvokeRetried);
        }
        for _ in seen_timeouts..stats.timed_out {
            self.audit.note(AuditKind::InvokeTimedOut);
        }
        self.seen_invoke_faults = (stats.retried, stats.timed_out);
        for fin in self.invoker.harvest() {
            self.in_flight_ops.remove(&fin.id);
            let FinishedInvocation {
                id,
                script,
                origin,
                outcome,
                ..
            } = fin;
            if self.trace.enabled() {
                let (attempts, ok) = match &outcome {
                    InvokeOutcome::Completed { attempts, .. } => (*attempts, true),
                    InvokeOutcome::Failed { attempts, .. } => (*attempts, false),
                };
                self.trace.push(TraceRecord::Settle {
                    script: script.clone(),
                    attempts: u64::from(attempts),
                    ok,
                });
            }
            match outcome {
                InvokeOutcome::Completed { messages, .. } => {
                    if self.durability.is_some() {
                        self.db.record_extra(&JournalOp::InvokeCompleted { id });
                    }
                    for message in messages {
                        report.emitted += 1;
                        self.enqueue_lenient(&message, &script)?;
                    }
                }
                InvokeOutcome::Failed { attempts, reason } => {
                    self.audit.note(AuditKind::InvokeExhausted);
                    if self.durability.is_some() {
                        self.db.record_extra(&JournalOp::InvokeFailed {
                            id,
                            attempts: u64::from(attempts),
                            reason: reason.clone(),
                        });
                    }
                    // An unparseable origin (never produced by the rule
                    // engine) has nowhere to land; the journal record
                    // above still documents the failure.
                    if let Ok(target) = origin.parse::<Oid>() {
                        let message = EventMessage::new("tool_failed", Direction::Up, target)
                            .with_arg(script.clone())
                            .with_arg(attempts.to_string())
                            .with_arg(reason);
                        report.emitted += 1;
                        self.enqueue_lenient(&message, &script)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Accepts one resolved event into the queue. With journaling on, the
    /// event is stamped with the next durable sequence number and its
    /// `EventQueued` work record enters the op buffer *before* the event
    /// enters the in-memory queue — so an acknowledged post survives a
    /// crash and is replayed on recovery.
    fn accept_event(&mut self, mut ev: QueuedEvent) {
        if self.durability.is_some() {
            let seq = self.next_event_seq;
            self.next_event_seq += 1;
            ev.seq = Some(seq);
            if let Some(op) = event_queued_op(&self.db, &ev) {
                self.db.record_extra(&op);
            }
        }
        self.queue.enqueue(ev);
    }

    /// Enqueues a message; unknown targets are dropped under lenient
    /// policies (a wrapper may race a deletion) and rejected under strict
    /// ones.
    fn enqueue_lenient(&mut self, message: &EventMessage, user: &str) -> Result<(), EngineError> {
        match QueuedEvent::from_message(&self.db, message, user) {
            Ok(ev) => {
                self.accept_event(ev);
                Ok(())
            }
            Err(MetaError::UnknownOid { .. })
                if self.engine.policy.unknown_views != Strictness::Reject =>
            {
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Re-animates the accepted-but-unfinished work a recovered journal
    /// carried: pending events return to the queue (and are re-journaled
    /// into the fresh epoch), in-flight invocations re-dispatch through
    /// the executor under their original ids — the at-least-once half of
    /// the durable work queue. Targets that no longer resolve are dropped,
    /// mirroring the lenient enqueue.
    fn restore_pending_work(&mut self, pending: journal::PendingWork) -> Result<(), EngineError> {
        self.next_event_seq = self.next_event_seq.max(pending.next_event_seq);
        self.next_invoke_id = self.next_invoke_id.max(pending.next_invoke_id);
        for op in pending.events {
            let JournalOp::EventQueued {
                seq,
                event,
                direction,
                propagate,
                target,
                args,
                user,
            } = op
            else {
                continue;
            };
            let Some(id) = self.db.resolve(&target) else {
                continue;
            };
            let ev = QueuedEvent {
                event,
                direction: if direction == "down" {
                    Direction::Down
                } else {
                    Direction::Up
                },
                delivery: if propagate {
                    Delivery::PropagateFrom(id)
                } else {
                    Delivery::Target(id)
                },
                args,
                user,
                seq: Some(seq),
            };
            if let Some(op) = event_queued_op(&self.db, &ev) {
                self.db.record_extra(&op);
            }
            self.queue.enqueue(ev);
        }
        let mut report = ProcessReport::default();
        for op in pending.invocations {
            let JournalOp::InvokeQueued {
                id,
                script,
                args,
                notify,
                origin,
                event,
            } = op
            else {
                continue;
            };
            let invocation = ScriptInvocation {
                script,
                args,
                notify,
                origin,
                event,
            };
            self.dispatch_one(id, invocation, &mut report)?;
        }
        self.journal_sync(None)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::exec::RecordingExecutor;

    const SIMPLE: &str = r#"
        blueprint simple
        view default
            property uptodate default true
            when ckin do uptodate = true; post outofdate down done
            when outofdate do uptodate = false done
        endview
        view HDL_model
            property sim_result default bad
            when hdl_sim do sim_result = $arg done
        endview
        view schematic
            link_from HDL_model move propagates outofdate type derived
            use_link move propagates outofdate
            when ckin do exec netlister "$oid" done
        endview
        endblueprint
    "#;

    #[test]
    fn from_source_validates() {
        assert!(ProjectServer::from_source(SIMPLE).is_ok());
        let broken = "blueprint b view a endview view a endview endblueprint";
        assert!(matches!(
            ProjectServer::from_source(broken),
            Err(EngineError::Invalid { .. })
        ));
    }

    #[test]
    fn checkin_queues_and_processes_ckin() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        assert_eq!(server.pending_events(), 1);
        let report = server.process_all().unwrap();
        assert_eq!(report.events, 1);
        assert_eq!(server.pending_events(), 0);
        assert_eq!(server.prop(&hdl, "uptodate").unwrap(), Value::Bool(true));
        assert_eq!(server.prop(&hdl, "owner").unwrap().as_atom(), "yves");
    }

    #[test]
    fn post_line_accepts_wire_format() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        server.process_all().unwrap();
        server
            .post_line(&format!("postEvent hdl_sim up {hdl} \"good\""), "simwrap")
            .unwrap();
        server.process_all().unwrap();
        assert_eq!(server.prop(&hdl, "sim_result").unwrap().as_atom(), "good");
    }

    #[test]
    fn change_propagates_to_derived_views() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        let sch = server
            .checkin("cpu", "schematic", "synth", b"s1".to_vec())
            .unwrap();
        server.connect_oids(&hdl, &sch).unwrap();
        server.process_all().unwrap();
        assert_eq!(server.prop(&sch, "uptodate").unwrap(), Value::Bool(true));

        server
            .checkin("cpu", "HDL_model", "yves", b"v2".to_vec())
            .unwrap();
        server.process_all().unwrap();
        assert_eq!(server.prop(&sch, "uptodate").unwrap(), Value::Bool(false));
    }

    #[test]
    fn executor_receives_exec_invocations() {
        let bp = parser::parse(SIMPLE).unwrap();
        let mut server = ProjectServer::with_executor(bp, RecordingExecutor::new()).unwrap();
        server
            .checkin("cpu", "schematic", "yves", b"s1".to_vec())
            .unwrap();
        server.process_all().unwrap();
        assert_eq!(server.executor().invocations_of("netlister").len(), 1);
    }

    #[test]
    fn executor_replies_are_fed_back() {
        let bp = parser::parse(SIMPLE).unwrap();
        let mut exec = RecordingExecutor::new();
        // When the netlister runs, it reports an hdl_sim result for the HDL
        // model (contrived, but exercises the feedback loop).
        exec.reply_with(
            "netlister",
            vec!["postEvent hdl_sim up cpu,HDL_model,1 \"good\""
                .parse()
                .unwrap()],
        );
        let mut server = ProjectServer::with_executor(bp, exec).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        server
            .checkin("cpu", "schematic", "yves", b"s1".to_vec())
            .unwrap();
        let report = server.process_all().unwrap();
        assert_eq!(report.scripts, 1);
        assert_eq!(report.emitted, 1);
        assert_eq!(server.prop(&hdl, "sim_result").unwrap().as_atom(), "good");
    }

    #[test]
    fn frozen_view_rejects_checkin() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        server.policy_mut().frozen_views.insert("schematic".into());
        let err = server
            .checkin("cpu", "schematic", "yves", b"s1".to_vec())
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Policy(PolicyViolation::FrozenView { .. })
        ));
    }

    #[test]
    fn reinit_swaps_blueprint_keeping_data() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        server.process_all().unwrap();
        // Loosened blueprint: outofdate propagation removed.
        server
            .reinit_from_source(
                r#"blueprint loose
                view default
                    property uptodate default true
                endview
                view HDL_model endview
                view schematic endview
                endblueprint"#,
            )
            .unwrap();
        assert_eq!(server.blueprint().name, "loose");
        // Data survived.
        assert!(server.prop(&hdl, "uptodate").is_some());
        // Bad blueprint: reinit fails, old one stays.
        let err =
            server.reinit_from_source("blueprint x view a endview view a endview endblueprint");
        assert!(err.is_err());
        assert_eq!(server.blueprint().name, "loose");
    }

    #[test]
    fn concurrent_wrappers_post_through_sender() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        server.process_all().unwrap();
        let sender = server.sender();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tx = sender.clone();
                let oid = hdl.clone();
                std::thread::spawn(move || {
                    tx.send(crate::engine::queue::Posted {
                        message: EventMessage::new("hdl_sim", Direction::Up, oid)
                            .with_arg(format!("run {i}")),
                        user: format!("sim{i}"),
                    })
                    .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = server.process_all().unwrap();
        assert_eq!(report.events, 4);
        // Last writer wins; any of the four is acceptable, but one landed.
        assert!(server
            .prop(&hdl, "sim_result")
            .unwrap()
            .as_atom()
            .starts_with("run "));
    }

    #[test]
    fn runaway_guard_trips() {
        // Self-feeding executor: every netlister run checks in two new
        // schematics, each of which runs the netlister again, forever.
        #[derive(Debug, Default)]
        struct SelfFeeding;
        impl ScriptExecutor for SelfFeeding {
            fn execute(
                &mut self,
                _inv: &crate::engine::exec::ScriptInvocation,
                ctx: &mut ToolCtx<'_>,
            ) -> Vec<EventMessage> {
                ["cpu", "alu"]
                    .into_iter()
                    .map(|block| {
                        let (_, oid) = ctx
                            .create_versioned(block, "schematic", "netlister", b"n".to_vec())
                            .unwrap();
                        EventMessage::new("ckin", Direction::Up, oid)
                    })
                    .collect()
            }
        }
        let bp = parser::parse(SIMPLE).unwrap();
        let mut server = ProjectServer::with_executor(bp, SelfFeeding).unwrap();
        server.max_events_per_drain = 50;
        server
            .checkin("cpu", "schematic", "yves", b"s1".to_vec())
            .unwrap();
        let err = server.process_all().unwrap_err();
        assert!(matches!(err, EngineError::Runaway { processed: 50 }));
        // 1 + 2 × 50 events queued, 50 processed: the guard trips before
        // taking the 51st, which stays queued.
        assert_eq!(server.pending_events(), 51);
    }

    #[test]
    fn adopt_project_invalidates_view_dispatch_cache() {
        // Two views with opposite rules for the same event; the adopted
        // database interns the view names in the OPPOSITE order, so a
        // stale per-view dispatch cache would run alpha's rule on beta.
        let mut server = ProjectServer::from_source(
            r#"blueprint cache
            view alpha
                when ping do mark = from_alpha done
            endview
            view beta
                when ping do mark = from_beta done
            endview
            endblueprint"#,
        )
        .unwrap();
        let a = Oid::new("blk", "alpha", 1);
        let b = Oid::new("blk", "beta", 1);
        server.create_object(a.clone()).unwrap();
        server.create_object(b.clone()).unwrap();
        // Warm the cache for both view symbols (alpha=0, beta=1 here).
        server
            .post_line("postEvent ping up blk,alpha,1", "t")
            .unwrap();
        server
            .post_line("postEvent ping up blk,beta,1", "t")
            .unwrap();
        server.process_all().unwrap();
        assert_eq!(server.prop(&a, "mark").unwrap().as_atom(), "from_alpha");

        // Adopted database interns beta FIRST (beta=0, alpha=1).
        let mut db = MetaDb::new();
        db.create_oid(b.clone()).unwrap();
        db.create_oid(a.clone()).unwrap();
        server.adopt_project(db, Workspace::new("adopted"));
        server
            .post_line("postEvent ping up blk,beta,1", "t")
            .unwrap();
        server
            .post_line("postEvent ping up blk,alpha,1", "t")
            .unwrap();
        server.process_all().unwrap();
        assert_eq!(
            server.prop(&b, "mark").unwrap().as_atom(),
            "from_beta",
            "stale view cache served alpha's dispatch table for beta"
        );
        assert_eq!(server.prop(&a, "mark").unwrap().as_atom(), "from_alpha");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("damocles-srv-journal-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_checkpoint_recover_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        server.enable_journal(&dir, 10_000).unwrap();
        assert!(server.journal_enabled());
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        let sch = server
            .checkin("cpu", "schematic", "synth", b"s1".to_vec())
            .unwrap();
        server.connect_oids(&hdl, &sch).unwrap();
        server.process_all().unwrap();
        assert!(server.journal_records().unwrap() > 0, "ops were journaled");
        let image_before = damocles_meta::persist::save(server.db());

        // A fresh server recovers the whole project from snapshot + tail.
        let mut crashed = ProjectServer::from_source(SIMPLE).unwrap();
        let report = crashed.recover_journal(&dir, 10_000).unwrap();
        assert!(report.replayed_ops > 0, "{report:?}");
        assert_eq!(
            damocles_meta::persist::save(crashed.db()),
            image_before,
            "recovered image matches the pre-crash database byte-for-byte"
        );
        // Payloads came back through the journal's data records.
        let id = crashed.resolve(&hdl).unwrap();
        assert_eq!(
            crashed.workspace().datum(id).unwrap().content,
            b"v1".to_vec()
        );
        // And tracking continues: a new HDL version invalidates the
        // recovered schematic.
        crashed
            .checkin("cpu", "HDL_model", "yves", b"v2".to_vec())
            .unwrap();
        crashed.process_all().unwrap();
        assert_eq!(crashed.prop(&sch, "uptodate").unwrap(), Value::Bool(false));
    }

    #[test]
    fn checkpoint_policy_folds_every_n_ops() {
        let dir = temp_dir("fold");
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        let epoch0 = server.enable_journal(&dir, 8).unwrap();
        for i in 0..6 {
            server
                .checkin("cpu", "HDL_model", "yves", format!("v{i}").into_bytes())
                .unwrap();
            server.process_all().unwrap();
        }
        let epoch = server.journal_epoch().unwrap();
        assert!(epoch > epoch0, "auto-checkpoint advanced the epoch");
        // After a fold the journal restarts small.
        assert!(server.journal_records().unwrap() < 8 * 6);
        // Explicit checkpoint empties it entirely and still recovers.
        server.checkpoint().unwrap();
        assert_eq!(server.journal_records().unwrap(), 0);
        let image = damocles_meta::persist::save(server.db());
        let mut fresh = ProjectServer::from_source(SIMPLE).unwrap();
        fresh.recover_journal(&dir, 8).unwrap();
        assert_eq!(damocles_meta::persist::save(fresh.db()), image);
    }

    /// The tail hub's record lines of the current epoch, from sequence 0.
    fn hub_lines(server: &ProjectServer) -> Vec<String> {
        use crate::engine::tail::{TailCursor, TailFrame};
        let hub = server.tail_hub();
        let (epoch, _) = hub.position().expect("journaling on");
        let mut cursor = TailCursor { epoch, seq: 0 };
        hub.next_frames(&mut cursor, Duration::from_millis(1))
            .unwrap()
            .into_iter()
            .filter_map(|frame| match frame {
                TailFrame::Record { line, .. } => Some(line),
                _ => None,
            })
            .collect()
    }

    /// The journal file's record lines (header skipped, newlines cut).
    fn file_lines(dir: &Path) -> Vec<String> {
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        text.lines().skip(1).map(str::to_string).collect()
    }

    #[test]
    fn hub_records_are_the_journal_file_bytes() {
        let dir = temp_dir("shared-bytes");
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        server.enable_journal(&dir, 10_000).unwrap();
        server.set_group_commit(true).unwrap();
        let hdl = server
            .checkin("cpu", "HDL_model", "yves", b"v1 \n%".to_vec())
            .unwrap();
        // An empty payload ends its `data` record in a space.
        let sch = server
            .checkin("cpu", "schematic", "synth", Vec::new())
            .unwrap();
        server.connect_oids(&hdl, &sch).unwrap();
        server.flush_journal().unwrap();
        let flushed = file_lines(&dir);
        assert!(flushed.iter().any(|l| l.ends_with(' ')), "{flushed:?}");
        assert_eq!(hub_lines(&server), flushed);

        // The check-ins' `ckin` events are still queued, so the
        // checkpoint re-seeds the fresh journal with their `evq` records.
        server.checkpoint().unwrap();
        let reseeded = file_lines(&dir);
        assert_eq!(reseeded.len(), 2, "{reseeded:?}");
        assert!(reseeded.iter().all(|l| l.contains(" evq ")), "{reseeded:?}");
        assert_eq!(hub_lines(&server), reseeded);

        // The recorder was re-based with the fresh journal and recorded
        // the re-seed itself: the next flush continues at the carried
        // count.
        server.process_all().unwrap();
        server.flush_journal().unwrap();
        let continued = file_lines(&dir);
        assert_eq!(continued[..2], reseeded[..]);
        assert!(continued.len() > 2, "{continued:?}");
        for (seq, line) in continued.iter().enumerate() {
            damocles_meta::journal::decode_record(line, seq as u64)
                .unwrap_or_else(|e| panic!("record {seq}: {e}"));
        }
        assert_eq!(hub_lines(&server), continued);
        assert_eq!(server.journal_records(), Some(continued.len() as u64));
    }

    #[test]
    fn checkpoint_without_journal_errors() {
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        assert!(matches!(
            server.checkpoint(),
            Err(EngineError::Journal { .. })
        ));
        assert!(!server.journal_enabled());
    }

    #[test]
    fn torn_journal_tail_recovers_prefix() {
        let dir = temp_dir("torn");
        let mut server = ProjectServer::from_source(SIMPLE).unwrap();
        server.enable_journal(&dir, 10_000).unwrap();
        server
            .checkin("cpu", "HDL_model", "yves", b"v1".to_vec())
            .unwrap();
        server.process_all().unwrap();
        // Simulate a crash mid-append: chop bytes off the journal tail.
        let jpath = dir.join("journal.djl");
        let bytes = std::fs::read(&jpath).unwrap();
        std::fs::write(&jpath, &bytes[..bytes.len() - 11]).unwrap();
        let mut crashed = ProjectServer::from_source(SIMPLE).unwrap();
        let report = crashed.recover_journal(&dir, 10_000).unwrap();
        assert!(report.torn_tail.is_some(), "{report:?}");
        // The HDL object from the valid prefix survived.
        assert_eq!(crashed.db().oid_count(), 1);
    }

    #[test]
    fn lenient_drop_of_unknown_targets() {
        let bp = parser::parse(SIMPLE).unwrap();
        let mut exec = RecordingExecutor::new();
        exec.reply_with(
            "netlister",
            vec!["postEvent nl_sim down ghost,netlist,9".parse().unwrap()],
        );
        let mut server = ProjectServer::with_executor(bp, exec).unwrap();
        server
            .checkin("cpu", "schematic", "yves", b"s1".to_vec())
            .unwrap();
        // The ghost target is dropped, not an error.
        let report = server.process_all().unwrap();
        assert_eq!(report.emitted, 1);
        assert_eq!(report.events, 1);
    }
}

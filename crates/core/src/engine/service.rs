//! The project service: a [`ProjectServer`] behind the typed command
//! protocol, plus the session-based command loop that serializes many
//! concurrent clients onto the single engine and group-commits their
//! journal ops at batch boundaries.
//!
//! Three layers, innermost first:
//!
//! * [`ProjectService`] — a single-threaded interpreter: one
//!   [`Request`] in, one [`Response`] out. Owns the (optional, until
//!   `Init`) server and the named snapshot [`Configuration`]s, so every
//!   client surface shares the same semantics.
//! * [`spawn_project_loop`] — moves a service onto a dedicated thread
//!   behind an mpsc command queue. [`ProjectHandle::session`] hands out
//!   [`SessionId`]-tagged [`ClientSession`]s; their requests are drained
//!   in arrival order, **executed as a batch, journaled with one
//!   append+fsync, and only then replied to**. A reply in hand means the
//!   effect is durable (when journaling is enabled). The window is
//!   adaptive: a batch is the backlog queued when it forms (at most
//!   [`MAX_GROUP_COMMIT_WINDOW`]), so an idle client pays one fsync per
//!   request and a burst shares one fsync. `CommitWindow` holds the
//!   rule that settles a window's replies. One loop body runs it for
//!   this loop and for the replication follower
//!   ([`crate::engine::follower`]), whose handle and sessions are these
//!   same types over the follower's inbox message; the fleet worker
//!   ([`crate::engine::fleet`]) runs the same batches and windows, one
//!   window per resident project.
//! * [`serve_listener`] — a minimal line-framed TCP front door: one
//!   request line in, one response line out, in the [`Request`] /
//!   [`Response`] text codec (raw §3.1 `postEvent` lines are accepted
//!   too), so external wrapper processes post events over the network
//!   exactly as the paper describes.
//!
//! # Crash semantics of the group-commit window
//!
//! While a batch executes, its journal ops buffer in memory; the on-disk
//! journal still ends at the previous batch boundary. A crash inside the
//! window therefore loses the whole un-acked batch and nothing else:
//! recovery replays a valid prefix that ends exactly at a batch boundary.
//! Clients that have not received a reply must treat their request as
//! not-happened — which is precisely what the reply-after-fsync ordering
//! guarantees.
//!
//! Scope: the guarantee covers **state mutations** (objects, properties,
//! links, payloads) **and accepted work**. A [`Request::Post`] ack means
//! the event was journaled as accepted (an `EventQueued` record hits the
//! disk before the reply goes out); recovery re-enqueues every accepted
//! event with no matching `EventDone`, and re-dispatches every journaled
//! tool invocation with no terminal record. Replay is at-least-once: an
//! event whose effects committed in the same batch as its `EventDone`
//! marker is never re-run, while a crash between batch boundaries
//! re-runs the event — safe, because posts are idempotent
//! last-writer-wins property updates in the paper's flows.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use damocles_meta::qlang::Query;
use damocles_meta::{
    dump, journal, persist, Configuration, ConfigurationBuilder, EventMessage, SnapshotRule, Value,
};

use crate::engine::api::{
    ApiError, AuditCounters, NodeRole, Request, Response, ServerStat, SessionId, SnapshotInfo,
    SummaryRow, TraceMode, WorkLeftItem,
};
use crate::engine::error::EngineError;
use crate::engine::exec::{NullExecutor, ScriptExecutor};
use crate::engine::invoke::RetryPolicy;
use crate::engine::server::ProjectServer;
use crate::engine::tail::{TailCursor, TailEnded, TailHub};
use crate::engine::trace::TraceRecord;
use crate::lang::parser;

/// A [`ProjectServer`] (plus client-visible snapshot configurations)
/// driven entirely through [`Request`] / [`Response`] — the one
/// interpreter every front-end shares.
#[derive(Debug)]
pub struct ProjectService<E: ScriptExecutor = NullExecutor> {
    server: Option<ProjectServer<E>>,
    snapshots: BTreeMap<String, Configuration>,
    /// Group-commit mode, inherited by servers created via `Init`.
    group_commit: bool,
    /// The retry policy last set for each script (`None` = the default
    /// policy), re-applied to servers created via `Init` — like
    /// group-commit mode, a policy outlives the server it was set on.
    retry_policies: BTreeMap<Option<String>, RetryPolicy>,
    /// The replication tail hub, shared across `Init` server swaps so a
    /// tailer's subscription survives by address (it observes a
    /// disable/enable cycle instead of dangling).
    tail: Arc<TailHub>,
}

impl Default for ProjectService<NullExecutor> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: ScriptExecutor + Default> ProjectService<E> {
    /// A service with no blueprint loaded yet (`Init` must come first).
    pub fn new() -> Self {
        ProjectService {
            server: None,
            snapshots: BTreeMap::new(),
            group_commit: false,
            retry_policies: BTreeMap::new(),
            tail: Arc::new(TailHub::new()),
        }
    }

    /// A service wrapping an existing server. The server's tail hub is
    /// adopted by the service, so subscriptions opened before wrapping
    /// stay live.
    pub fn with_server(server: ProjectServer<E>) -> Self {
        let tail = server.tail_hub();
        let (default_policy, overrides) = server.retry_policies();
        let retry_policies = std::iter::once((None, default_policy))
            .chain(overrides.into_iter().map(|(s, p)| (Some(s), p)))
            .collect();
        ProjectService {
            server: Some(server),
            snapshots: BTreeMap::new(),
            group_commit: false,
            retry_policies,
            tail,
        }
    }

    /// Sets a retry policy on the current server and on any server a
    /// later `Init` creates; `script: None` sets the default policy.
    pub fn set_retry_policy(&mut self, script: Option<&str>, policy: RetryPolicy) {
        self.retry_policies
            .insert(script.map(str::to_string), policy);
        if let Some(server) = self.server.as_mut() {
            server.set_retry_policy(script, policy);
        }
    }

    /// How many detached tool invocations are in flight right now (zero
    /// without a server). The command loop polls this to decide whether
    /// to pump between client requests.
    pub fn invocations_in_flight(&self) -> usize {
        self.server
            .as_ref()
            .map_or(0, ProjectServer::invocations_in_flight)
    }

    /// The replication tail hub clients subscribe to (see
    /// [`crate::engine::tail`]). Stable across `Init` server swaps.
    pub fn tail_hub(&self) -> Arc<TailHub> {
        Arc::clone(&self.tail)
    }

    /// The server, if a blueprint has been loaded.
    pub fn server(&self) -> Option<&ProjectServer<E>> {
        self.server.as_ref()
    }

    /// Mutable server access (tests; prefer requests).
    pub fn server_mut(&mut self) -> Option<&mut ProjectServer<E>> {
        self.server.as_mut()
    }

    /// Enters or leaves group-commit mode (see
    /// [`ProjectServer::set_group_commit`]); the command loop turns this
    /// on and calls [`ProjectService::flush`] once per batch. Leaving the
    /// mode flushes.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] from the flush when leaving the mode.
    pub fn set_group_commit(&mut self, on: bool) -> Result<(), EngineError> {
        self.group_commit = on;
        match self.server.as_mut() {
            Some(s) => s.set_group_commit(on),
            None => Ok(()),
        }
    }

    /// Whether a server exists and has durability enabled.
    pub fn journaling(&self) -> bool {
        self.server.as_ref().is_some_and(|s| s.journal_enabled())
    }

    /// Takes (and clears) the server's journal-poison marker: `true` when
    /// a journal failure disabled durability since the last call (see
    /// [`ProjectServer::take_journal_poisoned`]). [`CommitWindow`]
    /// consumes this per group-commit window.
    pub(crate) fn take_journal_poisoned(&mut self) -> bool {
        self.server
            .as_mut()
            .is_some_and(ProjectServer::take_journal_poisoned)
    }

    /// Appends and fsyncs every journal op buffered since the last flush —
    /// the group-commit point. No-op without journaling.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] on append/sync failures (durability is
    /// poisoned, exactly as for per-op syncs).
    pub fn flush(&mut self) -> Result<(), EngineError> {
        match self.server.as_mut() {
            Some(s) => s.flush_journal(),
            None => Ok(()),
        }
    }

    /// Executes one request. Never panics and never returns `Err` — every
    /// failure is a structured [`Response::Error`].
    ///
    /// Barrier requests ([`Request::is_barrier`]) flush the group-commit
    /// window first: they swap or re-base durable state and must see a
    /// journal that matches the database.
    pub fn call(&mut self, request: Request) -> Response {
        if request.is_barrier() {
            if let Err(e) = self.flush() {
                return Response::Error(e.into());
            }
        }
        match self.dispatch(request) {
            Ok(resp) => resp,
            Err(e) => Response::Error(e),
        }
    }

    fn need(&mut self) -> Result<&mut ProjectServer<E>, ApiError> {
        self.server.as_mut().ok_or(ApiError::NoProject)
    }

    // By value so a large `Checkin` payload moves straight into the
    // workspace instead of being copied per request on the command
    // loop's hot path.
    fn dispatch(&mut self, request: Request) -> Result<Response, ApiError> {
        // The fencing choke point: a deposed server refuses every
        // mutation as stale-term so it can never dual-commit against the
        // reign that replaced it. Reads still answer (the node is a
        // perfectly good stale replica), and `Promote`/`Fence` pass
        // through — promotion under a higher term is how a fence lifts,
        // and a re-fence must report its own term comparison.
        if request.is_mutation()
            && !matches!(request, Request::Promote { .. } | Request::Fence { .. })
        {
            if let Some(server) = self.server.as_ref() {
                if let Some(fence) = server.fenced_by() {
                    return Err(ApiError::StaleTerm {
                        term: server.current_term(),
                        current: fence,
                    });
                }
            }
        }
        match request {
            Request::Init { source } => {
                let bp = parser::parse(&source).map_err(EngineError::Parse)?;
                let mut server = ProjectServer::with_executor(bp, E::default())?;
                let _ = server.set_group_commit(self.group_commit);
                for (script, policy) in &self.retry_policies {
                    server.set_retry_policy(script.as_deref(), *policy);
                }
                // The fresh server starts un-journaled: live tail
                // subscriptions observe the disable (and a later
                // re-enable bootstraps them against the new project).
                self.tail.publish_disable();
                server.set_tail_hub(Arc::clone(&self.tail));
                let name = server.blueprint().name.clone();
                self.server = Some(server);
                Ok(Response::Blueprint { name })
            }
            Request::Reinit { source } => {
                let server = self.need()?;
                server.reinit_from_source(&source)?;
                Ok(Response::Blueprint {
                    name: server.blueprint().name.clone(),
                })
            }
            Request::Checkin {
                block,
                view,
                user,
                payload,
            } => {
                let oid = self.need()?.checkin(&block, &view, &user, payload)?;
                Ok(Response::Created { oid })
            }
            Request::Checkout { block, view, user } => {
                self.need()?.checkout(&block, &view, &user)?;
                Ok(Response::Ok)
            }
            Request::CreateObject { oid } => {
                self.need()?.create_object(oid.clone())?;
                Ok(Response::Created { oid })
            }
            Request::Connect { from, to } => {
                self.need()?.connect_oids(&from, &to)?;
                Ok(Response::Ok)
            }
            Request::Post { message, user } => {
                self.need()?.post(&message, &user)?;
                Ok(Response::Ok)
            }
            Request::ProcessAll => {
                // The non-blocking drain: every queued event executes,
                // already-finished detached invocations are absorbed, but
                // the service never parks waiting on the worker pool —
                // that would wedge the command loop behind a slow tool.
                // Still-running invocations post back through later
                // pumps (the command loop issues them while idle).
                let report = self.need()?.process_round()?;
                Ok(report.into())
            }
            Request::RefreshLets => {
                let written = self.need()?.refresh_lets()?;
                Ok(Response::Refreshed { written })
            }
            Request::Query { terms } => {
                let query: Query = terms.parse().map_err(EngineError::Meta)?;
                let server = self.need()?;
                let mut oids = Vec::new();
                for id in query.run(server.db()) {
                    oids.push(server.db().oid(id).map_err(EngineError::Meta)?.clone());
                }
                Ok(Response::Hits { oids })
            }
            Request::Show { oid } => {
                let server = self.need()?;
                let id = server.resolve(&oid)?;
                let props: Vec<(String, Value)> = server
                    .db()
                    .props(id)
                    .map_err(EngineError::Meta)?
                    .iter()
                    .map(|(name, value)| (name.to_string(), value.clone()))
                    .collect();
                Ok(Response::Props { oid, props })
            }
            Request::WorkLeft { oid, prop } => {
                let server = self.need()?;
                let id = server.resolve(&oid)?;
                let items = server
                    .query()
                    .work_remaining(id, &prop)
                    .map_err(EngineError::Meta)?
                    .into_iter()
                    .map(|item| WorkLeftItem {
                        oid: item.oid,
                        prop: item.blocking.0,
                        current: item.blocking.1,
                    })
                    .collect();
                Ok(Response::Work { target: oid, items })
            }
            Request::Summary { prop } => {
                let rows = self
                    .need()?
                    .query()
                    .summary(&prop)
                    .into_iter()
                    .map(|s| SummaryRow {
                        view: s.view,
                        total: s.total as u64,
                        satisfied: s.satisfied as u64,
                        untracked: s.untracked as u64,
                    })
                    .collect();
                Ok(Response::ViewSummary { rows })
            }
            Request::Snapshot { name, root } => {
                let server = self.need()?;
                let id = server.resolve(&root)?;
                let snap = ConfigurationBuilder::new(server.db())
                    .traverse(id, SnapshotRule::Closure)
                    .build(name.clone());
                let oids = snap.oid_count() as u64;
                self.snapshots.insert(name.clone(), snap);
                Ok(Response::Snapped { name, oids })
            }
            Request::ListSnapshots => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                let entries = self
                    .snapshots
                    .iter()
                    .map(|(name, snap)| SnapshotInfo {
                        name: name.clone(),
                        oids: snap.oid_count() as u64,
                        links: snap.link_count() as u64,
                        dangling: snap.dangling(server.db()) as u64,
                    })
                    .collect();
                Ok(Response::SnapshotList { entries })
            }
            Request::Freeze { view } => {
                self.need()?.policy_mut().frozen_views.insert(view);
                Ok(Response::Ok)
            }
            Request::Thaw { view } => {
                self.need()?.policy_mut().frozen_views.remove(&view);
                Ok(Response::Ok)
            }
            Request::EnableJournal { dir, every } => {
                let epoch = self.need()?.enable_journal(&dir, every)?;
                Ok(Response::Epoch { epoch })
            }
            Request::Promote { dir, every, term } => {
                // On a service-level node (a leader, or a test harness)
                // there is no replica cursor to floor the epoch with; the
                // on-disk epoch sequence already advances monotonically.
                // A follower loop calls `promote_journal` itself with the
                // cursor-derived floor before delegating here.
                let epoch = self.need()?.promote_journal(&dir, every, 0, term)?;
                Ok(Response::Promoted { epoch, term })
            }
            Request::Fence { term } => {
                self.need()?.fence_term(term)?;
                Ok(Response::Ok)
            }
            Request::Checkpoint => {
                let epoch = self.need()?.checkpoint()?;
                Ok(Response::Epoch { epoch })
            }
            Request::Recover { dir, every } => {
                let report = self.need()?.recover_journal(&dir, every)?;
                Ok(Response::Recovered {
                    epoch: report.epoch,
                    snapshot_oids: report.snapshot_oids as u64,
                    replayed_ops: report.replayed_ops as u64,
                    torn_tail: report.torn_tail,
                    stale_journal: report.stale_journal,
                })
            }
            Request::SaveProject { path } => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                match regular_file(&path) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
                    _ => journal::write_image_atomic(&path, server.db(), server.workspace(), None)
                        .map(drop),
                }
                .map_err(|e| ApiError::Io {
                    reason: format!("cannot write {path}: {e}"),
                })?;
                Ok(Response::Ok)
            }
            Request::LoadProject { path } => {
                let image = read_image(&path).map_err(|e| ApiError::Io {
                    reason: format!("cannot read {path}: {e}"),
                })?;
                let (db, workspace) = persist::load_project(&image).map_err(EngineError::Meta)?;
                let oids = db.oid_count() as u64;
                let server = self.need()?;
                server.adopt_project(db, workspace);
                if server.journal_enabled() {
                    // The on-disk journal described the replaced project;
                    // fold immediately so the crash window closes here.
                    server.checkpoint()?;
                }
                Ok(Response::Loaded { oids })
            }
            Request::Dump => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                Ok(Response::Text {
                    text: dump::dump(server.db()),
                })
            }
            Request::Dot => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                Ok(Response::Text {
                    text: dump::to_dot(server.db(), "uptodate"),
                })
            }
            Request::Audit => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                let s = server.audit().summary();
                Ok(Response::Audit {
                    counters: AuditCounters {
                        deliveries: s.deliveries,
                        assignments: s.assignments,
                        reevaluations: s.reevaluations,
                        scripts: s.scripts,
                        posts: s.posts,
                        propagations: s.propagations,
                        cycle_skips: s.cycle_skips,
                        depth_truncations: s.depth_truncations,
                        templates: s.templates,
                        invoke_retries: s.invoke_retries,
                        invoke_timeouts: s.invoke_timeouts,
                        invoke_exhaustions: s.invoke_exhaustions,
                    },
                })
            }
            Request::Stat => {
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                let inv = server.invoke_stats();
                Ok(Response::Stat {
                    stat: ServerStat {
                        oids: server.db().oid_count() as u64,
                        links: server.db().link_count() as u64,
                        pending_events: server.pending_events() as u64,
                        journal_epoch: server.journal_epoch(),
                        journal_records: server.journal_records(),
                        // Every wave runs inline; the field keeps its
                        // place on the wire.
                        wave_workers: 1,
                        pending_invocations: inv.pending,
                        running_invocations: inv.running,
                        retrying_invocations: inv.retrying,
                        failed_invocations: inv.failed,
                        cursor_epoch: server.journal_epoch().unwrap_or(0),
                        cursor_seq: server.journal_records().unwrap_or(0),
                        // Fleet gauges: a single-project service is not a
                        // fleet member; the fleet worker patches these four
                        // onto every `stat` reply it forwards.
                        active_projects: 0,
                        resident_projects: 0,
                        activations: 0,
                        evictions: 0,
                        term: server.current_term(),
                        // A service-level node serves mutations; the
                        // follower loop patches `Follower` onto replies
                        // it serves from a replica.
                        role: NodeRole::Leader,
                    },
                })
            }
            Request::SetRetryPolicy {
                script,
                max_retries,
                base_delay_ms,
                multiplier,
                timeout_ms,
            } => {
                let policy = RetryPolicy {
                    max_retries: max_retries.try_into().unwrap_or(u32::MAX),
                    base_delay: std::time::Duration::from_millis(base_delay_ms),
                    multiplier: multiplier.clamp(1, u64::from(u32::MAX)) as u32,
                    timeout: std::time::Duration::from_millis(timeout_ms),
                };
                self.set_retry_policy(script.as_deref(), policy);
                Ok(Response::Ok)
            }
            Request::PumpInvocations => {
                let report = self.need()?.process_round()?;
                Ok(report.into())
            }
            Request::Replay { epoch, seq } => {
                // Served from a scratch database read off the on-disk
                // journal files: the live image, queue and engine are
                // untouched (replay is a barrier only because it must see
                // a flushed journal).
                let (oids, image) = self.need()?.replay_at(epoch, seq)?;
                Ok(Response::Replayed {
                    epoch,
                    seq,
                    oids,
                    image,
                })
            }
            Request::Trace { mode } => {
                let server = self.need()?;
                match mode {
                    TraceMode::On => {
                        server.set_trace_retention(true);
                        Ok(Response::Ok)
                    }
                    TraceMode::Off => {
                        server.set_trace_retention(false);
                        Ok(Response::Ok)
                    }
                    TraceMode::Get => Ok(Response::Trace {
                        records: server
                            .take_trace()
                            .iter()
                            .map(TraceRecord::encode)
                            .collect(),
                    }),
                }
            }
            Request::TailFrom { .. } => {
                // The handshake half: report the committed stream
                // position. The record stream itself is transport-level —
                // the TCP front door switches the connection into tail
                // mode on a successful handshake (`serve_listener`).
                let server = self.server.as_ref().ok_or(ApiError::NoProject)?;
                match (server.journal_epoch(), server.journal_records()) {
                    (Some(epoch), Some(seq)) => Ok(Response::Tailing { epoch, seq }),
                    _ => Err(ApiError::Journal {
                        reason: "tail streaming requires journaling (enable a journal first)"
                            .to_string(),
                    }),
                }
            }
            // Fleet routing is the front door's job ([`fleet`]): by the
            // time an envelope reaches a project service it is already
            // pinned to one project, so these only arrive on
            // single-project nodes — where there is no fleet to attach to.
            Request::Attach { .. } | Request::ListProjects => Err(ApiError::NoFleet),
        }
    }
}

// ---------------------------------------------------------------------
// The command loop
// ---------------------------------------------------------------------

/// One queued command: the session it came from, the request, and where
/// the reply goes.
#[derive(Debug)]
pub struct Envelope {
    /// The submitting session.
    pub session: SessionId,
    /// The command.
    pub request: Request,
    reply: Sender<Response>,
}

impl Envelope {
    /// Builds an envelope for a hand-rolled command queue (tests,
    /// custom harnesses); [`ClientSession::submit`] is the normal path.
    pub fn new(session: SessionId, request: Request, reply: Sender<Response>) -> Self {
        Envelope {
            session,
            request,
            reply,
        }
    }

    /// Consumes the envelope, sending its reply — for routers that answer
    /// without forwarding (the fleet). A gone client is not an error.
    pub fn respond(self, response: Response) {
        let _ = self.reply.send(response);
    }

    /// Splits the envelope into its parts — for loops outside this module
    /// (the fleet, the follower) that run the request in a window.
    pub fn into_parts(self) -> (SessionId, Request, Sender<Response>) {
        (self.session, self.request, self.reply)
    }
}

/// A cloneable handle to a running command loop; every client surface
/// (shell adapter, TCP connection, test) opens sessions through it. `M`
/// is the loop's inbox message: [`Envelope`] for the dedicated loop,
/// [`FollowerMsg`](crate::engine::follower::FollowerMsg) for a follower.
#[derive(Debug)]
pub struct ProjectHandle<M = Envelope> {
    pub(crate) tx: Sender<M>,
    next_session: Arc<AtomicU64>,
    tail: Arc<TailHub>,
}

impl<M> Clone for ProjectHandle<M> {
    fn clone(&self) -> Self {
        ProjectHandle {
            tx: self.tx.clone(),
            next_session: Arc::clone(&self.next_session),
            tail: Arc::clone(&self.tail),
        }
    }
}

impl<M: From<Envelope>> ProjectHandle<M> {
    /// Opens a new tagged session.
    pub fn session(&self) -> ClientSession<M> {
        ClientSession {
            id: SessionId(self.next_session.fetch_add(1, Ordering::Relaxed)),
            tx: self.tx.clone(),
        }
    }

    /// The loop's replication tail hub — what a `tailfrom` connection
    /// streams from.
    pub fn tail_hub(&self) -> Arc<TailHub> {
        Arc::clone(&self.tail)
    }
}

/// One client session at a command loop. Requests from all sessions are
/// serialized in arrival order; each session's own requests stay ordered.
/// `M` is the loop's inbox message, as for [`ProjectHandle`].
#[derive(Debug)]
pub struct ClientSession<M = Envelope> {
    id: SessionId,
    tx: Sender<M>,
}

impl<M> Clone for ClientSession<M> {
    fn clone(&self) -> Self {
        ClientSession {
            id: self.id,
            tx: self.tx.clone(),
        }
    }
}

impl<M: From<Envelope>> ClientSession<M> {
    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Submits a request without waiting; the returned receiver yields
    /// the response once the loop has executed **and journaled** it.
    /// Pipelining submissions is how one client fills a group-commit
    /// batch.
    pub fn submit(&self, request: Request) -> Receiver<Response> {
        let (reply, rx) = unbounded();
        let gone = self
            .tx
            .send(M::from(Envelope {
                session: self.id,
                request,
                reply: reply.clone(),
            }))
            .is_err();
        if gone {
            let _ = reply.send(Response::Error(loop_gone()));
        }
        rx
    }

    /// Submits a request and waits for its response.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request)
            .recv()
            .unwrap_or_else(|| Response::Error(loop_gone()))
    }
}

pub(crate) fn loop_gone() -> ApiError {
    ApiError::Io {
        reason: "project command loop has shut down".to_string(),
    }
}

/// The metadata of `path`, refusing anything but a regular file: `load`
/// must not read a device or a directory, nor `save` rename over one.
fn regular_file(path: &str) -> std::io::Result<std::fs::Metadata> {
    let meta = std::fs::metadata(path)?;
    if !meta.is_file() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "not a regular file",
        ));
    }
    Ok(meta)
}

/// Reads a project image for `load`: no more of the file than the length
/// its metadata reports, so a file that grows while it is read cannot
/// exhaust the server.
fn read_image(path: &str) -> std::io::Result<String> {
    let meta = regular_file(path)?;
    let mut image = String::new();
    std::fs::File::open(path)?
        .take(meta.len())
        .read_to_string(&mut image)?;
    Ok(image)
}

/// Ceiling of the adaptive group-commit window: under a sustained burst,
/// one journal append+fsync never covers more than this many requests,
/// bounding both reply latency and the batch a crash can lose.
pub const MAX_GROUP_COMMIT_WINDOW: usize = 1024;

/// How often an otherwise-idle loop wakes to absorb finished detached
/// tool invocations. Small enough that results flow back well inside
/// interactive latency; large enough not to busy-spin.
const INVOKE_PUMP: std::time::Duration = std::time::Duration::from_millis(25);

/// Forms the next group-commit batch, for the dedicated loop and the
/// fleet worker alike. Blocks for the next message, but while `pumping`
/// (detached tool runs are in flight) wakes every [`INVOKE_PUMP`] with an
/// empty batch, so finished results post back (and journal) between
/// client commands instead of waiting for the next request. Then takes
/// the backlog queued at formation time, capped at
/// [`MAX_GROUP_COMMIT_WINDOW`]: one request when idle, one fsync for the
/// whole backlog under a burst. `None` once every sender is gone.
pub(crate) fn next_batch<T>(rx: &Receiver<T>, pumping: bool) -> Option<Vec<T>> {
    let first = if pumping {
        match rx.recv_timeout(INVOKE_PUMP) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => return Some(Vec::new()),
            Err(RecvTimeoutError::Disconnected) => return None,
        }
    } else {
        rx.recv()?
    };
    let window = rx.len().saturating_add(1).min(MAX_GROUP_COMMIT_WINDOW);
    let mut batch = Vec::with_capacity(window);
    batch.push(first);
    while batch.len() < window {
        match rx.try_recv() {
            Ok(msg) => batch.push(msg),
            Err(_) => break,
        }
    }
    Some(batch)
}

/// One service's group-commit window: the replies executed since its
/// last flush and not yet sent, and the one rule that decides what they
/// say. A reply in hand means its effect is on stable storage, so:
///
/// * **Barriers** ([`Request::is_barrier`]) re-base durable state. The
///   window settles before one when replies are pending, so a mid-window
///   poisoning is reported on its own window and never masked by a later
///   trivial flush; and again straight after it, so the barrier's reply
///   (durable by its own doing) never shares a flush with later requests.
/// * **Settling** flushes, consumes the journal-poison marker and, when
///   the flush failed or the window's requests poisoned durability, turns
///   every successful mutating reply into the journal error. Read-only
///   replies, and replies that already failed, pass through unchanged.
/// * **A service that died under a request** (the fleet's panic
///   isolation) settles its window with the caller's error, unflushed.
#[derive(Debug, Default)]
pub(crate) struct CommitWindow {
    /// Executed-but-unacked replies: where each goes, whether its request
    /// mutates, and the reply itself.
    pending: Vec<(Sender<Response>, bool, Response)>,
}

impl CommitWindow {
    /// Puts `service` into group-commit mode and opens its window. A stale
    /// poison marker from the service's life before the loop was already
    /// reported to whoever called it directly, so the first window is not
    /// charged with it.
    pub(crate) fn open<E: ScriptExecutor + Default>(service: &mut ProjectService<E>) -> Self {
        // Entering the mode never flushes, so it cannot fail.
        let _ = service.set_group_commit(true);
        let _ = service.take_journal_poisoned();
        CommitWindow::default()
    }

    /// Whether no reply waits for a settle.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Runs `request` in this window under the barrier rule; `call`
    /// executes it on `service`. An `Err` from `call` means the service
    /// died under the request: the window settles with that error,
    /// unflushed, the request is answered with it too, and `false` tells
    /// the caller to drop the service.
    pub(crate) fn execute<E: ScriptExecutor + Default>(
        &mut self,
        service: &mut ProjectService<E>,
        request: Request,
        reply: Sender<Response>,
        call: impl FnOnce(&mut ProjectService<E>, Request) -> Result<Response, ApiError>,
    ) -> bool {
        let barrier = request.is_barrier();
        if barrier && !self.is_empty() {
            self.settle(service);
        }
        let mutating = request.is_mutation();
        match call(service, request) {
            Ok(response) => {
                self.pending.push((reply, mutating, response));
                if barrier {
                    self.settle(service);
                }
                true
            }
            Err(died) => {
                self.answer(Some(&died));
                let _ = reply.send(Response::Error(died));
                false
            }
        }
    }

    /// Flushes `service` and sends every pending reply. A failed flush, or
    /// a poisoning the window's own requests triggered (the explicit
    /// marker, not a journaling-state delta, which a legitimate `Init`
    /// swap would trip), means none of the window's mutations reached
    /// stable storage: acking them would lie.
    pub(crate) fn settle<E: ScriptExecutor + Default>(&mut self, service: &mut ProjectService<E>) {
        let flushed = service.flush();
        let poisoned = service.take_journal_poisoned();
        let error = match flushed {
            Err(e) => Some(ApiError::from(e)),
            Ok(()) if poisoned => Some(ApiError::Journal {
                reason: "durability was disabled mid-batch; the batch is not on stable storage"
                    .to_string(),
            }),
            Ok(()) => None,
        };
        self.answer(error.as_ref());
    }

    /// Sends every pending reply, turning each successful mutation into
    /// `error` when there is one. A request that already failed (frozen
    /// view, unknown OID) wrote nothing a flush could lose, and its own
    /// diagnostic is the useful one.
    fn answer(&mut self, error: Option<&ApiError>) {
        for (reply, mutating, response) in self.pending.drain(..) {
            let response = match error {
                Some(err) if mutating && !response.is_error() => Response::Error(err.clone()),
                _ => response,
            };
            let _ = reply.send(response);
        }
    }
}

/// Spawns a service onto its own thread running [`run_command_loop`] and
/// returns the handle clients connect through. The loop exits (flushing
/// any pending batch) when every handle and session is dropped.
pub fn spawn_project_loop<E>(
    service: ProjectService<E>,
) -> (ProjectHandle, std::thread::JoinHandle<()>)
where
    E: ScriptExecutor + Default + Send + 'static,
{
    spawn_loop(service, run_command_loop)
}

/// Runs `run` over `service` and a fresh inbox on a thread of its own;
/// the returned handle feeds that inbox.
pub(crate) fn spawn_loop<E, M>(
    service: ProjectService<E>,
    run: impl FnOnce(ProjectService<E>, &Receiver<M>) + Send + 'static,
) -> (ProjectHandle<M>, std::thread::JoinHandle<()>)
where
    E: ScriptExecutor + Default + Send + 'static,
    M: Send + 'static,
{
    let (tx, rx) = unbounded();
    let tail = service.tail_hub();
    let join = std::thread::spawn(move || run(service, &rx));
    (
        ProjectHandle {
            tx,
            next_session: Arc::new(AtomicU64::new(1)),
            tail,
        },
        join,
    )
}

/// The command loop behind [`spawn_project_loop`], for callers that run
/// it on a thread they own or feed it a hand-built queue of
/// [`Envelope`]s. Each batch is the backlog queued when it forms (see the
/// module docs); it executes in one group-commit window that settles
/// before any reply is sent. Returns once every sender is gone, after a
/// final flush, with every tail subscription ended.
pub fn run_command_loop<E>(service: ProjectService<E>, rx: &Receiver<Envelope>)
where
    E: ScriptExecutor + Default,
{
    run_batches(service, rx, |service, window, env: Envelope| {
        window.execute(service, env.request, env.reply, |service, request| {
            Ok(service.call(request))
        });
    });
}

/// The loop body the dedicated loop and the follower loop
/// ([`crate::engine::follower::run_follower_loop`]) share: open the
/// window, form batches (an empty one is the idle tool-run pump tick),
/// hand every message to `handle`, which runs client requests in the
/// window, settle after each batch, and on exit flush and end every tail
/// subscription.
pub(crate) fn run_batches<E, M>(
    mut service: ProjectService<E>,
    rx: &Receiver<M>,
    mut handle: impl FnMut(&mut ProjectService<E>, &mut CommitWindow, M),
) where
    E: ScriptExecutor + Default,
{
    let mut window = CommitWindow::open(&mut service);
    while let Some(batch) = next_batch(rx, service.invocations_in_flight() > 0) {
        if batch.is_empty() {
            // A pump tick: absorb finished tool runs (the settle below
            // journals them).
            let _ = service.call(Request::PumpInvocations);
        }
        for msg in batch {
            handle(&mut service, &mut window, msg);
        }
        window.settle(&mut service);
    }
    let _ = service.set_group_commit(false);
    service.tail_hub().close();
}

// ---------------------------------------------------------------------
// The line-framed TCP front door
// ---------------------------------------------------------------------

/// Anything a network connection can submit decoded requests to: a
/// [`ClientSession`] of the dedicated or the follower loop, or a fleet
/// session, so [`serve_with`] front-doors every node kind.
pub trait RequestSink: Send + 'static {
    /// The session tag requests are submitted under.
    fn id(&self) -> SessionId;
    /// Submits a request; the receiver yields its response.
    fn submit(&self, request: Request) -> Receiver<Response>;
}

impl<M: From<Envelope> + Send + 'static> RequestSink for ClientSession<M> {
    fn id(&self) -> SessionId {
        ClientSession::id(self)
    }

    fn submit(&self, request: Request) -> Receiver<Response> {
        ClientSession::submit(self, request)
    }
}

/// Serves the command protocol over a TCP listener, blocking forever:
/// each connection is one session; each text line is one [`Request`]
/// (raw §3.1 `postEvent …` lines are accepted as [`Request::Post`] from
/// user `net-<session>`), answered by exactly one [`Response`] line. A
/// successful `tailfrom` handshake switches the connection into tail
/// mode: frames from the loop's [`TailHub`] stream until the client
/// disconnects (see `PROTOCOL.md` §5).
///
/// Spawn it on its own thread; connections get a thread each (the engine
/// itself stays single-threaded behind the command queue, which is the
/// serialization point).
pub fn serve_listener(listener: TcpListener, handle: &ProjectHandle) -> std::io::Result<()> {
    let tail = handle.tail_hub();
    let handle = handle.clone();
    serve_with(listener, move || handle.session(), Some(tail))
}

/// The transport-generic accept loop behind [`serve_listener`]: `open`
/// mints one [`RequestSink`] per connection, and `tail` (when given)
/// enables tail-mode streaming for `tailfrom` handshakes. `accept`
/// failures — aborted handshakes, fd exhaustion under connection
/// bursts — are transient for a server that must outlive its clients:
/// they are reported to stderr and retried after a short back-off
/// instead of killing every live session.
pub fn serve_with<S: RequestSink>(
    listener: TcpListener,
    open: impl Fn() -> S,
    tail: Option<Arc<TailHub>>,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let session = open();
                let tail = tail.clone();
                std::thread::spawn(move || serve_connection(stream, &session, tail));
            }
            Err(e) => {
                eprintln!("damocles_server: accept failed (retrying): {e}");
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
}

/// The longest request line a connection may send, in bytes before its
/// newline: room for the hex of an 8 MiB check-in payload. A longer line
/// gets one `err` reply and the connection closes, so a client that never
/// sends a newline cannot grow the server's memory without bound.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// One connection's read-decode-execute-reply loop, switching into tail
/// streaming after a successful `tailfrom` handshake.
fn serve_connection<S: RequestSink>(stream: TcpStream, session: &S, tail: Option<Arc<TailHub>>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // A second write handle for the tail-streaming phase, taken up front
    // while cloning is cheap and certain.
    let tail_half = stream.try_clone().ok();
    // Reader and writer run concurrently so a connection that pipelines
    // request lines fills group-commit batches instead of paying one
    // fsync per line; responses still come back strictly in line order
    // (the in-order queue of reply receivers is the sequencing).
    let (order_tx, order_rx) = unbounded::<Receiver<Response>>();
    let mut writer = stream;
    let write_thread = std::thread::spawn(move || {
        // One line buffer for the connection: each reply is encoded
        // straight into it.
        let mut line = String::new();
        while let Some(reply) = order_rx.recv() {
            let response = reply.recv().unwrap_or_else(|| Response::Error(loop_gone()));
            line.clear();
            response.encode_into(&mut line);
            line.push('\n');
            if writer.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
    });
    let mut tail_cursor: Option<TailCursor> = None;
    let mut reader = BufReader::new(read_half);
    // One line buffer for the connection, reused across lines.
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells a line that is too long from one
        // that just fits.
        let cap = MAX_LINE_BYTES as u64 + 1;
        match reader.by_ref().take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            let (tx, rx) = unbounded();
            let _ = tx.send(Response::Error(ApiError::Parse {
                at: MAX_LINE_BYTES as u64,
                found: format!("a line longer than {MAX_LINE_BYTES} bytes"),
                expected: format!("a newline within {MAX_LINE_BYTES} bytes"),
            }));
            let _ = order_tx.send(rx);
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let request = decode_net_line(trimmed, session.id());
        // The tail handshake runs through the loop like any request (so
        // its reply is ordered after earlier pipelined lines), but on
        // success this connection stops being a request/response channel.
        if let (Ok(Request::TailFrom { epoch, seq }), Some(_)) = (&request, &tail) {
            let (epoch, seq) = (*epoch, *seq);
            let response = session
                .submit(request.expect("matched Ok above"))
                .recv()
                .unwrap_or_else(|| Response::Error(loop_gone()));
            let accepted = matches!(response, Response::Tailing { .. });
            let (tx, rx) = unbounded();
            let _ = tx.send(response);
            if order_tx.send(rx).is_err() {
                break;
            }
            if accepted {
                tail_cursor = Some(TailCursor { epoch, seq });
                break;
            }
            continue;
        }
        let reply = match request {
            Ok(request) => session.submit(request),
            Err(e) => {
                let (tx, rx) = unbounded();
                let _ = tx.send(Response::Error(e));
                rx
            }
        };
        if order_tx.send(reply).is_err() {
            break;
        }
    }
    drop(order_tx);
    let _ = write_thread.join();
    if let (Some(mut cursor), Some(hub), Some(mut out)) = (tail_cursor, tail, tail_half) {
        stream_tail(&hub, &mut cursor, &mut out);
    }
}

/// Streams tail frames to one subscriber until its connection breaks or
/// the hub ends the stream. Runs on the connection's own thread — the
/// command loop is never blocked by a slow follower. Each wake-up takes
/// the batches or the snapshot the subscriber is owed from the hub and
/// renders them outside its lock, in chunks of about
/// [`TAIL_CHUNK_BYTES`] through one buffer reused across wake-ups. A
/// snapshot the hub cannot serve ends the stream with a structured
/// error line.
///
/// [`TAIL_CHUNK_BYTES`]: crate::engine::tail::TAIL_CHUNK_BYTES
fn stream_tail(hub: &TailHub, cursor: &mut TailCursor, out: &mut TcpStream) {
    let mut chunk = String::new();
    loop {
        match hub.next_owed(cursor, std::time::Duration::from_millis(500)) {
            Ok(owed) => {
                if owed.write_wire(out, &mut chunk).is_err() {
                    return; // subscriber gone
                }
            }
            Err(ended) => {
                let reason = match ended {
                    TailEnded::Disabled => {
                        "journaling disabled on the leader; tail stream ends".to_string()
                    }
                    TailEnded::Closed => "leader shutting down; tail stream ends".to_string(),
                    TailEnded::Unreadable(why) => format!("{why}; tail stream ends"),
                };
                let line = Response::Error(ApiError::Journal { reason }).encode();
                let _ = out.write_all(format!("{line}\n").as_bytes());
                return;
            }
        }
    }
}

/// Decodes one network line: the request codec, with the paper's bare
/// `postEvent` wire line accepted as sugar for [`Request::Post`].
fn decode_net_line(line: &str, session: SessionId) -> Result<Request, ApiError> {
    if line.starts_with("postEvent") {
        let message = EventMessage::parse_wire(line)?;
        return Ok(Request::Post {
            message,
            user: format!("net-{}", session.0),
        });
    }
    Request::decode(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use damocles_meta::Oid;

    const SIMPLE: &str = r#"
        blueprint demo
        view default
            property uptodate default true
            when ckin do uptodate = true; post outofdate down done
            when outofdate do uptodate = false done
        endview
        view HDL_model endview
        view schematic
            link_from HDL_model move propagates outofdate type derived
        endview
        endblueprint
    "#;

    fn init_req() -> Request {
        Request::Init {
            source: SIMPLE.to_string(),
        }
    }

    fn checkin(block: &str, view: &str) -> Request {
        Request::Checkin {
            block: block.into(),
            view: view.into(),
            user: "yves".into(),
            payload: b"data".to_vec(),
        }
    }

    #[test]
    fn service_runs_the_quickstart_through_requests() {
        let mut svc: ProjectService = ProjectService::new();
        assert_eq!(
            svc.call(Request::ProcessAll),
            Response::Error(ApiError::NoProject)
        );
        assert!(matches!(
            svc.call(init_req()),
            Response::Blueprint { name } if name == "demo"
        ));
        let hdl = match svc.call(checkin("cpu", "HDL_model")) {
            Response::Created { oid } => oid,
            other => panic!("{other:?}"),
        };
        let sch = match svc.call(checkin("cpu", "schematic")) {
            Response::Created { oid } => oid,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            svc.call(Request::Connect {
                from: hdl.clone(),
                to: sch.clone()
            }),
            Response::Ok
        );
        assert!(matches!(
            svc.call(Request::ProcessAll),
            Response::Processed { events: 2, .. }
        ));
        // A second HDL version invalidates the derived schematic.
        svc.call(checkin("cpu", "HDL_model"));
        svc.call(Request::ProcessAll);
        match svc.call(Request::Show { oid: sch }) {
            Response::Props { props, .. } => {
                let up = props.iter().find(|(n, _)| n == "uptodate").unwrap();
                assert_eq!(up.1, Value::Bool(false));
            }
            other => panic!("{other:?}"),
        }
        match svc.call(Request::Stat) {
            Response::Stat { stat } => {
                assert_eq!(stat.oids, 3);
                assert_eq!(stat.pending_events, 0);
                assert_eq!(stat.journal_epoch, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_structured_not_strings() {
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        let resp = svc.call(Request::Show {
            oid: Oid::new("ghost", "v", 1),
        });
        assert_eq!(
            resp,
            Response::Error(ApiError::UnknownOid {
                oid: Oid::new("ghost", "v", 1)
            })
        );
        let resp = svc.call(Request::Init {
            source: "blueprint b view a endview view a endview endblueprint".into(),
        });
        assert!(
            matches!(resp, Response::Error(ApiError::InvalidBlueprint { .. })),
            "{resp:?}"
        );
    }

    #[test]
    fn a_malformed_query_is_named_as_a_query() {
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        let resp = svc.call(Request::Query {
            terms: "???".into(),
        });
        assert_eq!(
            resp,
            Response::Error(ApiError::Meta {
                reason: "invalid query `???`: unrecognized query term `???`".into()
            })
        );
        // The reply survives the wire codec unchanged.
        assert_eq!(Response::decode(&resp.encode()), Ok(resp));
    }

    #[test]
    fn repeated_retry_requests_keep_one_policy_per_script() {
        let mut svc: ProjectService = ProjectService::new();
        assert!(!svc.call(init_req()).is_error());
        let retry = |max_retries: u64| Request::SetRetryPolicy {
            script: Some("hdl_sim".into()),
            max_retries,
            base_delay_ms: 10,
            multiplier: 2,
            timeout_ms: 30_000,
        };
        for n in 0..10_000 {
            assert_eq!(svc.call(retry(n)), Response::Ok);
        }
        assert_eq!(svc.retry_policies.len(), 1);
        // A fresh server gets the last policy set, and only that one.
        assert!(!svc.call(init_req()).is_error());
        let (_, overrides) = svc.server().unwrap().retry_policies();
        assert_eq!(
            overrides,
            vec![(
                "hdl_sim".to_string(),
                RetryPolicy {
                    max_retries: 9_999,
                    base_delay: std::time::Duration::from_millis(10),
                    multiplier: 2,
                    timeout: std::time::Duration::from_millis(30_000),
                }
            )]
        );
    }

    #[test]
    fn command_loop_serializes_sessions_and_replies() {
        let mut svc: ProjectService = ProjectService::new();
        assert!(!svc.call(init_req()).is_error());
        let (handle, join) = spawn_project_loop(svc);
        let s1 = handle.session();
        let s2 = handle.session();
        assert_ne!(s1.id(), s2.id());
        // Two sessions race check-ins of different blocks; both succeed
        // and the engine sees them serialized.
        let t1 = {
            let s = s1.clone();
            std::thread::spawn(move || s.call(checkin("alpha", "HDL_model")))
        };
        let t2 = {
            let s = s2.clone();
            std::thread::spawn(move || s.call(checkin("beta", "HDL_model")))
        };
        assert!(matches!(t1.join().unwrap(), Response::Created { .. }));
        assert!(matches!(t2.join().unwrap(), Response::Created { .. }));
        assert!(matches!(
            s1.call(Request::ProcessAll),
            Response::Processed { events: 2, .. }
        ));
        drop((s1, s2, handle));
        join.join().unwrap();
    }

    #[test]
    fn group_commit_batches_journal_syncs() {
        let dir = std::env::temp_dir().join("damocles-svc-group-commit");
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        assert!(matches!(
            svc.call(Request::EnableJournal {
                dir: dir.display().to_string(),
                every: 1_000_000,
            }),
            Response::Epoch { .. }
        ));
        let (handle, join) = spawn_project_loop(svc);
        let session = handle.session();
        // Pipeline a burst so the loop can batch it.
        let pending: Vec<_> = (0..32)
            .map(|i| session.submit(checkin(&format!("blk{i}"), "HDL_model")))
            .collect();
        for rx in pending {
            assert!(matches!(rx.recv().unwrap(), Response::Created { .. }));
        }
        // Every op of the burst is on disk once the replies are in hand.
        let stat = session.call(Request::Stat);
        let records = match stat {
            Response::Stat { stat } => stat.journal_records.unwrap(),
            other => panic!("{other:?}"),
        };
        assert!(records >= 32, "journaled {records} ops");
        drop((session, handle));
        join.join().unwrap();
        // The journal on disk replays cleanly into the same project.
        let mut svc2: ProjectService = ProjectService::new();
        svc2.call(init_req());
        let resp = svc2.call(Request::Recover {
            dir: dir.display().to_string(),
            every: 1_000_000,
        });
        assert!(matches!(resp, Response::Recovered { .. }), "{resp:?}");
        match svc2.call(Request::Stat) {
            Response::Stat { stat } => assert_eq!(stat.oids, 32),
            other => panic!("{other:?}"),
        }
    }

    /// A successful `Init` through a journaled loop legitimately swaps
    /// in a fresh (un-journaled) server; that state change must NOT be
    /// misread as durability poisoning (the marker is explicit, not a
    /// journaling-state delta).
    #[test]
    fn init_on_a_journaled_loop_is_not_poisoning() {
        let dir = std::env::temp_dir().join("damocles-svc-init-not-poison");
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        assert!(matches!(
            svc.call(Request::EnableJournal {
                dir: dir.display().to_string(),
                every: 1_000_000,
            }),
            Response::Epoch { .. }
        ));
        let (handle, join) = spawn_project_loop(svc);
        let session = handle.session();
        assert!(matches!(
            session.call(checkin("pre", "HDL_model")),
            Response::Created { .. }
        ));
        // The re-init succeeds and is acked as such.
        match session.call(init_req()) {
            Response::Blueprint { name } => assert_eq!(name, "demo"),
            other => panic!("init misreported: {other:?}"),
        }
        // The fresh server runs un-journaled but healthy.
        assert!(matches!(
            session.call(checkin("post", "HDL_model")),
            Response::Created { .. }
        ));
        drop((session, handle));
        join.join().unwrap();
    }

    /// Durability poisoned mid-batch must not be masked by a trivially-Ok
    /// flush: the poisoning is reported on its own window, and mutations
    /// whose flush actually failed are errored, not acked. A request that
    /// executes in a LATER window (after the poisoning was already
    /// reported) acks normally — the server then runs un-journaled, loud
    /// once, exactly like the per-op path.
    #[test]
    fn poisoned_batch_does_not_ack_unflushed_mutations() {
        let dir = std::env::temp_dir().join("damocles-svc-poisoned-batch");
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        assert!(matches!(
            svc.call(Request::EnableJournal {
                dir: dir.display().to_string(),
                every: 1_000_000,
            }),
            Response::Epoch { .. }
        ));
        // Doom the next checkpoint: the snapshot tmp file cannot be
        // created once the durability directory is gone (appends to the
        // already-open journal fd still succeed, which is exactly the
        // asymmetry that used to mask the poisoning).
        std::fs::remove_dir_all(&dir).unwrap();

        // Hand-rolled queue so all three land in ONE loop batch:
        // checkin A | checkpoint (doomed barrier) | checkin B.
        let (tx, rx) = unbounded();
        let replies: Vec<Receiver<Response>> = [
            checkin("alpha", "HDL_model"),
            Request::Checkpoint,
            checkin("beta", "HDL_model"),
        ]
        .into_iter()
        .map(|request| {
            let (reply, reply_rx) = unbounded();
            tx.send(Envelope::new(SessionId(1), request, reply))
                .unwrap();
            reply_rx
        })
        .collect();
        drop(tx);
        run_command_loop(svc, &rx);

        // A settled (flushed to the open journal fd) before the barrier.
        assert!(matches!(
            replies[0].recv().unwrap(),
            Response::Created { .. }
        ));
        // The checkpoint itself failed loudly — that reply IS the
        // poisoning report, settled on its own window.
        assert!(replies[1].recv().unwrap().is_error());
        // B ran in the next window, knowingly un-journaled: normal ack.
        assert!(matches!(
            replies[2].recv().unwrap(),
            Response::Created { .. }
        ));
    }

    /// When the window's own flush fails (here: the auto-checkpoint the
    /// flush triggers cannot write its snapshot), every mutation of that
    /// window is errored — none of them may be acked as durable.
    #[test]
    fn failed_window_flush_errors_every_mutation_of_the_window() {
        let dir = std::env::temp_dir().join("damocles-svc-failed-flush");
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        assert!(matches!(
            svc.call(Request::EnableJournal {
                dir: dir.display().to_string(),
                every: 1, // every flush folds into a checkpoint
            }),
            Response::Epoch { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();

        let (tx, rx) = unbounded();
        let replies: Vec<Receiver<Response>> =
            [checkin("alpha", "HDL_model"), checkin("beta", "HDL_model")]
                .into_iter()
                .map(|request| {
                    let (reply, reply_rx) = unbounded();
                    tx.send(Envelope::new(SessionId(1), request, reply))
                        .unwrap();
                    reply_rx
                })
                .collect();
        drop(tx);
        run_command_loop(svc, &rx);

        for reply in replies {
            match reply.recv().unwrap() {
                Response::Error(ApiError::Journal { .. }) => {}
                other => panic!("unflushed mutation was acked: {other:?}"),
            }
        }
    }
    /// Executes `request` in `window` the way the dedicated loop does,
    /// returning its reply receiver.
    fn run_in(
        window: &mut CommitWindow,
        svc: &mut ProjectService,
        request: Request,
    ) -> Receiver<Response> {
        let (reply, rx) = unbounded();
        assert!(window.execute(svc, request, reply, |svc, request| Ok(svc.call(request))));
        rx
    }

    /// A failed flush turns only *successful mutations* into the journal
    /// error: a read in the same window answers, and a mutation that
    /// already failed keeps its own diagnostic.
    #[test]
    fn failed_flush_downgrades_only_successful_mutations() {
        let dir = std::env::temp_dir().join("damocles-svc-window-flush");
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        assert!(matches!(
            svc.call(Request::EnableJournal {
                dir: dir.display().to_string(),
                every: 1, // every flush folds into a checkpoint
            }),
            Response::Epoch { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();

        let mut window = CommitWindow::open(&mut svc);
        let created = run_in(&mut window, &mut svc, checkin("alpha", "HDL_model"));
        let stat = run_in(&mut window, &mut svc, Request::Stat);
        let ghost = run_in(
            &mut window,
            &mut svc,
            Request::Connect {
                from: Oid::new("ghost", "HDL_model", 1),
                to: Oid::new("ghost", "schematic", 1),
            },
        );
        window.settle(&mut svc);
        let resp = created.recv().unwrap();
        assert!(
            matches!(resp, Response::Error(ApiError::Journal { .. })),
            "unflushed mutation was acked: {resp:?}"
        );
        let resp = stat.recv().unwrap();
        assert!(matches!(resp, Response::Stat { .. }), "{resp:?}");
        let resp = ghost.recv().unwrap();
        assert!(
            matches!(resp, Response::Error(ApiError::UnknownOid { .. })),
            "{resp:?}"
        );
    }

    /// A service that died under a request (the fleet's panic path)
    /// settles its window with the caller's error and no flush: pending
    /// mutations and the dying request get it, reads still answer.
    #[test]
    fn a_window_whose_service_died_settles_with_the_callers_error() {
        let mut svc: ProjectService = ProjectService::new();
        svc.call(init_req());
        let mut window = CommitWindow::open(&mut svc);
        let created = run_in(&mut window, &mut svc, checkin("alpha", "HDL_model"));
        let stat = run_in(&mut window, &mut svc, Request::Stat);
        let poisoned = ApiError::ProjectPoisoned {
            project: "demo".into(),
        };
        let (reply, died) = unbounded();
        let survived = window.execute(&mut svc, checkin("beta", "HDL_model"), reply, |_, _| {
            Err(poisoned.clone())
        });
        assert!(!survived);
        assert!(window.is_empty());
        assert_eq!(created.recv().unwrap(), Response::Error(poisoned.clone()));
        assert!(matches!(stat.recv().unwrap(), Response::Stat { .. }));
        assert_eq!(died.recv().unwrap(), Response::Error(poisoned));
    }
}

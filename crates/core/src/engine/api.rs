//! The typed command protocol: every way of talking to a project server.
//!
//! The paper's wrapper programs drive DAMOCLES by emitting `postEvent`
//! lines "over the network" (§3.1). This module generalizes that single
//! wire line into a full command protocol: a serializable [`Request`] enum
//! covering every server operation, a typed [`Response`] enum carrying
//! structured results, and a structured [`ApiError`] mirroring the
//! [`EngineError`] taxonomy — no pre-formatted strings on the wire.
//!
//! Every client surface speaks this protocol:
//!
//! * the `Shell` parses a command line into a [`Request`] and renders the
//!   [`Response`] as text;
//! * the `damocles` binary drives the shell, so scripts and the REPL ride
//!   the same types;
//! * the `damocles_server` binary frames the text codec over TCP, one
//!   request line per response line, so external wrapper processes post
//!   events exactly as the paper describes;
//! * tests and future replicas replay request streams directly.
//!
//! # Text codec
//!
//! [`Request::encode`]/[`Request::decode`] (and the same pair on
//! [`Response`]) define a line-oriented canonical form reusing the
//! `persist` encodings (percent-escaped words, `b:`/`i:`/`s:` value tags,
//! hex payloads) — so a request round-trips over a socket or a file
//! byte-identically:
//!
//! ```text
//! checkin CPU HDL_model yves 6d6f64756c65
//! post simwrap hdl_sim up reg,verilog,4 logic%20sim%20passed
//! process
//! ```
//!
//! ```text
//! created CPU,HDL_model,1
//! ok
//! processed 2 3 1 0
//! ```
//!
//! Decoding failures are themselves structured: [`ApiError::Parse`] names
//! the byte offset, the offending token and the expected grammar element.

use std::fmt;

use damocles_meta::persist::{decode_hex, decode_value, encode_hex, encode_value};
use damocles_meta::{EventMessage, MetaError, Oid, Value};
use serde::{Deserialize, Serialize};

use crate::engine::error::EngineError;
use crate::engine::policy::PolicyViolation;
use crate::engine::server::ProcessReport;

// ---------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------

/// Identifies one client session at the command loop. Tagged onto every
/// queued request so the loop can serialize many concurrent clients onto
/// the single engine while keeping replies routable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Default record floor of the checkpoint fold policy for
/// `EnableJournal`/`Recover` when a front-end lets the user omit it —
/// shared by the shell and the `damocles_server` binary so the two front
/// doors fold identically. A journal folds into a fresh snapshot once it
/// holds at least this many records *and* at least as many record bytes
/// as the last snapshot (`DESIGN.md` §3).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1024;

/// One typed command to a project server — the union of every operation a
/// client (shell, wrapper program, replica, test harness) can ask for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Request {
    /// Load a blueprint from source text, creating the project server.
    Init {
        /// Blueprint source (the client reads the file; the server never
        /// touches client-side paths).
        source: String,
    },
    /// Replace the blueprint, keeping database/workspace/queue (§3.2).
    Reinit {
        /// New blueprint source.
        source: String,
    },
    /// Check design data in: next version OID, templates, `ckin` event.
    Checkin {
        /// Block name.
        block: String,
        /// View type.
        view: String,
        /// The designer checking in.
        user: String,
        /// Opaque design data.
        payload: Vec<u8>,
    },
    /// Reserve a `(block, view)` chain for a user.
    Checkout {
        /// Block name.
        block: String,
        /// View type.
        view: String,
        /// The designer checking out.
        user: String,
    },
    /// Create a bare OID (no payload, no `ckin` event).
    CreateObject {
        /// The triplet to create.
        oid: Oid,
    },
    /// Relate two OIDs, template-filling the link annotation.
    Connect {
        /// Source end.
        from: Oid,
        /// Destination end.
        to: Oid,
    },
    /// Queue a design-event message (§3.1). Under journaling the ack
    /// means *durably accepted*: the event is journaled as accepted work
    /// before the reply, and recovery re-enqueues accepted events whose
    /// processing never committed (at-least-once replay).
    Post {
        /// The event message.
        message: EventMessage,
        /// The posting user or wrapper.
        user: String,
    },
    /// Drain the event queue: every queued event executes and every
    /// already-finished detached tool invocation is absorbed. Detached
    /// invocations still running when the drain returns post their
    /// results back through later pumps ([`Request::PumpInvocations`],
    /// issued automatically by the command loop while idle) — the loop
    /// is never parked behind a slow tool.
    ProcessAll,
    /// Re-evaluate every continuous assignment (deferred `let`s).
    RefreshLets,
    /// Run a `qlang` query.
    Query {
        /// Query terms, e.g. `view=schematic stale.uptodate latest`.
        terms: String,
    },
    /// Properties of one OID.
    Show {
        /// The triplet to show.
        oid: Oid,
    },
    /// What still blocks `oid` from reaching a planned state.
    WorkLeft {
        /// The target OID.
        oid: Oid,
        /// The state property.
        prop: String,
    },
    /// Per-view aggregate of a state property.
    Summary {
        /// The state property.
        prop: String,
    },
    /// Pin the dependency closure of `root` as a named Configuration.
    Snapshot {
        /// Configuration name.
        name: String,
        /// Root OID of the closure.
        root: Oid,
    },
    /// List stored configurations.
    ListSnapshots,
    /// Forbid check-ins to a view.
    Freeze {
        /// The view to freeze.
        view: String,
    },
    /// Re-allow check-ins to a view.
    Thaw {
        /// The view to thaw.
        view: String,
    },
    /// Enable op-journal durability under a directory.
    EnableJournal {
        /// Durability directory (server-side path).
        dir: String,
        /// Record floor of the checkpoint fold policy (see
        /// [`DEFAULT_CHECKPOINT_EVERY`]).
        every: u64,
    },
    /// Fold the journal into a fresh snapshot now.
    Checkpoint,
    /// Restore the project from `snapshot + journal tail`.
    Recover {
        /// Durability directory (server-side path).
        dir: String,
        /// Record floor of the checkpoint fold policy after recovery.
        every: u64,
    },
    /// Persist database + payloads to a file (server-side path).
    SaveProject {
        /// Destination file.
        path: String,
    },
    /// Restore database + payloads from a file (server-side path).
    LoadProject {
        /// Source file.
        path: String,
    },
    /// Full textual database dump.
    Dump,
    /// Graphviz dump of the live design state.
    Dot,
    /// Engine audit counters.
    Audit,
    /// Server statistics (database size, queue depth, journal state).
    Stat,
    /// Set the retry policy for detached tool invocations: how many times
    /// a failed attempt is retried, the exponential backoff between
    /// attempts, and the per-attempt wall-clock budget. With `script:
    /// None` this sets the default policy; with `Some(name)` it overrides
    /// the policy for that script only. Survives `Init` server swaps,
    /// like group-commit mode.
    SetRetryPolicy {
        /// The script (tool) the policy applies to; `None` = the default
        /// policy for scripts without an override.
        script: Option<String>,
        /// Retries after the first failed attempt (`0` = one attempt
        /// only).
        max_retries: u64,
        /// Delay before the first retry, in milliseconds.
        base_delay_ms: u64,
        /// Backoff multiplier: retry *n* waits `base_delay ·
        /// multiplier^(n-1)`.
        multiplier: u64,
        /// Per-attempt wall-clock budget in milliseconds; an attempt
        /// finishing later counts as failed.
        timeout_ms: u64,
    },
    /// Absorb finished detached invocations and run one non-blocking
    /// queue drain. The command loop issues this to itself when the
    /// worker pool signals finished work, so results flow back between
    /// client commands; clients may also send it to poll.
    PumpInvocations,
    /// Replication handshake: stream committed journal records from
    /// `(epoch, seq)` on. Requires journaling on the receiving server.
    ///
    /// Over a streaming transport (the TCP front door) the
    /// [`Response::Tailing`] reply is followed by the stream's
    /// [`TailItem`](crate::engine::tail::TailItem)s, one line each and a
    /// line per record, until the client disconnects; a brand-new follower sends `(0, 0)` and is
    /// bootstrapped with a snapshot. See `PROTOCOL.md` §5.
    TailFrom {
        /// The checkpoint epoch the follower is at.
        epoch: u64,
        /// The next record sequence number the follower expects.
        seq: u64,
    },
    /// Promote a caught-up follower into a leader under a new fencing
    /// term: enable a local journal at the replica's cursor (its epoch
    /// strictly exceeds the consumed one), open the node's own tail hub
    /// under `term`, and start accepting mutations. Refused with
    /// [`ApiError::StaleTerm`] when `term` does not exceed the highest
    /// term the node has seen, and with [`ApiError::Lagging`] before the
    /// first bootstrap. On a node that is already a leader the request is
    /// [`ApiError::StaleTerm`] unless `term` beats its current term —
    /// re-promoting a live leader to a higher term is a legal no-op-ish
    /// re-journal. See `PROTOCOL.md` §7 and `DESIGN.md` §13.
    Promote {
        /// Durability directory for the promoted node's own journal
        /// (server-side path).
        dir: String,
        /// Record floor of the checkpoint fold policy.
        every: u64,
        /// The new leadership term; must strictly exceed every term this
        /// node has observed.
        term: u64,
    },
    /// Fence this node out of leadership term `term`: a barrier that
    /// flushes the group-commit window, then terminally disables the
    /// node's durability and refuses every later mutation with
    /// [`ApiError::StaleTerm`]. Sent to a deposed (revived) leader so it
    /// can never dual-commit against the reign that replaced it. Refused
    /// with [`ApiError::StaleTerm`] when `term` does not exceed the
    /// node's current term (a stale fencer cannot depose a newer reign).
    Fence {
        /// The newer term doing the fencing.
        term: u64,
    },
    /// Deterministic time-travel replay: rebuild the image the server had
    /// at journal cursor `(epoch, seq)` — the snapshot of `epoch` plus the
    /// first `seq` journal records — in a scratch database, leaving the
    /// live server untouched. Requires journaling; only the current epoch
    /// is addressable (earlier snapshots are folded away by checkpoints).
    /// The reply carries the reconstructed image so "journal dir +
    /// cursor" is a complete bug report. See `PROTOCOL.md` §6.
    Replay {
        /// The checkpoint epoch to replay within.
        epoch: u64,
        /// Journal records to replay on top of the snapshot (`0` = the
        /// snapshot alone).
        seq: u64,
    },
    /// Control execution tracing ([`TraceLog`](crate::engine::trace::TraceLog)):
    /// turn per-wave step retention on or off, or drain the records
    /// captured since the last get. Retention is off by default and costs
    /// nothing when off.
    Trace {
        /// What to do with the trace log.
        mode: TraceMode,
    },
    /// Attach this session to a fleet project: subsequent requests on the
    /// session route to that tenant's engine (see
    /// [`fleet`](crate::engine::fleet)). Wire form `project <name>`, with
    /// a trailing `new` to register the project on first attach. A
    /// single-project node answers [`ApiError::NoFleet`].
    Attach {
        /// The project (tenant) name — one path component under the fleet
        /// root, no separators.
        project: String,
        /// Register the project if it does not exist yet; without it an
        /// unknown name answers [`ApiError::NoSuchProject`].
        create: bool,
    },
    /// List the fleet's registered projects and whether each is currently
    /// activated in memory. Wire form `projects`; a single-project node
    /// answers [`ApiError::NoFleet`].
    ListProjects,
}

/// The operation of a [`Request::Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceMode {
    /// Start retaining per-wave step records.
    On,
    /// Stop retaining and drop anything captured.
    Off,
    /// Drain the records captured since the last `Get`.
    Get,
}

impl fmt::Display for TraceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TraceMode::On => "on",
            TraceMode::Off => "off",
            TraceMode::Get => "get",
        })
    }
}

impl Request {
    /// Whether this request must run against a flushed journal, outside
    /// any group-commit window (it swaps or re-bases durable state — or,
    /// for `Replay`, reads the on-disk journal files directly).
    pub fn is_barrier(&self) -> bool {
        matches!(
            self,
            Request::Init { .. }
                | Request::Reinit { .. }
                | Request::EnableJournal { .. }
                | Request::Checkpoint
                | Request::Recover { .. }
                | Request::SaveProject { .. }
                | Request::LoadProject { .. }
                | Request::Replay { .. }
                | Request::Promote { .. }
                | Request::Fence { .. }
        )
    }

    /// Whether this request can mutate durable state (used by the command
    /// loop to decide what a group-commit flush failure poisons).
    /// `SetRetryPolicy` and `PumpInvocations` count as mutations (a pump
    /// journals invocation completions) but not barriers — they ride
    /// inside group-commit windows.
    pub fn is_mutation(&self) -> bool {
        !matches!(
            self,
            Request::Query { .. }
                | Request::Show { .. }
                | Request::WorkLeft { .. }
                | Request::Summary { .. }
                | Request::ListSnapshots
                | Request::Dump
                | Request::Dot
                | Request::Audit
                | Request::Stat
                | Request::TailFrom { .. }
                | Request::Replay { .. }
                | Request::Trace { .. }
                | Request::Attach { .. }
                | Request::ListProjects
        )
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// One blocking item of a [`Response::Work`] result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkLeftItem {
    /// The blocking object.
    pub oid: Oid,
    /// The unsatisfied state property.
    pub prop: String,
    /// Its current value (`None` when unset).
    pub current: Option<Value>,
}

/// One per-view row of a [`Response::ViewSummary`] result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SummaryRow {
    /// The view type.
    pub view: String,
    /// Live objects of this view.
    pub total: u64,
    /// Objects whose state property is truthy.
    pub satisfied: u64,
    /// Objects lacking the property entirely.
    pub untracked: u64,
}

/// One registered project of a [`Response::Projects`] result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProjectEntry {
    /// The project (tenant) name.
    pub name: String,
    /// Whether the project is currently activated in memory (a cold
    /// project is just snapshot + journal tail on disk).
    pub active: bool,
}

/// One stored configuration of a [`Response::SnapshotList`] result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotInfo {
    /// Configuration name.
    pub name: String,
    /// Pinned OIDs.
    pub oids: u64,
    /// Pinned links.
    pub links: u64,
    /// Addresses that no longer resolve.
    pub dangling: u64,
}

/// Engine audit counters, as carried by [`Response::Audit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditCounters {
    /// Rule-executing deliveries.
    pub deliveries: u64,
    /// Property writes.
    pub assignments: u64,
    /// Continuous-assignment evaluations.
    pub reevaluations: u64,
    /// Script invocations.
    pub scripts: u64,
    /// Events posted by rules.
    pub posts: u64,
    /// Link crossings.
    pub propagations: u64,
    /// Cycle-guard skips.
    pub cycle_skips: u64,
    /// Depth truncations.
    pub depth_truncations: u64,
    /// Template applications.
    pub templates: u64,
    /// Detached invocation attempts that were retried after a failure.
    pub invoke_retries: u64,
    /// Detached invocation attempts that exceeded their wall-clock
    /// budget.
    pub invoke_timeouts: u64,
    /// Detached invocations that exhausted their whole retry budget.
    pub invoke_exhaustions: u64,
}

/// Which replication role a node answers `stat` as.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeRole {
    /// Accepts mutations and journals them — the default for a
    /// single-node server, and what a promoted follower becomes.
    #[default]
    Leader,
    /// Applies a leader's tail stream and serves reads only.
    Follower,
}

impl fmt::Display for NodeRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeRole::Leader => "leader",
            NodeRole::Follower => "follower",
        })
    }
}

impl std::str::FromStr for NodeRole {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "leader" => Ok(NodeRole::Leader),
            "follower" => Ok(NodeRole::Follower),
            other => Err(format!("not a role (leader/follower): `{other}`")),
        }
    }
}

/// Server statistics, as carried by [`Response::Stat`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStat {
    /// Live objects in the meta-database.
    pub oids: u64,
    /// Live links.
    pub links: u64,
    /// Events queued and not yet processed.
    pub pending_events: u64,
    /// Current checkpoint epoch, when journaling.
    pub journal_epoch: Option<u64>,
    /// Ops appended since the last checkpoint, when journaling.
    pub journal_records: Option<u64>,
    /// Wave worker threads: always 1, since every wave runs inline. The
    /// field keeps its place on the `stat` line, so the wire form does
    /// not move.
    pub wave_workers: u64,
    /// Detached invocations waiting for a worker.
    pub pending_invocations: u64,
    /// Detached invocations executing on a worker right now.
    pub running_invocations: u64,
    /// Detached invocations sitting out a backoff delay before their
    /// next attempt.
    pub retrying_invocations: u64,
    /// Detached invocations that exhausted their retry budget (lifetime
    /// count for this pool).
    pub failed_invocations: u64,
    /// The replay cursor's epoch: the checkpoint epoch whose journal the
    /// server is appending to (`0` when journaling is off — epochs count
    /// from 1).
    pub cursor_epoch: u64,
    /// The replay cursor's sequence: committed journal records in that
    /// epoch. `Replay { epoch: cursor_epoch, seq: cursor_seq }`
    /// reconstructs exactly the image this `stat` describes.
    pub cursor_seq: u64,
    /// Fleet only: projects currently activated in memory (bounded by
    /// `--max-active`). `0` on a single-project node.
    pub active_projects: u64,
    /// Fleet only: projects registered under the fleet root — the tenant
    /// roster, resident on disk whether activated or not. `0` on a
    /// single-project node.
    pub resident_projects: u64,
    /// Fleet only: lifetime cold→active transitions (first activations
    /// plus journal reactivations after eviction).
    pub activations: u64,
    /// Fleet only: lifetime active→cold transitions (LRU checkpoints plus
    /// panic poisonings, which also leave residency).
    pub evictions: u64,
    /// The leadership term this node operates under: the term its journal
    /// commits carry on a leader, the highest term observed in the tail
    /// stream on a follower. Terms count from 1; a node that has never
    /// seen a term-bearing stream reports 1.
    pub term: u64,
    /// Whether this node is a mutation-accepting leader or a read-only
    /// follower (a promoted follower flips to `Leader`).
    pub role: NodeRole,
}

/// The typed result of one [`Request`]. Structured data, not rendered
/// text — clients (the shell, wrapper libraries) decide presentation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Response {
    /// The request succeeded and has no further payload.
    Ok,
    /// A blueprint was (re-)initialized.
    Blueprint {
        /// The blueprint's declared name.
        name: String,
    },
    /// An object was created (check-in or bare create).
    Created {
        /// The new triplet.
        oid: Oid,
    },
    /// An event-queue drain completed.
    Processed {
        /// Events processed.
        events: u64,
        /// Rule-executing deliveries.
        deliveries: u64,
        /// Wrapper invocations dispatched.
        scripts: u64,
        /// Messages wrappers posted back.
        emitted: u64,
    },
    /// Continuous assignments were re-evaluated.
    Refreshed {
        /// `let` properties written.
        written: u64,
    },
    /// Properties of one OID.
    Props {
        /// The shown triplet.
        oid: Oid,
        /// `(name, value)` pairs in name order.
        props: Vec<(String, Value)>,
    },
    /// Query hits.
    Hits {
        /// Matching triplets in address order.
        oids: Vec<Oid>,
    },
    /// Work-remaining analysis.
    Work {
        /// The queried target.
        target: Oid,
        /// The blocking items.
        items: Vec<WorkLeftItem>,
    },
    /// Per-view state summary.
    ViewSummary {
        /// One row per view, in view order.
        rows: Vec<SummaryRow>,
    },
    /// A configuration was pinned.
    Snapped {
        /// Its name.
        name: String,
        /// OIDs pinned.
        oids: u64,
    },
    /// The stored configurations.
    SnapshotList {
        /// One entry per configuration, in name order.
        entries: Vec<SnapshotInfo>,
    },
    /// A checkpoint epoch (journal enable / checkpoint).
    Epoch {
        /// The epoch.
        epoch: u64,
    },
    /// A recovery completed.
    Recovered {
        /// The snapshot's epoch.
        epoch: u64,
        /// Objects restored from the snapshot alone.
        snapshot_oids: u64,
        /// Journal ops replayed on top.
        replayed_ops: u64,
        /// Why the tail was cut short, if it was.
        torn_tail: Option<String>,
        /// Whether a stale journal was ignored.
        stale_journal: bool,
    },
    /// A project image was adopted.
    Loaded {
        /// Objects in the restored database.
        oids: u64,
    },
    /// A text artifact (DOT graph, database dump).
    Text {
        /// The artifact.
        text: String,
    },
    /// Audit counters.
    Audit {
        /// The counters.
        counters: AuditCounters,
    },
    /// Server statistics.
    Stat {
        /// The statistics.
        stat: ServerStat,
    },
    /// A [`Request::Promote`] succeeded: this node is now a leader,
    /// journaling `epoch` under fencing `term`.
    Promoted {
        /// The promoted node's first journal epoch (strictly above the
        /// cursor epoch it consumed as a follower).
        epoch: u64,
        /// The leadership term it journals under.
        term: u64,
    },
    /// A [`Request::TailFrom`] was accepted: the leader's committed
    /// stream position is `(epoch, seq)`. On a streaming transport, tail
    /// frames follow this line on the same connection.
    Tailing {
        /// The leader's current checkpoint epoch.
        epoch: u64,
        /// Committed records in that epoch (== the next sequence number).
        seq: u64,
    },
    /// A [`Request::Replay`] reconstructed a historical image.
    Replayed {
        /// The cursor's epoch.
        epoch: u64,
        /// Journal records replayed on top of the snapshot.
        seq: u64,
        /// Objects in the reconstructed database.
        oids: u64,
        /// The full reconstructed project image (the `save` format) —
        /// byte-identical to what `save` would have produced at that
        /// cursor, so clients can diff, load, or inspect it offline.
        image: String,
    },
    /// Execution-trace records drained by a [`Request::Trace`] get, each
    /// in the [`TraceRecord`](crate::engine::trace::TraceRecord) line
    /// form, in execution order.
    Trace {
        /// The encoded records.
        records: Vec<String>,
    },
    /// A [`Request::Attach`] succeeded: the session now routes to
    /// `project`.
    Attached {
        /// The attached project.
        project: String,
        /// Whether the attach registered the project (`create` on a name
        /// the fleet had not seen).
        created: bool,
    },
    /// The fleet's project roster, from [`Request::ListProjects`].
    Projects {
        /// One entry per registered project, in name order.
        entries: Vec<ProjectEntry>,
    },
    /// The request failed.
    Error(ApiError),
}

impl Response {
    /// Whether this is an error response.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error(_))
    }
}

impl From<ProcessReport> for Response {
    fn from(r: ProcessReport) -> Self {
        Response::Processed {
            events: r.events,
            deliveries: r.deliveries,
            scripts: r.scripts,
            emitted: r.emitted,
        }
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A structured, serializable API error carrying the [`EngineError`]
/// taxonomy — precise variants for the failures a client can act on, a
/// tagged catch-all for the rest. Never a bare pre-formatted string for
/// the actionable cases.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ApiError {
    /// A command or wire line failed to parse.
    Parse {
        /// Byte offset of the offending token.
        at: u64,
        /// The token found there (`"end of line"` when input ran out).
        found: String,
        /// What the grammar expected.
        expected: String,
    },
    /// The first word of a command line names no known command.
    UnknownCommand {
        /// Byte offset of the word.
        at: u64,
        /// The word.
        found: String,
    },
    /// No blueprint is loaded yet; `Init` must come first.
    NoProject,
    /// The targeted triplet does not exist.
    UnknownOid {
        /// The unresolved triplet.
        oid: Oid,
    },
    /// The triplet already exists.
    DuplicateOid {
        /// The duplicated triplet.
        oid: Oid,
    },
    /// A workspace operation conflicted with check-out state.
    CheckoutConflict {
        /// The object in conflict.
        oid: Oid,
        /// Who holds it, if anyone.
        holder: Option<String>,
    },
    /// A check-in targeted a frozen view.
    FrozenView {
        /// The frozen view.
        view: String,
    },
    /// Another project-policy rejection.
    Policy {
        /// The rendered violation.
        detail: String,
    },
    /// Blueprint source failed static validation.
    InvalidBlueprint {
        /// The rendered validation errors.
        issues: Vec<String>,
    },
    /// Blueprint source failed to parse.
    BlueprintSyntax {
        /// The rendered parse error (carries its own position).
        message: String,
    },
    /// `ProcessAll` exceeded the server's event budget.
    Runaway {
        /// Events processed before giving up.
        processed: u64,
    },
    /// A durability operation failed.
    Journal {
        /// What went wrong.
        reason: String,
    },
    /// A detached tool invocation exhausted its retry budget. The same
    /// failure also lands in-band as a `tool_failed` event at the
    /// invocation's origin; this is the out-of-band form for clients
    /// that watch invocations directly.
    InvocationFailed {
        /// The script (tool) that failed.
        script: String,
        /// Attempts consumed (≥ 1).
        attempts: u64,
        /// The last failure reason.
        reason: String,
    },
    /// Another meta-database failure.
    Meta {
        /// The rendered error.
        reason: String,
    },
    /// A server-side file operation failed.
    Io {
        /// The rendered error.
        reason: String,
    },
    /// The receiving node is a read-only replication follower; mutations
    /// must go to the leader.
    ReadOnly {
        /// The leader's address, as the follower was configured with.
        leader: String,
    },
    /// The follower has not finished catching up with the leader's
    /// stream; `(epoch, seq)` is how far it has applied. Retry shortly,
    /// or read from the leader.
    Lagging {
        /// The follower's applied checkpoint epoch.
        epoch: u64,
        /// Records applied within that epoch.
        seq: u64,
    },
    /// The operation ran under a stale leadership term: a newer reign
    /// fenced this node (or the request itself carried an outdated term).
    /// Committing it could dual-commit against the current leader, so it
    /// is refused structurally — chase the current leader instead.
    StaleTerm {
        /// The stale term the operation ran (or was requested) under.
        term: u64,
        /// The newer term holding the reign.
        current: u64,
    },
    /// A fleet session sent a routable request before attaching to a
    /// project (`project <name>` must come first).
    NotAttached,
    /// An attach named a project the fleet has not registered (and did
    /// not ask to create it).
    NoSuchProject {
        /// The unknown project name.
        project: String,
    },
    /// The fleet could not take the request right now: the project's
    /// activation backlog is full (every active slot is pinned and the
    /// parked queue hit its limit). Backpressure — retry shortly.
    ProjectBusy {
        /// The congested project.
        project: String,
    },
    /// An engine worker panicked while serving this project; the
    /// project's unflushed group-commit window is lost and it left
    /// residency. Re-attaching recovers it from its journal (crash
    /// semantics), and other projects on the same worker are unaffected.
    ProjectPoisoned {
        /// The poisoned project.
        project: String,
    },
    /// `project`/`projects` was sent to a single-project node; fleet
    /// routing needs a fleet front door (`damocles_server --fleet`).
    NoFleet,
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Parse {
                at,
                found,
                expected,
            } => write!(
                f,
                "parse error at byte {at}: expected {expected}, found `{found}`"
            ),
            ApiError::UnknownCommand { at, found } => {
                write!(f, "unknown command `{found}` at byte {at} (try `help`)")
            }
            ApiError::NoProject => write!(f, "no blueprint loaded; use `init <file>` first"),
            ApiError::UnknownOid { oid } => write!(f, "meta-database error: unknown OID {oid}"),
            ApiError::DuplicateOid { oid } => {
                write!(f, "meta-database error: OID {oid} already exists")
            }
            ApiError::CheckoutConflict { oid, holder } => match holder {
                Some(h) => write!(f, "meta-database error: {oid} is checked out by {h}"),
                None => write!(f, "meta-database error: {oid} is not checked out"),
            },
            ApiError::FrozenView { view } => {
                write!(
                    f,
                    "policy violation: view `{view}` is frozen by project policy"
                )
            }
            ApiError::Policy { detail } => write!(f, "policy violation: {detail}"),
            ApiError::InvalidBlueprint { issues } => {
                write!(f, "blueprint validation failed: {}", issues.join("; "))
            }
            ApiError::BlueprintSyntax { message } => {
                write!(f, "blueprint parse error: {message}")
            }
            ApiError::Runaway { processed } => {
                write!(f, "event budget exhausted after {processed} events")
            }
            ApiError::Journal { reason } => write!(f, "durability error: {reason}"),
            ApiError::InvocationFailed {
                script,
                attempts,
                reason,
            } => write!(
                f,
                "invocation of `{script}` failed after {attempts} attempt(s): {reason}"
            ),
            ApiError::Meta { reason } => write!(f, "meta-database error: {reason}"),
            ApiError::Io { reason } => write!(f, "I/O error: {reason}"),
            ApiError::ReadOnly { leader } => {
                write!(
                    f,
                    "read-only follower: send mutations to the leader at {leader}"
                )
            }
            ApiError::Lagging { epoch, seq } => write!(
                f,
                "follower still catching up (applied epoch {epoch}, seq {seq}); retry shortly"
            ),
            ApiError::StaleTerm { term, current } => write!(
                f,
                "stale leadership term {term}: term {current} holds the reign"
            ),
            ApiError::NotAttached => {
                write!(f, "no project attached; use `project <name>` first")
            }
            ApiError::NoSuchProject { project } => write!(
                f,
                "no such project `{project}` in the fleet (use `project {project} new` to register it)"
            ),
            ApiError::ProjectBusy { project } => write!(
                f,
                "project `{project}` is busy (activation backlog full); retry shortly"
            ),
            ApiError::ProjectPoisoned { project } => write!(
                f,
                "project `{project}` was poisoned by an engine-worker panic; \
                 its unflushed window is lost — retry to recover it from the journal"
            ),
            ApiError::NoFleet => write!(
                f,
                "not a fleet front door; `project`/`projects` need `damocles_server --fleet`"
            ),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<EngineError> for ApiError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Meta(MetaError::UnknownOid { oid }) => ApiError::UnknownOid { oid },
            EngineError::Meta(MetaError::DuplicateOid { oid }) => ApiError::DuplicateOid { oid },
            EngineError::Meta(MetaError::CheckoutConflict { oid, holder }) => {
                ApiError::CheckoutConflict { oid, holder }
            }
            EngineError::Meta(other) => ApiError::Meta {
                reason: other.to_string(),
            },
            EngineError::Policy(PolicyViolation::FrozenView { view }) => {
                ApiError::FrozenView { view }
            }
            EngineError::Policy(other) => ApiError::Policy {
                detail: other.to_string(),
            },
            EngineError::Parse(e) => ApiError::BlueprintSyntax {
                message: e.to_string(),
            },
            EngineError::Invalid { issues } => ApiError::InvalidBlueprint { issues },
            EngineError::Runaway { processed } => ApiError::Runaway { processed },
            EngineError::Journal { reason } => ApiError::Journal { reason },
            EngineError::Fenced { term, current } => ApiError::StaleTerm { term, current },
            EngineError::InvocationFailed {
                script,
                attempts,
                reason,
            } => ApiError::InvocationFailed {
                script,
                attempts,
                reason,
            },
        }
    }
}

impl From<MetaError> for ApiError {
    fn from(e: MetaError) -> Self {
        EngineError::Meta(e).into()
    }
}

impl From<damocles_meta::WireDiag> for ApiError {
    fn from(d: damocles_meta::WireDiag) -> Self {
        ApiError::Parse {
            at: d.at as u64,
            found: d.found,
            expected: d.expected,
        }
    }
}

// ---------------------------------------------------------------------
// Text codec
// ---------------------------------------------------------------------

/// Encodes a string as one word: `%` for the empty string, otherwise the
/// shared percent-escaping. Unambiguous because `escape` renders a lone
/// `%` as `%25`. Crate-shared so the tail-frame codec cannot drift from
/// the request codec.
pub(crate) fn enc_str(s: &str) -> String {
    let mut out = String::new();
    enc_str_into(&mut out, s);
    out
}

/// Appends [`enc_str`]`(s)` to `out`.
pub(crate) fn enc_str_into(out: &mut String, s: &str) {
    if s.is_empty() {
        out.push('%');
    } else {
        damocles_meta::persist::escape_into(out, s);
    }
}

pub(crate) fn dec_str(word: &str) -> Result<String, String> {
    if word == "%" {
        Ok(String::new())
    } else {
        damocles_meta::persist::unescape(word)
    }
}

/// Encodes an optional string: `-` for `None`, `+<word>` for `Some`.
fn enc_opt(s: Option<&str>) -> String {
    match s {
        None => "-".to_string(),
        Some(s) => format!("+{}", enc_str(s)),
    }
}

fn dec_opt(word: &str) -> Result<Option<String>, String> {
    match word.strip_prefix('+') {
        Some(body) => dec_str(body).map(Some),
        None if word == "-" => Ok(None),
        None => Err(format!("expected `-` or `+…`, found `{word}`")),
    }
}

fn enc_opt_value(v: Option<&Value>) -> String {
    match v {
        None => "-".to_string(),
        Some(v) => format!("+{}", encode_value(v)),
    }
}

fn dec_opt_value(word: &str) -> Result<Option<Value>, String> {
    match word.strip_prefix('+') {
        Some(body) => decode_value(body).map(Some),
        None if word == "-" => Ok(None),
        None => Err(format!("expected `-` or `+…`, found `{word}`")),
    }
}

fn enc_oid(oid: &Oid) -> String {
    enc_str(&oid.to_string())
}

fn enc_payload(payload: &[u8]) -> String {
    if payload.is_empty() {
        "-".to_string()
    } else {
        encode_hex(payload)
    }
}

/// A positioned word cursor over one protocol line — the shared
/// [`WordCursor`](damocles_meta::WordCursor) tokenizer plus [`ApiError::Parse`] reporting (byte
/// offset, found token, expectation). The shell's command grammar builds
/// on the same type, so every surface positions diagnostics identically.
pub struct Cursor<'a> {
    words: damocles_meta::WordCursor<'a>,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `line`.
    pub fn new(line: &'a str) -> Self {
        Cursor {
            words: damocles_meta::WordCursor::new(line),
        }
    }

    /// The next word and its byte offset.
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] naming `expected` when the line ran out.
    pub fn next_word(&mut self, expected: &str) -> Result<(usize, &'a str), ApiError> {
        let at_end = self.words.skip_ws();
        match self.words.next_word() {
            Some(hit) => Ok(hit),
            None => Err(ApiError::Parse {
                at: at_end as u64,
                found: "end of line".to_string(),
                expected: expected.to_string(),
            }),
        }
    }

    /// The unconsumed remainder of the line (whitespace-trimmed).
    pub fn rest(&mut self) -> &'a str {
        self.words.rest()
    }

    /// Parses the next word with `parse`, folding its failure reason into
    /// a positioned [`ApiError::Parse`].
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] at the word (or at end of line).
    pub fn parse_with<T>(
        &mut self,
        expected: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, ApiError> {
        let (at, word) = self.next_word(expected)?;
        parse(word).map_err(|reason| ApiError::Parse {
            at: at as u64,
            found: word.to_string(),
            expected: format!("{expected} ({reason})"),
        })
    }

    fn string(&mut self, expected: &str) -> Result<String, ApiError> {
        self.parse_with(expected, dec_str)
    }

    fn u64(&mut self, expected: &str) -> Result<u64, ApiError> {
        self.parse_with(expected, |w| {
            w.parse::<u64>().map_err(|_| "not a number".to_string())
        })
    }

    fn oid(&mut self, expected: &str) -> Result<Oid, ApiError> {
        self.parse_with(expected, |w| {
            let raw = dec_str(w)?;
            raw.parse::<Oid>().map_err(|e| e.short_reason())
        })
    }

    fn value(&mut self, expected: &str) -> Result<Value, ApiError> {
        self.parse_with(expected, decode_value)
    }

    /// Whether no word remains on the line.
    pub fn at_end(&mut self) -> bool {
        self.words.peek_word().is_none()
    }

    fn finish(mut self) -> Result<(), ApiError> {
        if let Some((at, word)) = self.words.peek_word() {
            return Err(ApiError::Parse {
                at: at as u64,
                found: word.to_string(),
                expected: "end of line".to_string(),
            });
        }
        Ok(())
    }
}

impl Request {
    /// Renders the canonical single-line form (no trailing newline).
    ///
    /// ```
    /// use blueprint_core::engine::api::Request;
    ///
    /// let req = Request::Checkin {
    ///     block: "CPU".into(),
    ///     view: "HDL_model".into(),
    ///     user: "yves".into(),
    ///     payload: b"module".to_vec(),
    /// };
    /// assert_eq!(req.encode(), "checkin CPU HDL_model yves 6d6f64756c65");
    /// ```
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        match self {
            Request::Init { source } => format!("init {}", enc_str(source)),
            Request::Reinit { source } => format!("reinit {}", enc_str(source)),
            Request::Checkin {
                block,
                view,
                user,
                payload,
            } => format!(
                "checkin {} {} {} {}",
                enc_str(block),
                enc_str(view),
                enc_str(user),
                enc_payload(payload)
            ),
            Request::Checkout { block, view, user } => format!(
                "checkout {} {} {}",
                enc_str(block),
                enc_str(view),
                enc_str(user)
            ),
            Request::CreateObject { oid } => format!("create {}", enc_oid(oid)),
            Request::Connect { from, to } => {
                format!("connect {} {}", enc_oid(from), enc_oid(to))
            }
            Request::Post { message, user } => {
                // Field-wise (not the rendered §3.1 wire line): the wire
                // grammar cannot carry whitespace inside event names or
                // OID components, but escaped fields can — so every
                // creatable object stays addressable through the typed
                // protocol.
                let mut out = format!(
                    "post {} {} {} {}",
                    enc_str(user),
                    enc_str(&message.event),
                    message.direction,
                    enc_oid(&message.target)
                );
                for arg in &message.args {
                    let _ = write!(out, " {}", enc_str(arg));
                }
                out
            }
            Request::ProcessAll => "process".to_string(),
            Request::RefreshLets => "refresh".to_string(),
            Request::Query { terms } => format!("query {}", enc_str(terms)),
            Request::Show { oid } => format!("show {}", enc_oid(oid)),
            Request::WorkLeft { oid, prop } => {
                format!("workleft {} {}", enc_oid(oid), enc_str(prop))
            }
            Request::Summary { prop } => format!("summary {}", enc_str(prop)),
            Request::Snapshot { name, root } => {
                format!("snapshot {} {}", enc_str(name), enc_oid(root))
            }
            Request::ListSnapshots => "snapshots".to_string(),
            Request::Freeze { view } => format!("freeze {}", enc_str(view)),
            Request::Thaw { view } => format!("thaw {}", enc_str(view)),
            Request::EnableJournal { dir, every } => {
                format!("journal {} {every}", enc_str(dir))
            }
            Request::Checkpoint => "checkpoint".to_string(),
            Request::Recover { dir, every } => format!("recover {} {every}", enc_str(dir)),
            Request::SaveProject { path } => format!("save {}", enc_str(path)),
            Request::LoadProject { path } => format!("load {}", enc_str(path)),
            Request::Dump => "dump".to_string(),
            Request::Dot => "dot".to_string(),
            Request::Audit => "audit".to_string(),
            Request::Stat => "stat".to_string(),
            Request::SetRetryPolicy {
                script,
                max_retries,
                base_delay_ms,
                multiplier,
                timeout_ms,
            } => format!(
                "retry {} {max_retries} {base_delay_ms} {multiplier} {timeout_ms}",
                enc_opt(script.as_deref())
            ),
            Request::PumpInvocations => "pump".to_string(),
            Request::TailFrom { epoch, seq } => format!("tailfrom {epoch} {seq}"),
            Request::Promote { dir, every, term } => {
                format!("promote {} {every} {term}", enc_str(dir))
            }
            Request::Fence { term } => format!("fence {term}"),
            Request::Replay { epoch, seq } => format!("replay {epoch} {seq}"),
            Request::Trace { mode } => format!("trace {mode}"),
            Request::Attach { project, create } => {
                if *create {
                    format!("project {} new", enc_str(project))
                } else {
                    format!("project {}", enc_str(project))
                }
            }
            Request::ListProjects => "projects".to_string(),
        }
    }

    /// Parses the canonical single-line form. The codec round-trips
    /// byte-identically: `decode(encode(r)) == r` and re-encoding a
    /// decoded line reproduces it (property-tested in
    /// `tests/api_roundtrip.rs`).
    ///
    /// ```
    /// use blueprint_core::engine::api::Request;
    ///
    /// let line = "post simwrap hdl_sim up reg,verilog,4 logic%20sim%20passed";
    /// let req = Request::decode(line).unwrap();
    /// assert_eq!(req.encode(), line);
    /// assert!(matches!(req, Request::Post { user, .. } if user == "simwrap"));
    /// ```
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] (with byte offset, found token and expectation)
    /// or [`ApiError::UnknownCommand`].
    pub fn decode(line: &str) -> Result<Request, ApiError> {
        let mut c = Cursor::new(line);
        let (at, keyword) = c.next_word("a request keyword")?;
        let req = match keyword {
            "init" => Request::Init {
                source: c.string("the blueprint source (escaped)")?,
            },
            "reinit" => Request::Reinit {
                source: c.string("the blueprint source (escaped)")?,
            },
            "checkin" => Request::Checkin {
                block: c.string("a block name")?,
                view: c.string("a view type")?,
                user: c.string("a user name")?,
                payload: c.parse_with("a hex payload or `-`", |w| {
                    if w == "-" {
                        Ok(Vec::new())
                    } else {
                        decode_hex(w)
                    }
                })?,
            },
            "checkout" => Request::Checkout {
                block: c.string("a block name")?,
                view: c.string("a view type")?,
                user: c.string("a user name")?,
            },
            "create" => Request::CreateObject {
                oid: c.oid("an OID `block,view,version`")?,
            },
            "connect" => Request::Connect {
                from: c.oid("a source OID")?,
                to: c.oid("a destination OID")?,
            },
            "post" => {
                let user = c.string("a user name")?;
                let event = c.string("an event name")?;
                let direction: damocles_meta::Direction =
                    c.parse_with("a direction (`up` or `down`)", |w| w.parse())?;
                let target = c.oid("a target OID")?;
                let mut message = EventMessage::new(event, direction, target);
                while !c.at_end() {
                    message = message.with_arg(c.string("an argument")?);
                }
                Request::Post { message, user }
            }
            "process" => Request::ProcessAll,
            "refresh" => Request::RefreshLets,
            "query" => Request::Query {
                terms: c.string("query terms (escaped)")?,
            },
            "show" => Request::Show {
                oid: c.oid("an OID `block,view,version`")?,
            },
            "workleft" => Request::WorkLeft {
                oid: c.oid("an OID `block,view,version`")?,
                prop: c.string("a state property name")?,
            },
            "summary" => Request::Summary {
                prop: c.string("a state property name")?,
            },
            "snapshot" => Request::Snapshot {
                name: c.string("a configuration name")?,
                root: c.oid("a root OID")?,
            },
            "snapshots" => Request::ListSnapshots,
            "freeze" => Request::Freeze {
                view: c.string("a view name")?,
            },
            "thaw" => Request::Thaw {
                view: c.string("a view name")?,
            },
            "journal" => Request::EnableJournal {
                dir: c.string("a directory path")?,
                every: c.u64("a checkpoint interval")?,
            },
            "checkpoint" => Request::Checkpoint,
            "recover" => Request::Recover {
                dir: c.string("a directory path")?,
                every: c.u64("a checkpoint interval")?,
            },
            "save" => Request::SaveProject {
                path: c.string("a file path")?,
            },
            "load" => Request::LoadProject {
                path: c.string("a file path")?,
            },
            "dump" => Request::Dump,
            "dot" => Request::Dot,
            "audit" => Request::Audit,
            "stat" => Request::Stat,
            "retry" => Request::SetRetryPolicy {
                script: c.parse_with("a script (`-` = default policy)", dec_opt)?,
                max_retries: c.u64("a retry count")?,
                base_delay_ms: c.u64("a base delay (ms)")?,
                multiplier: c.u64("a backoff multiplier")?,
                timeout_ms: c.u64("a per-attempt timeout (ms)")?,
            },
            "pump" => Request::PumpInvocations,
            "tailfrom" => Request::TailFrom {
                epoch: c.u64("a checkpoint epoch")?,
                seq: c.u64("a record sequence number")?,
            },
            "promote" => Request::Promote {
                dir: c.string("a directory path")?,
                every: c.u64("a checkpoint interval")?,
                term: c.u64("a leadership term")?,
            },
            "fence" => Request::Fence {
                term: c.u64("a leadership term")?,
            },
            "replay" => Request::Replay {
                epoch: c.u64("a checkpoint epoch")?,
                seq: c.u64("a journal cursor sequence")?,
            },
            "trace" => Request::Trace {
                mode: c.parse_with("a trace mode (`on`, `off` or `get`)", |w| match w {
                    "on" => Ok(TraceMode::On),
                    "off" => Ok(TraceMode::Off),
                    "get" => Ok(TraceMode::Get),
                    _ => Err("not on/off/get".to_string()),
                })?,
            },
            "project" => {
                let project = c.string("a project name")?;
                let create = if c.at_end() {
                    false
                } else {
                    c.parse_with("`new` or end of line", |w| match w {
                        "new" => Ok(true),
                        _ => Err("not `new`".to_string()),
                    })?
                };
                Request::Attach { project, create }
            }
            "projects" => Request::ListProjects,
            other => {
                return Err(ApiError::UnknownCommand {
                    at: at as u64,
                    found: other.to_string(),
                })
            }
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Renders the canonical single-line form (no trailing newline).
    ///
    /// ```
    /// use blueprint_core::engine::api::{ApiError, Response};
    ///
    /// let resp = Response::Error(ApiError::ReadOnly {
    ///     leader: "10.0.0.7:7425".into(),
    /// });
    /// assert_eq!(resp.encode(), "err read-only 10.0.0.7:7425");
    /// ```
    pub fn encode(&self) -> String {
        // Most replies fit: one allocation, as `format!` sized them.
        let mut out = String::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Response::encode`]`()` to `out` — the one encoder, so a
    /// connection can render each reply straight into its write buffer.
    /// A `text` reply (a `dump`, a `dot` graph) is escaped in place.
    pub fn encode_into(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = self.write_into(out);
    }

    fn write_into(&self, out: &mut String) -> std::fmt::Result {
        use std::fmt::Write as _;
        match self {
            Response::Ok => out.write_str("ok"),
            Response::Blueprint { name } => write!(out, "blueprint {}", enc_str(name)),
            Response::Created { oid } => write!(out, "created {}", enc_oid(oid)),
            Response::Processed {
                events,
                deliveries,
                scripts,
                emitted,
            } => write!(out, "processed {events} {deliveries} {scripts} {emitted}"),
            Response::Refreshed { written } => write!(out, "refreshed {written}"),
            Response::Props { oid, props } => {
                write!(out, "props {} {}", enc_oid(oid), props.len())?;
                for (name, value) in props {
                    write!(out, " {} {}", enc_str(name), encode_value(value))?;
                }
                Ok(())
            }
            Response::Hits { oids } => {
                write!(out, "hits {}", oids.len())?;
                for oid in oids {
                    write!(out, " {}", enc_oid(oid))?;
                }
                Ok(())
            }
            Response::Work { target, items } => {
                write!(out, "work {} {}", enc_oid(target), items.len())?;
                for item in items {
                    write!(
                        out,
                        " {} {} {}",
                        enc_oid(&item.oid),
                        enc_str(&item.prop),
                        enc_opt_value(item.current.as_ref())
                    )?;
                }
                Ok(())
            }
            Response::ViewSummary { rows } => {
                write!(out, "viewsummary {}", rows.len())?;
                for r in rows {
                    write!(
                        out,
                        " {} {} {} {}",
                        enc_str(&r.view),
                        r.total,
                        r.satisfied,
                        r.untracked
                    )?;
                }
                Ok(())
            }
            Response::Snapped { name, oids } => write!(out, "snapped {} {oids}", enc_str(name)),
            Response::SnapshotList { entries } => {
                write!(out, "snaplist {}", entries.len())?;
                for e in entries {
                    write!(
                        out,
                        " {} {} {} {}",
                        enc_str(&e.name),
                        e.oids,
                        e.links,
                        e.dangling
                    )?;
                }
                Ok(())
            }
            Response::Epoch { epoch } => write!(out, "epoch {epoch}"),
            Response::Recovered {
                epoch,
                snapshot_oids,
                replayed_ops,
                torn_tail,
                stale_journal,
            } => write!(
                out,
                "recovered {epoch} {snapshot_oids} {replayed_ops} {} {}",
                enc_opt(torn_tail.as_deref()),
                u8::from(*stale_journal)
            ),
            Response::Loaded { oids } => write!(out, "loaded {oids}"),
            Response::Text { text } => {
                out.push_str("text ");
                enc_str_into(out, text);
                Ok(())
            }
            Response::Audit { counters } => write!(
                out,
                "audit {} {} {} {} {} {} {} {} {} {} {} {}",
                counters.deliveries,
                counters.assignments,
                counters.reevaluations,
                counters.scripts,
                counters.posts,
                counters.propagations,
                counters.cycle_skips,
                counters.depth_truncations,
                counters.templates,
                counters.invoke_retries,
                counters.invoke_timeouts,
                counters.invoke_exhaustions
            ),
            Response::Stat { stat } => write!(
                out,
                "stat {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
                stat.oids,
                stat.links,
                stat.pending_events,
                stat.journal_epoch
                    .map_or_else(|| "-".to_string(), |e| format!("+{e}")),
                stat.journal_records
                    .map_or_else(|| "-".to_string(), |r| format!("+{r}")),
                stat.wave_workers,
                stat.pending_invocations,
                stat.running_invocations,
                stat.retrying_invocations,
                stat.failed_invocations,
                stat.cursor_epoch,
                stat.cursor_seq,
                stat.active_projects,
                stat.resident_projects,
                stat.activations,
                stat.evictions,
                stat.term,
                stat.role,
            ),
            Response::Promoted { epoch, term } => write!(out, "promoted {epoch} {term}"),
            Response::Tailing { epoch, seq } => write!(out, "tailing {epoch} {seq}"),
            Response::Replayed {
                epoch,
                seq,
                oids,
                image,
            } => {
                write!(out, "replayed {epoch} {seq} {oids} ")?;
                enc_str_into(out, image);
                Ok(())
            }
            Response::Trace { records } => {
                write!(out, "trace {}", records.len())?;
                for rec in records {
                    write!(out, " {}", enc_str(rec))?;
                }
                Ok(())
            }
            Response::Attached { project, created } => {
                write!(out, "attached {} {}", enc_str(project), u8::from(*created))
            }
            Response::Projects { entries } => {
                write!(out, "projects {}", entries.len())?;
                for e in entries {
                    write!(out, " {} {}", enc_str(&e.name), u8::from(e.active))?;
                }
                Ok(())
            }
            Response::Error(e) => write!(out, "err {}", e.encode()),
        }
    }

    /// Parses the canonical single-line form.
    ///
    /// ```
    /// use blueprint_core::engine::api::Response;
    ///
    /// match Response::decode("processed 2 3 1 0").unwrap() {
    ///     Response::Processed { events, .. } => assert_eq!(events, 2),
    ///     other => panic!("{other:?}"),
    /// }
    /// ```
    ///
    /// # Errors
    ///
    /// [`ApiError::Parse`] with byte offset, found token and expectation.
    pub fn decode(line: &str) -> Result<Response, ApiError> {
        let mut c = Cursor::new(line);
        let (at, keyword) = c.next_word("a response keyword")?;
        let opt_u64 = |w: &str| -> Result<Option<u64>, String> {
            match w.strip_prefix('+') {
                Some(n) => n
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|_| "not a number".to_string()),
                None if w == "-" => Ok(None),
                None => Err(format!("expected `-` or `+<n>`, found `{w}`")),
            }
        };
        let resp = match keyword {
            "ok" => Response::Ok,
            "blueprint" => Response::Blueprint {
                name: c.string("a blueprint name")?,
            },
            "created" => Response::Created {
                oid: c.oid("an OID")?,
            },
            "processed" => Response::Processed {
                events: c.u64("an event count")?,
                deliveries: c.u64("a delivery count")?,
                scripts: c.u64("a script count")?,
                emitted: c.u64("an emitted count")?,
            },
            "refreshed" => Response::Refreshed {
                written: c.u64("a write count")?,
            },
            "props" => {
                let oid = c.oid("an OID")?;
                let n = c.u64("a property count")?;
                // Counts come off the wire: never pre-size from them (a
                // hostile line could demand a huge allocation before any
                // element parses). Same for every repeated group below.
                let mut props = Vec::new();
                for _ in 0..n {
                    let name = c.string("a property name")?;
                    let value = c.value("a tagged value")?;
                    props.push((name, value));
                }
                Response::Props { oid, props }
            }
            "hits" => {
                let n = c.u64("a hit count")?;
                let mut oids = Vec::new();
                for _ in 0..n {
                    oids.push(c.oid("an OID")?);
                }
                Response::Hits { oids }
            }
            "work" => {
                let target = c.oid("the target OID")?;
                let n = c.u64("an item count")?;
                let mut items = Vec::new();
                for _ in 0..n {
                    items.push(WorkLeftItem {
                        oid: c.oid("an OID")?,
                        prop: c.string("a property name")?,
                        current: c.parse_with("an optional value", dec_opt_value)?,
                    });
                }
                Response::Work { target, items }
            }
            "viewsummary" => {
                let n = c.u64("a row count")?;
                let mut rows = Vec::new();
                for _ in 0..n {
                    rows.push(SummaryRow {
                        view: c.string("a view name")?,
                        total: c.u64("a total")?,
                        satisfied: c.u64("a satisfied count")?,
                        untracked: c.u64("an untracked count")?,
                    });
                }
                Response::ViewSummary { rows }
            }
            "snapped" => Response::Snapped {
                name: c.string("a configuration name")?,
                oids: c.u64("an OID count")?,
            },
            "snaplist" => {
                let n = c.u64("an entry count")?;
                let mut entries = Vec::new();
                for _ in 0..n {
                    entries.push(SnapshotInfo {
                        name: c.string("a configuration name")?,
                        oids: c.u64("an OID count")?,
                        links: c.u64("a link count")?,
                        dangling: c.u64("a dangling count")?,
                    });
                }
                Response::SnapshotList { entries }
            }
            "epoch" => Response::Epoch {
                epoch: c.u64("an epoch")?,
            },
            "recovered" => Response::Recovered {
                epoch: c.u64("an epoch")?,
                snapshot_oids: c.u64("a snapshot OID count")?,
                replayed_ops: c.u64("a replayed-op count")?,
                torn_tail: c.parse_with("an optional torn-tail reason", dec_opt)?,
                stale_journal: c.parse_with("a stale flag (0/1)", |w| match w {
                    "0" => Ok(false),
                    "1" => Ok(true),
                    _ => Err("not 0/1".to_string()),
                })?,
            },
            "loaded" => Response::Loaded {
                oids: c.u64("an OID count")?,
            },
            "text" => Response::Text {
                text: c.string("a text artifact (escaped)")?,
            },
            "audit" => Response::Audit {
                counters: AuditCounters {
                    deliveries: c.u64("deliveries")?,
                    assignments: c.u64("assignments")?,
                    reevaluations: c.u64("reevaluations")?,
                    scripts: c.u64("scripts")?,
                    posts: c.u64("posts")?,
                    propagations: c.u64("propagations")?,
                    cycle_skips: c.u64("cycle skips")?,
                    depth_truncations: c.u64("depth truncations")?,
                    templates: c.u64("templates")?,
                    invoke_retries: c.u64("invoke retries")?,
                    invoke_timeouts: c.u64("invoke timeouts")?,
                    invoke_exhaustions: c.u64("invoke exhaustions")?,
                },
            },
            "stat" => Response::Stat {
                stat: ServerStat {
                    oids: c.u64("an OID count")?,
                    links: c.u64("a link count")?,
                    pending_events: c.u64("a pending-event count")?,
                    journal_epoch: c.parse_with("an optional epoch", opt_u64)?,
                    journal_records: c.parse_with("an optional record count", opt_u64)?,
                    wave_workers: c.u64("a wave worker count")?,
                    pending_invocations: c.u64("a pending-invocation count")?,
                    running_invocations: c.u64("a running-invocation count")?,
                    retrying_invocations: c.u64("a retrying-invocation count")?,
                    failed_invocations: c.u64("a failed-invocation count")?,
                    cursor_epoch: c.u64("a cursor epoch")?,
                    cursor_seq: c.u64("a cursor sequence")?,
                    active_projects: c.u64("an active-project count")?,
                    resident_projects: c.u64("a resident-project count")?,
                    activations: c.u64("an activation count")?,
                    evictions: c.u64("an eviction count")?,
                    term: c.u64("a leadership term")?,
                    role: c.parse_with("a role (leader/follower)", |w| w.parse())?,
                },
            },
            "promoted" => Response::Promoted {
                epoch: c.u64("an epoch")?,
                term: c.u64("a leadership term")?,
            },
            "tailing" => Response::Tailing {
                epoch: c.u64("a checkpoint epoch")?,
                seq: c.u64("a record sequence number")?,
            },
            "replayed" => Response::Replayed {
                epoch: c.u64("a checkpoint epoch")?,
                seq: c.u64("a journal cursor sequence")?,
                oids: c.u64("an OID count")?,
                image: c.string("a project image (escaped)")?,
            },
            "trace" => {
                let n = c.u64("a record count")?;
                let mut records = Vec::new();
                for _ in 0..n {
                    records.push(c.string("an encoded trace record")?);
                }
                Response::Trace { records }
            }
            "attached" => Response::Attached {
                project: c.string("a project name")?,
                created: c.parse_with("a created flag (0/1)", |w| match w {
                    "0" => Ok(false),
                    "1" => Ok(true),
                    _ => Err("not 0/1".to_string()),
                })?,
            },
            "projects" => {
                let n = c.u64("an entry count")?;
                let mut entries = Vec::new();
                for _ in 0..n {
                    entries.push(ProjectEntry {
                        name: c.string("a project name")?,
                        active: c.parse_with("an active flag (0/1)", |w| match w {
                            "0" => Ok(false),
                            "1" => Ok(true),
                            _ => Err("not 0/1".to_string()),
                        })?,
                    });
                }
                Response::Projects { entries }
            }
            "err" => Response::Error(ApiError::decode_cursor(&mut c)?),
            other => {
                return Err(ApiError::Parse {
                    at: at as u64,
                    found: other.to_string(),
                    expected: "a response keyword".to_string(),
                })
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

impl ApiError {
    /// Renders the error's wire words (the part after `err `).
    fn encode(&self) -> String {
        use std::fmt::Write as _;
        match self {
            ApiError::Parse {
                at,
                found,
                expected,
            } => format!("parse {at} {} {}", enc_str(found), enc_str(expected)),
            ApiError::UnknownCommand { at, found } => {
                format!("unknown-command {at} {}", enc_str(found))
            }
            ApiError::NoProject => "no-project".to_string(),
            ApiError::UnknownOid { oid } => format!("unknown-oid {}", enc_oid(oid)),
            ApiError::DuplicateOid { oid } => format!("duplicate-oid {}", enc_oid(oid)),
            ApiError::CheckoutConflict { oid, holder } => format!(
                "checkout-conflict {} {}",
                enc_oid(oid),
                enc_opt(holder.as_deref())
            ),
            ApiError::FrozenView { view } => format!("frozen-view {}", enc_str(view)),
            ApiError::Policy { detail } => format!("policy {}", enc_str(detail)),
            ApiError::InvalidBlueprint { issues } => {
                let mut out = format!("invalid-blueprint {}", issues.len());
                for issue in issues {
                    let _ = write!(out, " {}", enc_str(issue));
                }
                out
            }
            ApiError::BlueprintSyntax { message } => {
                format!("blueprint-syntax {}", enc_str(message))
            }
            ApiError::Runaway { processed } => format!("runaway {processed}"),
            ApiError::Journal { reason } => format!("journal {}", enc_str(reason)),
            ApiError::InvocationFailed {
                script,
                attempts,
                reason,
            } => format!(
                "invocation-failed {} {attempts} {}",
                enc_str(script),
                enc_str(reason)
            ),
            ApiError::Meta { reason } => format!("meta {}", enc_str(reason)),
            ApiError::Io { reason } => format!("io {}", enc_str(reason)),
            ApiError::ReadOnly { leader } => format!("read-only {}", enc_str(leader)),
            ApiError::Lagging { epoch, seq } => format!("lagging {epoch} {seq}"),
            ApiError::StaleTerm { term, current } => format!("stale-term {term} {current}"),
            ApiError::NotAttached => "not-attached".to_string(),
            ApiError::NoSuchProject { project } => {
                format!("no-such-project {}", enc_str(project))
            }
            ApiError::ProjectBusy { project } => {
                format!("project-busy {}", enc_str(project))
            }
            ApiError::ProjectPoisoned { project } => {
                format!("project-poisoned {}", enc_str(project))
            }
            ApiError::NoFleet => "no-fleet".to_string(),
        }
    }

    fn decode_cursor(c: &mut Cursor<'_>) -> Result<ApiError, ApiError> {
        let (at, kind) = c.next_word("an error kind")?;
        Ok(match kind {
            "parse" => ApiError::Parse {
                at: c.u64("a byte offset")?,
                found: c.string("the found token")?,
                expected: c.string("the expectation")?,
            },
            "unknown-command" => ApiError::UnknownCommand {
                at: c.u64("a byte offset")?,
                found: c.string("the found token")?,
            },
            "no-project" => ApiError::NoProject,
            "unknown-oid" => ApiError::UnknownOid {
                oid: c.oid("an OID")?,
            },
            "duplicate-oid" => ApiError::DuplicateOid {
                oid: c.oid("an OID")?,
            },
            "checkout-conflict" => ApiError::CheckoutConflict {
                oid: c.oid("an OID")?,
                holder: c.parse_with("an optional holder", dec_opt)?,
            },
            "frozen-view" => ApiError::FrozenView {
                view: c.string("a view name")?,
            },
            "policy" => ApiError::Policy {
                detail: c.string("a violation rendering")?,
            },
            "invalid-blueprint" => {
                let n = c.u64("an issue count")?;
                let mut issues = Vec::new();
                for _ in 0..n {
                    issues.push(c.string("an issue rendering")?);
                }
                ApiError::InvalidBlueprint { issues }
            }
            "blueprint-syntax" => ApiError::BlueprintSyntax {
                message: c.string("a parse-error rendering")?,
            },
            "runaway" => ApiError::Runaway {
                processed: c.u64("an event count")?,
            },
            "journal" => ApiError::Journal {
                reason: c.string("a reason")?,
            },
            "invocation-failed" => ApiError::InvocationFailed {
                script: c.string("a script name")?,
                attempts: c.u64("an attempt count")?,
                reason: c.string("a reason")?,
            },
            "meta" => ApiError::Meta {
                reason: c.string("a reason")?,
            },
            "io" => ApiError::Io {
                reason: c.string("a reason")?,
            },
            "read-only" => ApiError::ReadOnly {
                leader: c.string("a leader address")?,
            },
            "lagging" => ApiError::Lagging {
                epoch: c.u64("a checkpoint epoch")?,
                seq: c.u64("a record sequence number")?,
            },
            "stale-term" => ApiError::StaleTerm {
                term: c.u64("a stale term")?,
                current: c.u64("the current term")?,
            },
            "not-attached" => ApiError::NotAttached,
            "no-such-project" => ApiError::NoSuchProject {
                project: c.string("a project name")?,
            },
            "project-busy" => ApiError::ProjectBusy {
                project: c.string("a project name")?,
            },
            "project-poisoned" => ApiError::ProjectPoisoned {
                project: c.string("a project name")?,
            },
            "no-fleet" => ApiError::NoFleet,
            other => {
                return Err(ApiError::Parse {
                    at: at as u64,
                    found: other.to_string(),
                    expected: "an error kind".to_string(),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damocles_meta::Direction;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Init {
                source: "blueprint x\nview v endview\nendblueprint".into(),
            },
            // A spacey block survives the CODEC (escaped fields); the
            // server itself rejects it at execution time, since OID
            // components forbid separator characters.
            Request::Checkin {
                block: "CPU core".into(),
                view: "HDL_model".into(),
                user: "yves".into(),
                payload: b"\xff\x00module cpu;".to_vec(),
            },
            Request::Checkin {
                block: "b".into(),
                view: "v".into(),
                user: String::new(),
                payload: Vec::new(),
            },
            Request::Post {
                message: EventMessage::new("hdl_sim", Direction::Up, Oid::new("reg", "verilog", 4))
                    .with_arg("logic sim passed")
                    .with_arg("4 errors"),
                user: "sim wrapper".into(),
            },
            Request::ProcessAll,
            Request::Query {
                terms: "view=schematic stale.uptodate latest".into(),
            },
            // Characters that are Unicode whitespace but NOT codec
            // separators (vertical tab, NBSP, line separator) must ride
            // inside one word unescaped.
            Request::Query {
                terms: "a\u{0B}b\u{A0}c\u{2028}d".into(),
            },
            Request::EnableJournal {
                dir: "/tmp/dura dir".into(),
                every: 1024,
            },
            Request::Stat,
            Request::SetRetryPolicy {
                script: None,
                max_retries: 5,
                base_delay_ms: 10,
                multiplier: 2,
                timeout_ms: 30_000,
            },
            Request::SetRetryPolicy {
                script: Some("hdl sim".into()),
                max_retries: 0,
                base_delay_ms: 0,
                multiplier: 1,
                timeout_ms: 1,
            },
            Request::PumpInvocations,
            Request::TailFrom { epoch: 3, seq: 117 },
            Request::Promote {
                dir: "/tmp/dura dir".into(),
                every: 1024,
                term: 3,
            },
            Request::Fence { term: 4 },
            Request::Replay { epoch: 2, seq: 40 },
            Request::Trace {
                mode: TraceMode::On,
            },
            Request::Trace {
                mode: TraceMode::Off,
            },
            Request::Trace {
                mode: TraceMode::Get,
            },
            Request::Attach {
                project: "asic 9".into(),
                create: false,
            },
            Request::Attach {
                project: "fpga".into(),
                create: true,
            },
            Request::ListProjects,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Ok,
            Response::Created {
                oid: Oid::new("cpu", "schematic", 2),
            },
            Response::Props {
                oid: Oid::new("cpu", "schematic", 2),
                props: vec![
                    ("uptodate".into(), Value::Bool(false)),
                    ("note".into(), Value::Str("4 errors\nbad ✗".into())),
                    ("count".into(), Value::Int(-3)),
                ],
            },
            Response::Work {
                target: Oid::new("cpu", "netlist", 1),
                items: vec![WorkLeftItem {
                    oid: Oid::new("cpu", "schematic", 2),
                    prop: "uptodate".into(),
                    current: None,
                }],
            },
            Response::Recovered {
                epoch: 3,
                snapshot_oids: 10,
                replayed_ops: 4,
                torn_tail: Some("checksum mismatch".into()),
                stale_journal: false,
            },
            Response::Stat {
                stat: ServerStat {
                    oids: 5,
                    links: 2,
                    pending_events: 1,
                    journal_epoch: Some(2),
                    journal_records: Some(17),
                    wave_workers: 4,
                    pending_invocations: 3,
                    running_invocations: 2,
                    retrying_invocations: 1,
                    failed_invocations: 7,
                    cursor_epoch: 2,
                    cursor_seq: 17,
                    active_projects: 2,
                    resident_projects: 120,
                    activations: 9,
                    evictions: 7,
                    term: 3,
                    role: NodeRole::Follower,
                },
            },
            Response::Replayed {
                epoch: 2,
                seq: 17,
                oids: 5,
                image: "damocles-project v1\noids 0\n".into(),
            },
            Response::Trace {
                records: vec![
                    "begin ckin cpu,HDL_model,2 yves 7 - -".into(),
                    "end 2".into(),
                ],
            },
            Response::Trace {
                records: Vec::new(),
            },
            Response::Error(ApiError::Parse {
                at: 14,
                found: "sideways".into(),
                expected: "a direction (`up` or `down`)".into(),
            }),
            Response::Error(ApiError::CheckoutConflict {
                oid: Oid::new("a", "v", 1),
                holder: Some("yves".into()),
            }),
            Response::Tailing { epoch: 5, seq: 42 },
            Response::Promoted { epoch: 6, term: 2 },
            Response::Error(ApiError::ReadOnly {
                leader: "127.0.0.1:7425".into(),
            }),
            Response::Error(ApiError::Lagging { epoch: 2, seq: 9 }),
            Response::Error(ApiError::StaleTerm {
                term: 2,
                current: 3,
            }),
            Response::Error(ApiError::InvocationFailed {
                script: "hdl_sim".into(),
                attempts: 6,
                reason: "simulation crashed".into(),
            }),
            Response::Attached {
                project: "asic 9".into(),
                created: true,
            },
            Response::Projects {
                entries: vec![
                    ProjectEntry {
                        name: "asic 9".into(),
                        active: true,
                    },
                    ProjectEntry {
                        name: "fpga".into(),
                        active: false,
                    },
                ],
            },
            Response::Projects {
                entries: Vec::new(),
            },
            Response::Error(ApiError::NotAttached),
            Response::Error(ApiError::NoSuchProject {
                project: "ghost".into(),
            }),
            Response::Error(ApiError::ProjectBusy {
                project: "asic 9".into(),
            }),
            Response::Error(ApiError::ProjectPoisoned {
                project: "fpga".into(),
            }),
            Response::Error(ApiError::NoFleet),
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in sample_requests() {
            let line = req.encode();
            let back = Request::decode(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(back, req, "`{line}`");
            assert_eq!(back.encode(), line, "canonical re-encode of `{line}`");
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in sample_responses() {
            let line = resp.encode();
            let back = Response::decode(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(back, resp, "`{line}`");
            assert_eq!(back.encode(), line, "canonical re-encode of `{line}`");
        }
    }

    #[test]
    fn decode_errors_carry_positions() {
        let e = Request::decode("frobnicate all the things").unwrap_err();
        assert!(matches!(e, ApiError::UnknownCommand { at: 0, .. }), "{e:?}");

        let e = Request::decode("connect cpu,v,1").unwrap_err();
        match e {
            ApiError::Parse { at, found, .. } => {
                assert_eq!(at, 15);
                assert_eq!(found, "end of line");
            }
            other => panic!("{other:?}"),
        }

        let e = Request::decode("checkin b v u zz-not-hex").unwrap_err();
        assert!(matches!(e, ApiError::Parse { at: 14, .. }), "{e:?}");

        // Trailing garbage is rejected, positioned at the extra token.
        let e = Request::decode("process now").unwrap_err();
        assert!(matches!(e, ApiError::Parse { at: 8, .. }), "{e:?}");
    }

    #[test]
    fn hostile_hex_payloads_are_parse_errors() {
        // An even-length word holding a multi-byte character, and signs
        // (which `u8::from_str_radix` accepts): each is a parse error at
        // the payload's position, not a panic or a silent decode.
        for payload in ["0é0", "+f", "-f"] {
            let e = Request::decode(&format!("checkin a HDL_model yves {payload}")).unwrap_err();
            assert!(
                matches!(e, ApiError::Parse { at: 25, .. }),
                "{payload}: {e:?}"
            );
        }
        assert!(Request::decode("checkin a HDL_model yves 0F").is_ok());
    }

    #[test]
    fn engine_errors_map_onto_the_taxonomy() {
        let e: ApiError = EngineError::Meta(MetaError::UnknownOid {
            oid: Oid::new("cpu", "v", 9),
        })
        .into();
        assert!(matches!(e, ApiError::UnknownOid { .. }));
        assert_eq!(e.to_string(), "meta-database error: unknown OID cpu,v,9");

        let e: ApiError = EngineError::Policy(PolicyViolation::FrozenView {
            view: "layout".into(),
        })
        .into();
        assert!(matches!(e, ApiError::FrozenView { .. }));
        assert!(e.to_string().contains("frozen"));

        let e: ApiError = EngineError::Runaway { processed: 50 }.into();
        assert!(matches!(e, ApiError::Runaway { processed: 50 }));
    }

    #[test]
    fn barrier_and_mutation_classification() {
        assert!(Request::Checkpoint.is_barrier());
        assert!(Request::LoadProject { path: "x".into() }.is_barrier());
        assert!(!Request::ProcessAll.is_barrier());
        assert!(Request::ProcessAll.is_mutation());
        assert!(!Request::Stat.is_mutation());
        assert!(!Request::Dump.is_mutation());
        let retry = Request::SetRetryPolicy {
            script: None,
            max_retries: 3,
            base_delay_ms: 10,
            multiplier: 2,
            timeout_ms: 30_000,
        };
        assert!(retry.is_mutation() && !retry.is_barrier());
        assert!(Request::PumpInvocations.is_mutation());
        assert!(!Request::PumpInvocations.is_barrier());
        // Replay reads the on-disk journal: barrier (needs a flushed
        // window) but never a mutation (the live image is untouched).
        let replay = Request::Replay { epoch: 1, seq: 0 };
        assert!(replay.is_barrier() && !replay.is_mutation());
        let trace = Request::Trace {
            mode: TraceMode::On,
        };
        assert!(!trace.is_barrier() && !trace.is_mutation());
        // Promotion and fencing re-base durable state AND mutate it: both
        // must flush the group-commit window before running.
        let promote = Request::Promote {
            dir: "d".into(),
            every: 8,
            term: 2,
        };
        assert!(promote.is_barrier() && promote.is_mutation());
        let fence = Request::Fence { term: 2 };
        assert!(fence.is_barrier() && fence.is_mutation());
    }

    #[test]
    fn fenced_engine_error_maps_to_stale_term() {
        let e: ApiError = EngineError::Fenced {
            term: 2,
            current: 3,
        }
        .into();
        assert_eq!(
            e,
            ApiError::StaleTerm {
                term: 2,
                current: 3
            }
        );
        assert!(e.to_string().contains("stale leadership term 2"));
    }
}

//! The read-only replication follower: applies a leader's journal-tail
//! stream and serves read requests from the replicated image.
//!
//! A follower is a [`ProjectService`] whose single mutator is the
//! leader's committed op stream. One loop thread owns the service and
//! drains a single queue carrying **both** kinds of input — decoded
//! [`TailItem`]s from the leader connection and client [`Envelope`]s
//! from the follower's own front door — so tail application and read
//! serving are serialized without locks. It runs the leader's own loop
//! body ([`run_command_loop`] is the other user): the same batches, and
//! from promotion on the same group-commit windows. Per message:
//!
//! * [`TailItem::Reset`] → adopt the snapshot wholesale
//!   ([`ProjectServer::adopt_replica_image`]), rebuild the link-tag map
//!   in image order, cursor to `(epoch, 0)`;
//! * a batch of records ([`TailItem::Records`]) → verify each record's
//!   checksum and sequence ([`journal::decode_record`]) and apply it
//!   through the normal database API
//!   ([`ProjectServer::apply_replica_op`]), then republish the applied
//!   records as one batch and wake [`FollowerStatus`] once;
//! * [`TailItem::Epoch`] → the leader checkpointed; the follower's image
//!   already equals the new snapshot, so only re-tag links and move the
//!   cursor — no data transfer;
//! * read-only client requests (`Query`, `Show`, `Snapshot`, `Summary`,
//!   `Dump`, `Stat`, …) → answered from the replica; **mutations are
//!   rejected** with [`ApiError::ReadOnly`] naming the leader, and reads
//!   before the first bootstrap with [`ApiError::Lagging`].
//!
//! The loop is transport-agnostic: frames arrive through the same
//! channel whether a test hand-feeds them or the tail pump
//! (`damocles_tools::remote::spawn_tail_pump`, what `damocles_server
//! --follow` runs) reads them off a TCP tail stream, one batch of records
//! at a time ([`TailReader`]). The pump stops reading while
//! [`MAX_TAIL_BACKLOG`] records it handed over wait untaken
//! ([`FollowerStatus::wait_for_room`]), so a burst from the leader waits
//! in the leader's hub and the socket, not in this loop's queue. A lost
//! leader connection degrades the follower to stale reads (loudly, via
//! [`FollowerStatus`]); the pump reconnects and resumes from the cursor,
//! and a divergent or garbled stream simply re-bootstraps.
//!
//! # Terms, fencing and promotion
//!
//! Every substantive frame carries the leadership **term** it was
//! committed under (`DESIGN.md` §13). The loop tracks the highest term
//! it has seen and refuses older frames — counted in
//! [`FollowerStatus::stale_frames`] — so a deposed leader's stream can
//! never overwrite state the new reign replicated. Applied frames are
//! **re-published** through the node's own [`TailHub`] under the same
//! term, so replicas form a tree: a follower's follower tails it exactly
//! as it tails the leader.
//!
//! [`Request::Promote`] turns a caught-up follower into a leader: the
//! loop enables a local journal at its cursor (the epoch floor is one
//! above `cursor.epoch`, so the new reign never reuses a coordinate the
//! old one published) under a term that must strictly exceed every term
//! the stream has shown. From then on the loop serves the **full** request
//! surface through its service, exactly as a leader loop does —
//! mutations group-commit to the local journal, detached tool runs are
//! pumped, the hub republishes under the bumped term (re-parenting any
//! subtree tailing this node), and frames still arriving from the old
//! leader are refused as stale.
//!
//! [`TailHub`]: crate::engine::tail::TailHub
//! [`TailReader`]: crate::engine::tail::TailReader
//! [`Request::Promote`]: crate::engine::api::Request::Promote
//!
//! [`ProjectServer`]: crate::engine::server::ProjectServer
//! [`run_command_loop`]: crate::engine::service::run_command_loop
//! [`ProjectServer::adopt_replica_image`]: crate::engine::server::ProjectServer::adopt_replica_image
//! [`ProjectServer::apply_replica_op`]: crate::engine::server::ProjectServer::apply_replica_op

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use damocles_meta::journal::{self, RecordBatch};
use damocles_meta::LinkId;

use crate::engine::api::{ApiError, NodeRole, Request, Response};
use crate::engine::exec::ScriptExecutor;
use crate::engine::server::ProjectServer;
use crate::engine::service::{
    run_batches, spawn_loop, ClientSession, Envelope, ProjectHandle, ProjectService,
};
use crate::engine::tail::{TailHub, TailItem};

/// Records a tail pump may have handed the follower loop that the loop
/// has not taken yet; at this backlog the pump stops reading its stream
/// until the loop catches up ([`FollowerStatus::wait_for_room`]).
pub const MAX_TAIL_BACKLOG: u64 = 16_384;

/// One input to the follower loop: a stream element from the leader or a
/// request from a local client.
#[derive(Debug)]
pub enum FollowerMsg {
    /// The next element of the leader connection, as a
    /// [`TailReader`](crate::engine::tail::TailReader) took it off the
    /// stream: a batch of records is applied in order and republished
    /// together.
    Tail(TailItem),
    /// A local client request (read-only surface).
    Client(Envelope),
    /// The leader connection broke; the pump will retry. The follower
    /// keeps serving (possibly stale) reads.
    LeaderGone {
        /// Why the connection ended.
        reason: String,
    },
    /// Test/ops introspection: reply with the replica's full project
    /// image ([`crate::engine::server::ProjectServer::project_image`]).
    Inspect(Sender<String>),
}

impl From<Envelope> for FollowerMsg {
    fn from(envelope: Envelope) -> Self {
        FollowerMsg::Client(envelope)
    }
}

/// Shared, observable replication state: the applied cursor, whether the
/// follower has bootstrapped, and whether the leader link is up. Tests
/// and operators wait on it; the loop publishes every change.
#[derive(Debug, Default)]
pub struct FollowerStatus {
    state: Mutex<StatusState>,
    wake: Condvar,
}

/// Where the replica stands: the loop keeps it and publishes every change
/// to its [`FollowerStatus`] whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Position {
    /// The checkpoint epoch the replica is applying records of.
    epoch: u64,
    /// The next record sequence number expected.
    seq: u64,
    /// A snapshot bootstrap has completed, and no apply has failed since:
    /// reads are served.
    bootstrapped: bool,
    /// Highest leadership term observed in the stream (or taken by
    /// promotion); frames from older terms are refused.
    term: u64,
    /// Set by a successful [`Request::Promote`](crate::engine::api::Request::Promote):
    /// this node is now a leader.
    promoted: bool,
}

impl Position {
    /// Whether a frame of `term` is refused: it comes from a reign older
    /// than the highest seen, or it is any substantive frame once this
    /// node leads. The caller counts refused frames.
    fn refuses(&self, term: u64) -> bool {
        if term < self.term || (self.promoted && term <= self.term) {
            return true;
        }
        if self.promoted {
            // A term above our own while we lead: a newer reign exists.
            // This loop does not re-demote itself; operators fence it.
            eprintln!("promoted node: ignoring frame from newer term {term} (fence me)");
            return true;
        }
        false
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StatusState {
    /// The loop's [`Position`], as it last published it.
    at: Position,
    leader_up: bool,
    /// The replica diverged (an apply or bootstrap failed): incremental
    /// frames can no longer repair it, only a fresh `tail-reset` can.
    needs_reset: bool,
    /// Frames refused because they carried a stale term — the split-brain
    /// witness counter.
    stale_frames: u64,
    /// Records a tail pump counted in ([`FollowerStatus::add_backlog`])
    /// that the loop has not taken yet.
    backlog: u64,
    /// The loop ended: nothing will take records any more.
    exited: bool,
}

impl StatusState {
    /// The loop took `records` off its inbox. Records fed around a pump
    /// were never counted in, hence the floor at zero.
    fn took(&mut self, records: u64) {
        self.backlog = self.backlog.saturating_sub(records);
    }
}

impl FollowerStatus {
    /// `(epoch, seq)` of the next record the follower expects.
    pub fn cursor(&self) -> (u64, u64) {
        let at = self.state.lock().expect("follower status lock").at;
        (at.epoch, at.seq)
    }

    /// Whether a snapshot bootstrap has completed (reads are served).
    pub fn bootstrapped(&self) -> bool {
        self.state
            .lock()
            .expect("follower status lock")
            .at
            .bootstrapped
    }

    /// The highest leadership term this node has observed (0 before the
    /// first term-bearing frame).
    pub fn term(&self) -> u64 {
        self.state.lock().expect("follower status lock").at.term
    }

    /// Frames refused because they carried a term older than the highest
    /// observed — each one is a deposed leader's write that fencing kept
    /// out of the replica.
    pub fn stale_frames(&self) -> u64 {
        self.state
            .lock()
            .expect("follower status lock")
            .stale_frames
    }

    /// Whether a `Promote` turned this node into a leader.
    pub fn promoted(&self) -> bool {
        self.state.lock().expect("follower status lock").at.promoted
    }

    /// Whether the leader connection is currently up.
    pub fn leader_up(&self) -> bool {
        self.state.lock().expect("follower status lock").leader_up
    }

    /// Whether the replica needs a full snapshot re-bootstrap (an apply
    /// or bootstrap failure made incremental frames useless). A pump
    /// seeing this should drop its connection and re-handshake.
    pub fn needs_reset(&self) -> bool {
        self.state.lock().expect("follower status lock").needs_reset
    }

    /// The cursor a (re)connecting pump should hand to `tailfrom`: the
    /// applied position normally, or an unservable sentinel when the
    /// replica needs a re-bootstrap — the leader answers an unservable
    /// cursor with a full `tail-reset`, never with incremental records.
    pub fn handshake_cursor(&self) -> (u64, u64) {
        let st = self.state.lock().expect("follower status lock");
        if st.needs_reset {
            (u64::MAX, 0)
        } else {
            (st.at.epoch, st.at.seq)
        }
    }

    /// Blocks until the follower has applied everything up to
    /// `(epoch, seq)` (or moved past that epoch), or `timeout` elapses.
    /// Returns whether the position was reached.
    pub fn wait_applied(&self, epoch: u64, seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("follower status lock");
        loop {
            let at = st.at;
            let reached =
                at.bootstrapped && (at.epoch > epoch || (at.epoch == epoch && at.seq >= seq));
            if reached {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .wake
                .wait_timeout(st, left.min(Duration::from_millis(50)))
                .expect("follower status lock");
            st = guard;
        }
    }

    /// Counts `records` into the backlog; a tail pump calls it right
    /// before it sends them to the loop, so the loop never takes a record
    /// that was not counted.
    pub fn add_backlog(&self, records: u64) {
        self.state.lock().expect("follower status lock").backlog += records;
    }

    /// Blocks while the backlog is at [`MAX_TAIL_BACKLOG`] or above, until
    /// the loop takes records, the node is promoted, or the loop ends.
    /// Returns whether a tail pump should read on: `false` once the node
    /// is promoted or its loop is gone.
    pub fn wait_for_room(&self) -> bool {
        let mut st = self.state.lock().expect("follower status lock");
        while st.backlog >= MAX_TAIL_BACKLOG && !st.at.promoted && !st.exited {
            st = self.wake.wait(st).expect("follower status lock");
        }
        !st.at.promoted && !st.exited
    }

    fn set(&self, update: impl FnOnce(&mut StatusState)) {
        let mut st = self.state.lock().expect("follower status lock");
        update(&mut st);
        drop(st);
        self.wake.notify_all();
    }
}

/// Marks the loop's end in its status when dropped, also when the loop
/// unwinds from a panic, so a tail pump waiting for room stops waiting.
struct ExitMark<'a>(&'a FollowerStatus);

impl Drop for ExitMark<'_> {
    fn drop(&mut self) {
        let status = self.0;
        status
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .exited = true;
        status.wake.notify_all();
    }
}

/// A cloneable handle to a running follower loop: opens client sessions,
/// feeds the tail pump, and exposes replication status.
#[derive(Debug, Clone)]
pub struct FollowerHandle {
    handle: ProjectHandle<FollowerMsg>,
    status: Arc<FollowerStatus>,
}

impl FollowerHandle {
    /// Opens a new tagged client session (read-only until promotion).
    pub fn session(&self) -> ClientSession<FollowerMsg> {
        self.handle.session()
    }

    /// The input side for a tail pump: send [`FollowerMsg::Tail`] and
    /// [`FollowerMsg::LeaderGone`] as the leader connection produces them,
    /// counting records in with [`FollowerStatus::add_backlog`].
    pub fn feed(&self) -> Sender<FollowerMsg> {
        self.handle.tx.clone()
    }

    /// The shared replication status.
    pub fn status(&self) -> Arc<FollowerStatus> {
        Arc::clone(&self.status)
    }

    /// The replica's full project image, serialized by the loop between
    /// applied records — the byte-identity witness tests compare against
    /// the leader. `None` when the loop is gone.
    pub fn image(&self) -> Option<String> {
        let (tx, rx) = unbounded();
        self.handle.tx.send(FollowerMsg::Inspect(tx)).ok()?;
        rx.recv()
    }
}

/// Spawns a follower loop around `service` (already `Init`ed with the
/// project blueprint) on its own thread. `leader` is the address named
/// in [`ApiError::ReadOnly`] rejections. The loop exits when every
/// handle, session and feed sender is dropped.
pub fn spawn_follower_loop<E>(
    service: ProjectService<E>,
    leader: impl Into<String>,
) -> (FollowerHandle, std::thread::JoinHandle<()>)
where
    E: ScriptExecutor + Default + Send + 'static,
{
    let leader = leader.into();
    let status = Arc::new(FollowerStatus::default());
    let loop_status = Arc::clone(&status);
    let (handle, join) = spawn_loop(service, move |service, rx| {
        run_follower_loop(service, rx, &leader, &loop_status);
    });
    (FollowerHandle { handle, status }, join)
}

/// The follower loop: apply frames, answer reads, reject writes — until a
/// `Promote` turns it into a leader loop. It runs the dedicated loop's
/// body: the promotion and every request after it execute in
/// group-commit windows whose replies go out at the batch's settle, as
/// on a leader; a replica's own replies go out at once. It returns once
/// every sender is gone, after a final flush, with every tail
/// subscription ended, and marks its end in `status` (also when it
/// unwinds), which releases a pump waiting for room. Exposed for callers
/// that want the loop on a thread they own.
#[allow(clippy::too_many_lines)]
pub fn run_follower_loop<E>(
    service: ProjectService<E>,
    rx: &Receiver<FollowerMsg>,
    leader: &str,
    status: &FollowerStatus,
) where
    E: ScriptExecutor + Default,
{
    // The follower's link-tag map: the same tag → address assignment the
    // leader's journal uses, rebuilt at every bootstrap and rollover.
    let mut tags: HashMap<u64, LinkId> = HashMap::new();
    // Where the replica stands; every change is published to `status`.
    let mut at = Position::default();
    // The node's own publication hub (fan-out): applied frames republish
    // here under their term, so replicas form a tree.
    let hub = service.tail_hub();
    let _exit = ExitMark(status);
    run_batches(service, rx, |service, window, msg| match msg {
        FollowerMsg::Tail(TailItem::Records { epoch, term, batch }) => {
            let records = batch.len() as u64;
            if at.refuses(term) {
                status.set(|st| {
                    st.took(records);
                    st.stale_frames += records;
                });
                return;
            }
            if !at.bootstrapped || epoch != at.epoch || term != at.term {
                // Records from before a reset raced in, or a newer
                // reign's records arrived without its bootstrap; the
                // stream will re-bootstrap us.
                status.set(|st| st.took(records));
                return;
            }
            let applied = service
                .server_mut()
                .ok_or_else(|| "no blueprint loaded".to_string())
                .and_then(|srv| apply_batch(srv, &mut tags, &hub, &mut at.seq, batch));
            if let Err(reason) = &applied {
                // Divergence (or a garbled stream): this image cannot be
                // repaired incrementally. Flag the status so the pump
                // drops its connection and re-handshakes with the
                // unservable sentinel cursor, which the leader answers
                // with a full snapshot reset.
                eprintln!("follower: record {}/{} failed: {reason}", epoch, at.seq);
                at.bootstrapped = false;
                hub.publish_disable();
            }
            status.set(|st| {
                st.took(records);
                st.at = at;
                if applied.is_ok() {
                    st.leader_up = true;
                } else {
                    st.needs_reset = true;
                }
            });
        }
        FollowerMsg::Tail(TailItem::Reset { epoch, term, image }) => {
            if at.refuses(term) {
                status.set(|st| st.stale_frames += 1);
                return;
            }
            let adopted = service
                .server_mut()
                .ok_or_else(|| "no blueprint loaded".to_string())
                .and_then(|srv| srv.adopt_replica_image(&image).map_err(|e| e.to_string()));
            match adopted {
                Ok(_) => {
                    let srv = service.server_mut().expect("adopted above");
                    tags = srv.replica_link_tags();
                    at = Position {
                        epoch,
                        seq: 0,
                        bootstrapped: true,
                        term,
                        ..at
                    };
                    // Re-publish the bootstrap for our own subtree.
                    hub.publish_enable(epoch, term, image.into());
                    status.set(|st| {
                        st.at = at;
                        st.leader_up = true;
                        st.needs_reset = false;
                    });
                }
                Err(reason) => {
                    eprintln!("follower: snapshot bootstrap failed: {reason}");
                    at.bootstrapped = false;
                    // Our subtree must not trust a diverged image.
                    hub.publish_disable();
                    status.set(|st| {
                        st.at = at;
                        st.needs_reset = true;
                    });
                }
            }
        }
        FollowerMsg::Tail(TailItem::Epoch { epoch, term }) => {
            if at.refuses(term) {
                status.set(|st| st.stale_frames += 1);
                return;
            }
            if at.bootstrapped && term == at.term {
                // The stream guarantees every record of the folded
                // epoch preceded this marker, so our image equals the
                // new snapshot; mirror the leader's re-tagging and
                // checkpoint our own stream (seamless: everything we
                // folded was republished first).
                let srv = service.server_mut().expect("bootstrapped");
                tags = srv.replica_link_tags();
                let image = srv.project_image();
                at.epoch = epoch;
                at.seq = 0;
                hub.publish_checkpoint(epoch, term, image.into(), true);
                status.set(|st| {
                    st.at = at;
                    st.leader_up = true;
                });
            }
            // A marker from a NEWER term than the stream bootstrapped
            // us into cannot be trusted as seamless — wait for the
            // reset the new reign must send.
        }
        FollowerMsg::Tail(TailItem::Ping) => {
            if !at.promoted {
                status.set(|st| st.leader_up = true);
            }
        }
        FollowerMsg::LeaderGone { reason } => {
            if !at.promoted {
                eprintln!("follower: leader connection lost ({reason}); serving stale reads");
                status.set(|st| st.leader_up = false);
            }
        }
        FollowerMsg::Inspect(reply) => {
            let image = service
                .server()
                .map(|srv| srv.project_image())
                .unwrap_or_default();
            let _ = reply.send(image);
        }
        FollowerMsg::Client(envelope) => {
            let (_, request, reply) = envelope.into_parts();
            if !at.promoted && !matches!(request, Request::Promote { .. }) {
                // A replica journals nothing, so no settle can change the
                // reply: it goes out at once.
                let _ = reply.send(follower_call(service, request, leader, at));
                return;
            }
            window.execute(service, request, reply, |service, request| {
                if at.promoted {
                    // Full leader surface: the loop owns the service, so
                    // requests route straight through it (mutations
                    // group-commit locally and republish via the hub).
                    return Ok(service.call(request));
                }
                Ok(promote(service, &request, &mut at, status))
            });
        }
    });
}

/// Applies `batch`, the replica's next records from sequence `*seq` on:
/// [`journal::decode_record`] verifies each record's checksum and
/// sequence, [`ProjectServer::apply_replica_op`] applies it. Stops at the
/// first record that fails, with `*seq` naming it (one past the last good
/// record), and returns why. The applied records are republished through
/// `hub` as one batch either way.
fn apply_batch<E: ScriptExecutor>(
    srv: &mut ProjectServer<E>,
    tags: &mut HashMap<u64, LinkId>,
    hub: &TailHub,
    seq: &mut u64,
    mut batch: RecordBatch,
) -> Result<(), String> {
    let mut outcome = Ok(());
    let mut applied = 0;
    while applied < batch.len() {
        let step = journal::decode_record(batch.line(applied), *seq)
            .and_then(|op| srv.apply_replica_op(&op, tags).map_err(|e| e.to_string()));
        if let Err(reason) = step {
            outcome = Err(reason);
            break;
        }
        *seq += 1;
        applied += 1;
    }
    batch.truncate(applied);
    hub.publish_records(batch);
    outcome
}

/// Executes a [`Request::Promote`] against a (not yet promoted) follower
/// loop at `at`: refuse before bootstrap or under a non-advancing term,
/// otherwise enable the local journal above the consumed cursor, and move
/// `at` to the `(epoch, term)` the node now leads under.
fn promote<E>(
    service: &mut ProjectService<E>,
    request: &Request,
    at: &mut Position,
    status: &FollowerStatus,
) -> Response
where
    E: ScriptExecutor + Default,
{
    let Request::Promote { dir, every, term } = request else {
        unreachable!("caller matched Promote");
    };
    if !at.bootstrapped {
        return Response::Error(ApiError::Lagging {
            epoch: at.epoch,
            seq: at.seq,
        });
    }
    if *term <= at.term {
        return Response::Error(ApiError::StaleTerm {
            term: *term,
            current: at.term,
        });
    }
    // The epoch floor: our reign's first epoch strictly exceeds the one
    // we consumed, so no (epoch, seq) coordinate is ever published twice
    // with different contents.
    let promoted = service.server_mut().expect("bootstrapped").promote_journal(
        dir,
        *every,
        at.epoch + 1,
        *term,
    );
    match promoted {
        Ok(epoch) => {
            *at = Position {
                epoch,
                seq: 0,
                term: *term,
                promoted: true,
                ..*at
            };
            status.set(|st| {
                st.at = *at;
                st.leader_up = true;
                st.needs_reset = false;
            });
            Response::Promoted { epoch, term: *term }
        }
        Err(e) => Response::Error(e.into()),
    }
}

/// Executes one client request under follower rules at `at`: mutations
/// are rejected toward the leader, reads wait for the first bootstrap,
/// and everything else runs against the replica. [`Request::Snapshot`] is
/// allowed — configurations are service-local pins, not database
/// mutations — so analysts can pin closures on a replica.
/// [`Request::TailFrom`] is accepted once bootstrapped: the fan-out
/// handshake — downstream replicas tail this node's hub exactly as it
/// tails the leader.
fn follower_call<E>(
    service: &mut ProjectService<E>,
    request: Request,
    leader: &str,
    at: Position,
) -> Response
where
    E: ScriptExecutor + Default,
{
    let lagging = || {
        Response::Error(ApiError::Lagging {
            epoch: at.epoch,
            seq: at.seq,
        })
    };
    if matches!(request, Request::TailFrom { .. }) {
        // The hub republishes exactly what the loop applied, so the
        // committed fan-out position IS the applied cursor.
        return if at.bootstrapped {
            Response::Tailing {
                epoch: at.epoch,
                seq: at.seq,
            }
        } else {
            lagging()
        };
    }
    let read_only = !request.is_mutation() || matches!(request, Request::Snapshot { .. });
    if !read_only {
        return Response::Error(ApiError::ReadOnly {
            leader: leader.to_string(),
        });
    }
    if !at.bootstrapped {
        return lagging();
    }
    match service.call(request) {
        Response::Stat { mut stat } => {
            // The service reports the server's own (journal-less) view;
            // the loop knows the replication truth.
            stat.term = at.term;
            stat.role = NodeRole::Follower;
            stat.cursor_epoch = at.epoch;
            stat.cursor_seq = at.seq;
            Response::Stat { stat }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::api::Request;
    use crate::engine::tail::{read_owed, TailCursor};
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

    /// Feeds what `hub` owes at `cursor` to a follower loop as the tail
    /// pump would: read back off the wire, a batch of records at a time.
    /// Returns whether anything but a ping was fed.
    fn feed_owed(hub: &TailHub, cursor: &mut TailCursor, feed: &Sender<FollowerMsg>) -> bool {
        let mut progressed = false;
        for item in read_owed(hub, cursor, Duration::from_millis(1)).unwrap() {
            if item != TailItem::Ping {
                progressed = true;
                feed.send(FollowerMsg::Tail(item)).unwrap();
            }
        }
        progressed
    }

    /// Drives a journaled leader and hand-pumps its hub frames into a
    /// follower loop — the whole replication path minus the socket.
    #[test]
    fn follower_replays_hub_frames_to_byte_identity() {
        let dir = std::env::temp_dir().join("damocles-follower-unit");
        let _ = std::fs::remove_dir_all(&dir);
        let mut leader: ProjectService = ProjectService::new();
        assert!(!leader
            .call(Request::Init {
                source: SIMPLE.into()
            })
            .is_error());
        assert!(!leader
            .call(Request::EnableJournal {
                dir: dir.display().to_string(),
                every: 1_000_000,
            })
            .is_error());
        let hub = leader.tail_hub();

        let follower_service: ProjectService =
            ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
        let (handle, join) = spawn_follower_loop(follower_service, "leader:0");
        let feed = handle.feed();

        // Mutate the leader; pump whatever the hub committed. The cursor
        // persists across pumps, like a live subscriber's would.
        let mut tail_cursor = TailCursor { epoch: 0, seq: 0 };
        let mut pump =
            |feed: &Sender<FollowerMsg>| while feed_owed(&hub, &mut tail_cursor, feed) {};
        for i in 0..4 {
            let resp = leader.call(Request::Checkin {
                block: format!("blk{i}"),
                view: "HDL_model".into(),
                user: "yves".into(),
                payload: vec![i],
            });
            assert!(!resp.is_error(), "{resp:?}");
        }
        assert!(!leader.call(Request::ProcessAll).is_error());
        pump(&feed);

        let status = handle.status();
        let target = leader
            .server()
            .map(|s| (s.journal_epoch().unwrap(), s.journal_records().unwrap()))
            .unwrap();
        assert!(status.wait_applied(target.0, target.1, Duration::from_secs(5)));
        assert_eq!(
            handle.image().unwrap(),
            leader.server().unwrap().project_image(),
            "follower image is byte-identical to the leader's"
        );

        // Reads are served from the replica; mutations bounce.
        let session = handle.session();
        match session.call(Request::Show {
            oid: Oid::new("blk0", "HDL_model", 1),
        }) {
            Response::Props { .. } => {}
            other => panic!("{other:?}"),
        }
        match session.call(Request::Checkin {
            block: "x".into(),
            view: "HDL_model".into(),
            user: "eve".into(),
            payload: vec![],
        }) {
            Response::Error(ApiError::ReadOnly { leader }) => assert_eq!(leader, "leader:0"),
            other => panic!("{other:?}"),
        }

        // A checkpoint rolls the epoch; the caught-up follower takes the
        // cheap marker and stays byte-identical.
        assert!(matches!(
            leader.call(Request::Checkpoint),
            Response::Epoch { .. }
        ));
        leader.call(Request::Checkin {
            block: "post-fold".into(),
            view: "HDL_model".into(),
            user: "yves".into(),
            payload: vec![9],
        });
        leader.call(Request::ProcessAll);
        pump(&feed);
        let target = leader
            .server()
            .map(|s| (s.journal_epoch().unwrap(), s.journal_records().unwrap()))
            .unwrap();
        assert!(status.wait_applied(target.0, target.1, Duration::from_secs(5)));
        assert_eq!(
            handle.image().unwrap(),
            leader.server().unwrap().project_image()
        );

        drop((session, feed, handle));
        join.join().unwrap();
    }

    /// A record that fails verification poisons the replica: the status
    /// demands a reset (with an unservable handshake cursor so the
    /// leader must answer with a snapshot), reads degrade to `Lagging`,
    /// and a fresh `Reset` frame fully recovers the follower.
    #[test]
    fn divergent_record_flags_reset_and_recovers() {
        let dir = std::env::temp_dir().join("damocles-follower-diverge");
        let _ = std::fs::remove_dir_all(&dir);
        let mut leader: ProjectService = ProjectService::new();
        leader.call(Request::Init {
            source: SIMPLE.into(),
        });
        leader.call(Request::EnableJournal {
            dir: dir.display().to_string(),
            every: 1_000_000,
        });
        let hub = leader.tail_hub();
        let (epoch, snapshot_image) = {
            let srv = leader.server().unwrap();
            (srv.journal_epoch().unwrap(), srv.project_image())
        };

        let follower_service: ProjectService =
            ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
        let (handle, join) = spawn_follower_loop(follower_service, "leader:2");
        let feed = handle.feed();
        let status = handle.status();
        feed.send(FollowerMsg::Tail(TailItem::Reset {
            epoch,
            term: 1,
            image: snapshot_image.clone(),
        }))
        .unwrap();
        assert!(status.wait_applied(epoch, 0, Duration::from_secs(5)));
        assert!(!status.needs_reset());

        // A garbled record (bad checksum) cannot apply.
        feed.send(FollowerMsg::Tail(TailItem::Records {
            epoch,
            term: 1,
            batch: batch_of(&["0000000000000000 0 create bad,v,1"]),
        }))
        .unwrap();
        let session = handle.session();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !status.needs_reset() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(status.needs_reset(), "divergence demands a reset");
        assert_eq!(status.handshake_cursor(), (u64::MAX, 0));
        assert!(hub.position().is_some_and(|(e, _)| e < u64::MAX));
        match session.call(Request::Stat) {
            Response::Error(ApiError::Lagging { .. }) => {}
            other => panic!("{other:?}"),
        }

        // The reset repairs the replica and clears the flag.
        feed.send(FollowerMsg::Tail(TailItem::Reset {
            epoch,
            term: 1,
            image: snapshot_image,
        }))
        .unwrap();
        assert!(status.wait_applied(epoch, 0, Duration::from_secs(5)));
        assert!(!status.needs_reset());
        assert!(matches!(session.call(Request::Stat), Response::Stat { .. }));
        drop((session, feed, handle));
        join.join().unwrap();
    }

    /// A journaled leader with a few check-ins and a drain behind it:
    /// its epoch, snapshot image and committed record lines.
    fn leader_with_records(dir: &std::path::Path) -> (ProjectService, u64, String, Vec<String>) {
        let _ = std::fs::remove_dir_all(dir);
        let mut leader: ProjectService = ProjectService::new();
        leader.call(Request::Init {
            source: SIMPLE.into(),
        });
        leader.call(Request::EnableJournal {
            dir: dir.display().to_string(),
            every: 1_000_000,
        });
        let (epoch, snapshot) = {
            let srv = leader.server().unwrap();
            (srv.journal_epoch().unwrap(), srv.project_image())
        };
        for i in 0..3 {
            leader.call(Request::Checkin {
                block: format!("blk{i}"),
                view: "HDL_model".into(),
                user: "yves".into(),
                payload: vec![i],
            });
        }
        leader.call(Request::ProcessAll);
        let mut cursor = TailCursor { epoch, seq: 0 };
        let items = read_owed(&leader.tail_hub(), &mut cursor, Duration::from_millis(1)).unwrap();
        let [TailItem::Records { batch, .. }] = items.as_slice() else {
            panic!("{items:?}");
        };
        let lines = (0..batch.len())
            .map(|r| batch.line(r).to_string())
            .collect();
        (leader, epoch, snapshot, lines)
    }

    fn batch_of(lines: &[impl AsRef<str>]) -> RecordBatch {
        let mut batch = RecordBatch::default();
        for line in lines {
            batch.push_line(line.as_ref());
        }
        batch
    }

    /// `lines` with record `bad`'s checksum broken.
    fn with_bad_checksum(lines: &[String], bad: usize) -> Vec<String> {
        let mut lines = lines.to_vec();
        let flipped = if lines[bad].starts_with('0') {
            "1"
        } else {
            "0"
        };
        lines[bad].replace_range(0..1, flipped);
        lines
    }

    #[test]
    fn apply_batch_republishes_only_the_applied_prefix() {
        let dir = std::env::temp_dir().join("damocles-follower-prefix");
        let (_leader, epoch, snapshot, lines) = leader_with_records(&dir);
        assert!(lines.len() > 4, "{lines:?}");
        let mut srv = ProjectServer::from_source(SIMPLE).unwrap();
        srv.adopt_replica_image(&snapshot).unwrap();
        let mut tags = srv.replica_link_tags();
        let hub = TailHub::new();
        hub.publish_enable(epoch, 1, snapshot.into());
        let mut seq = 0;
        let failed = apply_batch(
            &mut srv,
            &mut tags,
            &hub,
            &mut seq,
            batch_of(&with_bad_checksum(&lines, 3)),
        );
        assert!(failed.unwrap_err().contains("checksum"));
        assert_eq!(seq, 3, "the cursor names the failed record");
        assert_eq!(hub.position(), Some((epoch, 3)));
        let mut cursor = TailCursor { epoch, seq: 0 };
        let republished = TailItem::Records {
            epoch,
            term: 1,
            batch: batch_of(&lines[..3]),
        };
        assert_eq!(
            read_owed(&hub, &mut cursor, Duration::from_millis(1)),
            Ok(vec![republished])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch whose fourth record fails: the three before it apply, the
    /// cursor stops at the failed one, the replica demands a reset and
    /// its subtree's stream ends; a re-bootstrap and the good batch reach
    /// the leader's image byte for byte.
    #[test]
    fn a_record_failing_mid_batch_leaves_the_cursor_at_the_last_good_one() {
        let dir = std::env::temp_dir().join("damocles-follower-mid-batch");
        let (leader, epoch, snapshot, lines) = leader_with_records(&dir);
        let follower_service: ProjectService =
            ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
        let own_hub = follower_service.tail_hub();
        let (handle, join) = spawn_follower_loop(follower_service, "leader:5");
        let feed = handle.feed();
        let status = handle.status();
        let reset = || {
            FollowerMsg::Tail(TailItem::Reset {
                epoch,
                term: 1,
                image: snapshot.clone(),
            })
        };
        feed.send(reset()).unwrap();
        feed.send(FollowerMsg::Tail(TailItem::Records {
            epoch,
            term: 1,
            batch: batch_of(&with_bad_checksum(&lines, 3)),
        }))
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !status.needs_reset() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(status.needs_reset());
        assert!(!status.bootstrapped());
        assert_eq!(status.cursor(), (epoch, 3));
        assert_eq!(status.state.lock().unwrap().backlog, 0);
        assert_eq!(own_hub.position(), None, "the subtree's stream ended");

        feed.send(reset()).unwrap();
        feed.send(FollowerMsg::Tail(TailItem::Records {
            epoch,
            term: 1,
            batch: batch_of(&lines),
        }))
        .unwrap();
        assert!(status.wait_applied(epoch, lines.len() as u64, Duration::from_secs(5)));
        assert!(!status.needs_reset());
        assert_eq!(
            handle.image().unwrap(),
            leader.server().unwrap().project_image()
        );
        assert_eq!(own_hub.position(), Some((epoch, lines.len() as u64)));
        drop((feed, handle));
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pump waiting for room wakes when the loop takes records, and
    /// never waits past a promotion or the loop's end.
    #[test]
    fn waiting_for_room_ends_at_a_take_a_promotion_or_the_loops_exit() {
        let full = || {
            let status = Arc::new(FollowerStatus::default());
            status.add_backlog(MAX_TAIL_BACKLOG);
            status
        };
        let waiter = |status: &Arc<FollowerStatus>| {
            let status = Arc::clone(status);
            std::thread::spawn(move || status.wait_for_room())
        };
        let ends_with = |waiter: std::thread::JoinHandle<bool>, expected: bool| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !waiter.is_finished() {
                assert!(std::time::Instant::now() < deadline, "the wait did not end");
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(waiter.join().unwrap(), expected);
        };
        let status = FollowerStatus::default();
        status.add_backlog(MAX_TAIL_BACKLOG - 1);
        assert!(status.wait_for_room(), "below the bound: no wait");

        let status = full();
        let waiting = waiter(&status);
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiting.is_finished(), "at the bound the pump waits");
        status.set(|st| st.took(1));
        ends_with(waiting, true);

        let status = full();
        let waiting = waiter(&status);
        status.set(|st| st.at.promoted = true);
        ends_with(waiting, false);

        // A loop that ends (here at once: its inbox has no sender).
        let status = full();
        let waiting = waiter(&status);
        let (tx, rx) = unbounded::<FollowerMsg>();
        drop(tx);
        let service: ProjectService =
            ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
        run_follower_loop(service, &rx, "leader:6", &status);
        ends_with(waiting, false);
    }

    #[test]
    fn reads_before_bootstrap_are_lagging() {
        let service: ProjectService =
            ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
        let (handle, join) = spawn_follower_loop(service, "leader:1");
        let session = handle.session();
        match session.call(Request::Stat) {
            Response::Error(ApiError::Lagging { epoch: 0, seq: 0 }) => {}
            other => panic!("{other:?}"),
        }
        // Fan-out handshakes also wait for the bootstrap.
        match session.call(Request::TailFrom { epoch: 0, seq: 0 }) {
            Response::Error(ApiError::Lagging { .. }) => {}
            other => panic!("{other:?}"),
        }
        drop((session, handle));
        join.join().unwrap();
    }

    /// Promotion end-to-end on the loop: a caught-up follower refuses a
    /// non-advancing term, accepts a strictly higher one, then serves the
    /// full mutation surface under its own journal — and refuses frames
    /// the deposed leader keeps sending (split-brain witness).
    #[test]
    fn promotion_takes_over_and_fences_the_old_stream() {
        let dir = std::env::temp_dir().join("damocles-follower-promote");
        let _ = std::fs::remove_dir_all(&dir);
        let leader_dir = dir.join("leader");
        let promoted_dir = dir.join("promoted");
        let mut leader: ProjectService = ProjectService::new();
        leader.call(Request::Init {
            source: SIMPLE.into(),
        });
        leader.call(Request::EnableJournal {
            dir: leader_dir.display().to_string(),
            every: 1_000_000,
        });
        leader.call(Request::Checkin {
            block: "pre".into(),
            view: "HDL_model".into(),
            user: "yves".into(),
            payload: vec![1],
        });
        leader.call(Request::ProcessAll);
        let hub = leader.tail_hub();

        let follower_service: ProjectService =
            ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
        let (handle, join) = spawn_follower_loop(follower_service, "leader:9");
        let feed = handle.feed();
        let status = handle.status();
        let session = handle.session();

        // Promotion before bootstrap is refused: nothing to lead yet.
        match session.call(Request::Promote {
            dir: promoted_dir.display().to_string(),
            every: 1_000_000,
            term: 2,
        }) {
            Response::Error(ApiError::Lagging { .. }) => {}
            other => panic!("{other:?}"),
        }

        // Catch the follower up off the live hub (a Reset and the
        // records come from separate pulls, like a live subscriber's).
        let mut tail_cursor = TailCursor { epoch: 0, seq: 0 };
        let consumed = {
            let srv = leader.server().unwrap();
            (srv.journal_epoch().unwrap(), srv.journal_records().unwrap())
        };
        while feed_owed(&hub, &mut tail_cursor, &feed) {}
        assert!(status.wait_applied(consumed.0, consumed.1, Duration::from_secs(5)));
        assert_eq!(status.term(), 1);

        // A term that does not strictly advance the reign is refused.
        match session.call(Request::Promote {
            dir: promoted_dir.display().to_string(),
            every: 1_000_000,
            term: 1,
        }) {
            Response::Error(ApiError::StaleTerm {
                term: 1,
                current: 1,
            }) => {}
            other => panic!("{other:?}"),
        }
        assert!(!status.promoted());

        // Term 2 takes over: epoch strictly above the consumed one.
        let new_epoch = match session.call(Request::Promote {
            dir: promoted_dir.display().to_string(),
            every: 1_000_000,
            term: 2,
        }) {
            Response::Promoted { epoch, term: 2 } => epoch,
            other => panic!("{other:?}"),
        };
        assert!(new_epoch > consumed.0);
        assert!(status.promoted());
        assert_eq!(status.term(), 2);

        // Full leader surface: mutations commit locally now.
        let resp = session.call(Request::Checkin {
            block: "post-promote".into(),
            view: "HDL_model".into(),
            user: "amy".into(),
            payload: vec![2],
        });
        assert!(!resp.is_error(), "{resp:?}");
        match session.call(Request::Stat) {
            Response::Stat { stat } => {
                assert_eq!(stat.term, 2);
                assert_eq!(stat.role, NodeRole::Leader);
            }
            other => panic!("{other:?}"),
        }

        // The deposed leader's stream is refused, loudly counted.
        let before = status.stale_frames();
        feed.send(FollowerMsg::Tail(TailItem::Records {
            epoch: consumed.0,
            term: 1,
            batch: batch_of(&["deadbeef 99 junk"]),
        }))
        .unwrap();
        feed.send(FollowerMsg::Tail(TailItem::Epoch {
            epoch: consumed.0 + 7,
            term: 1,
        }))
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while status.stale_frames() < before + 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(status.stale_frames(), before + 2);
        // The refused frames changed nothing.
        match session.call(Request::Stat) {
            Response::Stat { stat } => assert_eq!(stat.term, 2),
            other => panic!("{other:?}"),
        }
        drop((session, feed, handle));
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Stale-term frames never touch a (not promoted) follower either:
    /// once the stream shows term 2, a term-1 record is refused and
    /// counted rather than applied.
    #[test]
    fn stale_term_frames_are_refused_and_counted() {
        let follower_service: ProjectService =
            ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
        let (handle, join) = spawn_follower_loop(follower_service, "leader:3");
        let feed = handle.feed();
        let status = handle.status();
        let image = ProjectServer::from_source(SIMPLE).unwrap().project_image();
        feed.send(FollowerMsg::Tail(TailItem::Reset {
            epoch: 5,
            term: 2,
            image,
        }))
        .unwrap();
        assert!(status.wait_applied(5, 0, Duration::from_secs(5)));
        assert_eq!(status.term(), 2);

        feed.send(FollowerMsg::Tail(TailItem::Records {
            epoch: 5,
            term: 1,
            batch: batch_of(&["deadbeef 0 junk"]),
        }))
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while status.stale_frames() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(status.stale_frames(), 1);
        assert_eq!(status.cursor(), (5, 0), "the stale record did not apply");
        drop((feed, handle));
        join.join().unwrap();
    }

    /// A promoted follower group-commits like a leader. One queued batch
    /// bootstraps, promotes, checks in and asks for `stat`: the `stat`
    /// runs in the check-in's window, before that window's flush, so it
    /// still reports the promotion's record count (none). The promoted
    /// directory then recovers to the image the follower served.
    #[test]
    fn promoted_follower_group_commits_its_windows() {
        let dir = std::env::temp_dir().join("damocles-follower-group-commit");
        let _ = std::fs::remove_dir_all(&dir);
        let (tx, rx) = unbounded();
        let client = |request| {
            let (reply, reply_rx) = unbounded();
            let session = crate::engine::api::SessionId(1);
            tx.send(FollowerMsg::Client(Envelope::new(session, request, reply)))
                .unwrap();
            reply_rx
        };
        tx.send(FollowerMsg::Tail(TailItem::Reset {
            epoch: 3,
            term: 1,
            image: ProjectServer::from_source(SIMPLE).unwrap().project_image(),
        }))
        .unwrap();
        let promoted = client(Request::Promote {
            dir: dir.display().to_string(),
            every: 1_000_000,
            term: 2,
        });
        let created = client(Request::Checkin {
            block: "cpu".into(),
            view: "HDL_model".into(),
            user: "amy".into(),
            payload: vec![7],
        });
        let stat = client(Request::Stat);
        let (image_tx, image_rx) = unbounded();
        tx.send(FollowerMsg::Inspect(image_tx)).unwrap();
        drop(tx);
        let status = FollowerStatus::default();
        let service: ProjectService =
            ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
        run_follower_loop(service, &rx, "leader:4", &status);

        assert_eq!(
            promoted.recv().unwrap(),
            Response::Promoted { epoch: 4, term: 2 }
        );
        assert!(status.promoted());
        assert!(matches!(created.recv().unwrap(), Response::Created { .. }));
        match stat.recv().unwrap() {
            Response::Stat { stat } => assert_eq!(
                stat.journal_records,
                Some(0),
                "the check-in was flushed before the window settled"
            ),
            other => panic!("{other:?}"),
        }
        let served = image_rx.recv().unwrap();
        let mut recovered: ProjectService = ProjectService::new();
        recovered.call(Request::Init {
            source: SIMPLE.into(),
        });
        let resp = recovered.call(Request::Recover {
            dir: dir.display().to_string(),
            every: 1_000_000,
        });
        assert!(matches!(resp, Response::Recovered { .. }), "{resp:?}");
        assert_eq!(recovered.server().unwrap().project_image(), served);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

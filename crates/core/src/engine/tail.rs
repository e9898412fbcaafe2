//! Live journal tailing: the publication side of journal-aware
//! replication.
//!
//! A journaling leader already writes every mutation as a checksummed
//! journal record (`damocles_meta::journal`); replication is "merely"
//! making that record stream consumable by other nodes *as it is
//! committed*. This module provides the in-process half:
//!
//! * [`TailHub`] — a shared buffer of the current epoch's **committed**
//!   journal records plus the checkpoint snapshot they extend. The
//!   [`ProjectServer`](crate::engine::server::ProjectServer) publishes
//!   into it at exactly three points: journal enable, each group-commit
//!   flush (*after* the fsync — a record a tailer sees is always on the
//!   leader's stable storage), and each checkpoint (epoch rollover).
//! * [`TailFrame`] — the line-framed stream elements a subscriber
//!   receives: a full snapshot bootstrap, a committed record, an epoch
//!   rollover marker, or a keep-alive ping.
//! * [`TailCursor`] — a subscriber's `(epoch, seq)` position;
//!   [`TailHub::next_frames`] blocks until the hub has something past it.
//!
//! # Catch-up semantics
//!
//! A subscriber at `(epoch, seq)` is served incrementally when possible
//! and re-bootstrapped when not:
//!
//! * same epoch, `seq` ≤ committed count → the records from `seq` on;
//! * exactly at the end of the *previous* epoch when a checkpoint rolled
//!   it over → a cheap [`TailFrame::Epoch`] marker (the follower's own
//!   image already equals the new snapshot, so only the cursor moves);
//! * anything else (stale epoch, future position, brand-new follower) →
//!   [`TailFrame::Reset`] carrying the current checkpoint snapshot, then
//!   records from sequence 0.
//!
//! The hub retains only the current epoch's records (bounded by the
//! checkpoint fold policy: about one snapshot's worth of record bytes,
//! or fewer than its record floor) plus one `(epoch, final-count)` pair
//! for the marker optimization — memory stays O(snapshot), never
//! O(history).
//!
//! # Terms
//!
//! Every substantive frame carries the leadership **term** the publisher
//! journals under (see `DESIGN.md` §13). Subscribers track the highest
//! term they have seen and refuse frames from an older one — a deposed
//! leader's stream, however it reaches them, can never overwrite state
//! the new reign replicated. The hub is node-agnostic: a promoted
//! follower republishes through its own hub under the bumped term, so
//! replicas form a tree and a mid-tree promotion re-parents its subtree.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use damocles_meta::journal::RecordBatch;

// The request codec's word helpers (`%` = empty string, shared
// percent-escaping) — one implementation per crate, so the frame codec
// cannot drift from the request codec.
use crate::engine::api::{dec_str, enc_str_into};

/// One element of a tail stream, in its line-framed wire form (see
/// `PROTOCOL.md` §5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailFrame {
    /// Adopt this checkpoint snapshot (a `persist` project image) as the
    /// follower's whole state; records of `epoch` follow from sequence 0.
    Reset {
        /// The snapshot's checkpoint epoch.
        epoch: u64,
        /// The leadership term the publisher journals under.
        term: u64,
        /// The full project image (`damocles_meta::persist::save_project`
        /// text plus the epoch/term marker lines).
        image: String,
    },
    /// One committed journal record of `epoch`, exactly as it sits in the
    /// leader's journal file: `<fnv1a> <seq> <op…>` (verify and decode
    /// with [`damocles_meta::journal::decode_record`]).
    Record {
        /// The epoch this record extends.
        epoch: u64,
        /// The leadership term the record was committed under.
        term: u64,
        /// The record line (no trailing newline).
        line: String,
    },
    /// The leader checkpointed: every record streamed so far is folded
    /// into the snapshot at `epoch`. A caught-up follower's image already
    /// equals that snapshot — reset the cursor to `(epoch, 0)` and re-tag
    /// links in image order, exactly like the leader did.
    Epoch {
        /// The new checkpoint epoch.
        epoch: u64,
        /// The leadership term the checkpoint was written under.
        term: u64,
    },
    /// Keep-alive: nothing new within the wait window. Lets the leader
    /// detect dead tailer connections and followers detect stalls.
    Ping,
}

impl TailFrame {
    /// Renders the single-line wire form (no trailing newline).
    ///
    /// ```
    /// use blueprint_core::engine::tail::TailFrame;
    ///
    /// let frame = TailFrame::Epoch { epoch: 4, term: 2 };
    /// assert_eq!(frame.encode(), "tail-epoch 4 2");
    /// assert_eq!(TailFrame::decode("tail-epoch 4 2"), Ok(frame));
    /// ```
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`TailFrame::encode`]`()` to `out`.
    fn encode_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            TailFrame::Reset { epoch, term, image } => {
                let _ = write!(out, "tail-reset {epoch} {term} ");
                enc_str_into(out, image);
            }
            TailFrame::Record { epoch, term, line } => record_frame(out, *epoch, *term, line),
            TailFrame::Epoch { epoch, term } => {
                let _ = write!(out, "tail-epoch {epoch} {term}");
            }
            TailFrame::Ping => out.push_str("tail-ping"),
        }
    }

    /// Parses the single-line wire form.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the line is not a tail frame (a
    /// follower treats that as a broken stream and reconnects).
    pub fn decode(line: &str) -> Result<TailFrame, String> {
        let (keyword, rest) = match line.split_once(' ') {
            Some((k, r)) => (k, r),
            None => (line, ""),
        };
        let num = |what: &str, w: &str| {
            w.parse::<u64>()
                .map_err(|_| format!("bad tail {what} `{w}`"))
        };
        // `<epoch> <term> <rest…>` — the shared prefix of every
        // substantive frame.
        let coords = |rest: &'_ str| -> Result<(u64, u64, String), String> {
            let mut words = rest.splitn(3, ' ');
            let epoch = num("epoch", words.next().unwrap_or(""))?;
            let term = num(
                "term",
                words.next().ok_or_else(|| "missing term".to_string())?,
            )?;
            Ok((epoch, term, words.next().unwrap_or("").to_string()))
        };
        match keyword {
            "tail-reset" => {
                let (epoch, term, image) = coords(rest).map_err(|e| format!("tail-reset: {e}"))?;
                if image.is_empty() {
                    return Err("tail-reset missing image".to_string());
                }
                Ok(TailFrame::Reset {
                    epoch,
                    term,
                    image: dec_str(&image)?,
                })
            }
            "tail-rec" => {
                let (epoch, term, line) = coords(rest).map_err(|e| format!("tail-rec: {e}"))?;
                if line.is_empty() {
                    return Err("tail-rec missing record".to_string());
                }
                Ok(TailFrame::Record { epoch, term, line })
            }
            "tail-epoch" => {
                let (epoch, term, extra) = coords(rest).map_err(|e| format!("tail-epoch: {e}"))?;
                if !extra.is_empty() {
                    return Err(format!("tail-epoch trailing `{extra}`"));
                }
                Ok(TailFrame::Epoch { epoch, term })
            }
            "tail-ping" => Ok(TailFrame::Ping),
            other => Err(format!("unknown tail frame `{other}`")),
        }
    }
}

/// Appends the wire form of a [`TailFrame::Record`] (no newline).
fn record_frame(out: &mut String, epoch: u64, term: u64, line: &str) {
    use std::fmt::Write as _;
    let _ = write!(out, "tail-rec {epoch} {term} {line}");
}

/// A subscriber's position in the stream: the next record it expects is
/// `seq` of `epoch`. A brand-new follower starts at `(0, 0)` and lets the
/// first [`TailFrame::Reset`] place it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailCursor {
    /// The checkpoint epoch the follower is applying records of.
    pub epoch: u64,
    /// The next record sequence number expected.
    pub seq: u64,
}

/// Why a tail subscription ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailEnded {
    /// Journaling was disabled on the leader (poisoned or the project was
    /// swapped); there is no committed stream to follow any more.
    Disabled,
    /// The leader's command loop shut down.
    Closed,
}

#[derive(Debug, Default)]
struct TailState {
    enabled: bool,
    closed: bool,
    epoch: u64,
    /// Leadership term the published records are committed under.
    term: u64,
    snapshot: String,
    /// Committed records of `epoch` (`<fnv1a> <seq> <op…>` lines), kept
    /// as the buffers the journal writer put on disk, each paired with
    /// the sequence number of its first record. Only fsynced batches are
    /// ever pushed here.
    batches: Vec<(u64, RecordBatch)>,
    /// Records across `batches` (== the next sequence number).
    committed: u64,
    /// `(epoch, final record count)` of the epoch the last checkpoint
    /// folded — the seamless-marker fast path for caught-up subscribers.
    prev: Option<(u64, u64)>,
}

impl TailState {
    /// Drops the epoch's records.
    fn clear_records(&mut self) {
        self.batches.clear();
        self.committed = 0;
    }

    /// The record lines from sequence `from` (< `committed`) to the end
    /// of the epoch, sliced out of the stored batches.
    fn lines_from(&self, from: u64) -> impl Iterator<Item = &str> {
        let first = self.batches.partition_point(|(start, _)| *start <= from) - 1;
        self.batches[first..]
            .iter()
            .flat_map(move |(start, batch)| {
                let skip = from.saturating_sub(*start) as usize;
                (skip..batch.len()).map(|i| batch.line(i))
            })
    }

    /// Record frames from sequence `from` (< `committed`) to the end of
    /// the epoch.
    fn frames_from(&self, from: u64) -> Vec<TailFrame> {
        self.lines_from(from)
            .map(|line| TailFrame::Record {
                epoch: self.epoch,
                term: self.term,
                line: line.to_string(),
            })
            .collect()
    }

    /// [`TailState::frames_from`] in wire form, appended to `out` straight
    /// from the stored batches: one newline-terminated line per frame.
    fn render_from(&self, from: u64, out: &mut String) {
        for line in self.lines_from(from) {
            record_frame(out, self.epoch, self.term, line);
            out.push('\n');
        }
    }
}

/// What a subscriber is owed next: one frame, or the committed records
/// from a sequence number on (read while the hub stays locked).
enum Next<'a> {
    Frame(TailFrame),
    Records(MutexGuard<'a, TailState>, u64),
}

/// The shared publication point between one journaling leader and any
/// number of tail subscribers. See the module docs for the protocol.
#[derive(Debug, Default)]
pub struct TailHub {
    state: Mutex<TailState>,
    wake: Condvar,
}

impl TailHub {
    /// A hub with no journal behind it (subscriptions end with
    /// [`TailEnded::Disabled`] until a journal is enabled).
    pub fn new() -> Self {
        Self::default()
    }

    fn notify(&self) {
        self.wake.notify_all();
    }

    /// Journaling was (re-)enabled: `snapshot` is the initial checkpoint
    /// image at `epoch`, journaled under leadership `term`, and the
    /// journal is empty.
    pub fn publish_enable(&self, epoch: u64, term: u64, snapshot: String) {
        let mut st = self.state.lock().expect("tail hub lock");
        st.enabled = true;
        st.epoch = epoch;
        st.term = term;
        st.snapshot = snapshot;
        st.clear_records();
        st.prev = None;
        drop(st);
        self.notify();
    }

    /// A batch of records reached stable storage (the group-commit fsync
    /// returned). `batch` holds the records in sequence order, continuing
    /// the current epoch's count, as the very buffer written to the
    /// journal file; the hub keeps it whole.
    pub fn publish_records(&self, batch: RecordBatch) {
        let mut st = self.state.lock().expect("tail hub lock");
        if !st.enabled || batch.is_empty() {
            return;
        }
        let start = st.committed;
        st.committed += batch.len() as u64;
        st.batches.push((start, batch));
        drop(st);
        self.notify();
    }

    /// One record line (without its newline) was applied and is to be
    /// relayed — a follower republishing its leader's stream record by
    /// record. The line joins the newest batch rather than forming its
    /// own.
    pub fn publish_line(&self, line: &str) {
        let mut st = self.state.lock().expect("tail hub lock");
        if !st.enabled {
            return;
        }
        let start = st.committed;
        st.committed += 1;
        match st.batches.last_mut() {
            Some((_, batch)) => batch.push_line(line),
            None => {
                let mut batch = RecordBatch::default();
                batch.push_line(line);
                st.batches.push((start, batch));
            }
        }
        drop(st);
        self.notify();
    }

    /// A checkpoint folded the journal into `snapshot` at `epoch`, under
    /// leadership `term`. `seamless` means every previously committed
    /// record is represented in the stream (nothing was dropped outside
    /// it), so a caught-up subscriber may take the cheap
    /// [`TailFrame::Epoch`] marker instead of re-bootstrapping.
    pub fn publish_checkpoint(&self, epoch: u64, term: u64, snapshot: String, seamless: bool) {
        let mut st = self.state.lock().expect("tail hub lock");
        // The marker shortcut only holds within one reign: a follower at
        // the fold point of an older term must re-bootstrap instead.
        st.prev = (seamless && st.term == term).then_some((st.epoch, st.committed));
        st.enabled = true;
        st.epoch = epoch;
        st.term = term;
        st.snapshot = snapshot;
        st.clear_records();
        drop(st);
        self.notify();
    }

    /// Journaling was disabled (poisoned, or the project server was
    /// swapped out). Live subscriptions end with [`TailEnded::Disabled`].
    pub fn publish_disable(&self) {
        let mut st = self.state.lock().expect("tail hub lock");
        st.enabled = false;
        st.snapshot.clear();
        st.clear_records();
        st.prev = None;
        drop(st);
        self.notify();
    }

    /// The leader is shutting down; all subscriptions end.
    pub fn close(&self) {
        self.state.lock().expect("tail hub lock").closed = true;
        self.notify();
    }

    /// The committed stream position `(epoch, record count)`, or `None`
    /// when no journal is enabled — the [`Tailing`] handshake payload.
    ///
    /// [`Tailing`]: crate::engine::api::Response::Tailing
    pub fn position(&self) -> Option<(u64, u64)> {
        let st = self.state.lock().expect("tail hub lock");
        st.enabled.then_some((st.epoch, st.committed))
    }

    /// The leadership term the published stream is committed under, or
    /// `None` when no journal is enabled.
    pub fn term(&self) -> Option<u64> {
        let st = self.state.lock().expect("tail hub lock");
        st.enabled.then_some(st.term)
    }

    /// Blocks until the stream has something past `cursor` (or `timeout`
    /// elapses — then a single [`TailFrame::Ping`] is returned so the
    /// caller can probe its transport). Advances `cursor` past whatever
    /// it returns.
    ///
    /// # Errors
    ///
    /// [`TailEnded`] when the stream is over; the subscriber should
    /// surface that to its follower and disconnect.
    pub fn next_frames(
        &self,
        cursor: &mut TailCursor,
        timeout: Duration,
    ) -> Result<Vec<TailFrame>, TailEnded> {
        Ok(match self.next(cursor, timeout)? {
            Next::Frame(frame) => vec![frame],
            Next::Records(st, from) => st.frames_from(from),
        })
    }

    /// [`TailHub::next_frames`] in wire form: appends the frames to `out`,
    /// one newline-terminated line each. Record frames are rendered
    /// straight from the committed batches, with no per-record copy in
    /// between.
    ///
    /// # Errors
    ///
    /// As [`TailHub::next_frames`]; `out` is then unchanged.
    pub fn next_wire(
        &self,
        cursor: &mut TailCursor,
        timeout: Duration,
        out: &mut String,
    ) -> Result<(), TailEnded> {
        match self.next(cursor, timeout)? {
            Next::Frame(frame) => {
                frame.encode_into(out);
                out.push('\n');
            }
            Next::Records(st, from) => st.render_from(from, out),
        }
        Ok(())
    }

    /// The one catch-up decision behind [`TailHub::next_frames`] and
    /// [`TailHub::next_wire`] (see the module docs).
    fn next(&self, cursor: &mut TailCursor, timeout: Duration) -> Result<Next<'_>, TailEnded> {
        let mut st = self.state.lock().expect("tail hub lock");
        loop {
            if st.closed {
                return Err(TailEnded::Closed);
            }
            if !st.enabled {
                return Err(TailEnded::Disabled);
            }
            if cursor.epoch != st.epoch {
                if st.prev == Some((cursor.epoch, cursor.seq)) {
                    // Caught up to the fold point: the follower's image
                    // already equals the new snapshot.
                    cursor.epoch = st.epoch;
                    cursor.seq = 0;
                    return Ok(Next::Frame(TailFrame::Epoch {
                        epoch: st.epoch,
                        term: st.term,
                    }));
                }
                cursor.epoch = st.epoch;
                cursor.seq = 0;
                return Ok(Next::Frame(TailFrame::Reset {
                    epoch: st.epoch,
                    term: st.term,
                    image: st.snapshot.clone(),
                }));
            }
            let committed = st.committed;
            if cursor.seq > committed {
                // A position we never committed (foreign or future
                // cursor): re-bootstrap rather than guess.
                cursor.seq = 0;
                return Ok(Next::Frame(TailFrame::Reset {
                    epoch: st.epoch,
                    term: st.term,
                    image: st.snapshot.clone(),
                }));
            }
            if cursor.seq < committed {
                let from = cursor.seq;
                cursor.seq = committed;
                return Ok(Next::Records(st, from));
            }
            let (guard, wait) = self.wake.wait_timeout(st, timeout).expect("tail hub lock");
            st = guard;
            if wait.timed_out() {
                return Ok(Next::Frame(TailFrame::Ping));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damocles_meta::journal::{encode_record, JournalOp};
    use damocles_meta::Oid;

    fn op(seq: u64) -> JournalOp {
        JournalOp::CreateOid {
            oid: Oid::new("blk", "v", seq as u32 + 1),
        }
    }

    fn record_line(seq: u64) -> String {
        encode_record(seq, &op(seq)).trim_end().to_string()
    }

    /// Records `seqs` encoded as one journal write.
    fn batch(seqs: std::ops::Range<u64>) -> RecordBatch {
        RecordBatch::from_lines(seqs.map(|seq| encode_record(seq, &op(seq))).collect())
    }

    fn record_lines(frames: &[TailFrame]) -> Vec<&str> {
        frames
            .iter()
            .map(|frame| match frame {
                TailFrame::Record { line, .. } => line.as_str(),
                other => panic!("expected a record frame, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn records_are_sliced_across_batch_boundaries() {
        let hub = TailHub::new();
        hub.publish_enable(1, 1, "image".into());
        hub.publish_records(batch(0..3));
        hub.publish_records(RecordBatch::default());
        hub.publish_records(batch(3..5));
        hub.publish_line(&record_line(5));
        assert_eq!(hub.position(), Some((1, 6)));
        for from in 0..6u64 {
            let mut cursor = TailCursor {
                epoch: 1,
                seq: from,
            };
            let frames = hub
                .next_frames(&mut cursor, Duration::from_millis(1))
                .unwrap();
            let expected: Vec<String> = (from..6).map(record_line).collect();
            assert_eq!(record_lines(&frames), expected, "from {from}");
            assert_eq!(cursor, TailCursor { epoch: 1, seq: 6 });
        }
    }

    #[test]
    fn wire_frames_render_straight_from_the_batches() {
        let hub = TailHub::new();
        hub.publish_enable(3, 2, "image with spaces\n".into());
        hub.publish_records(batch(0..3));
        hub.publish_records(batch(3..5));
        hub.publish_line(&record_line(5));
        let st = hub.state.lock().unwrap();
        // Cursors at a batch start, inside a batch, and in the last batch.
        for from in [0, 1, 3, 4, 5] {
            let mut wire = String::from("kept|");
            st.render_from(from, &mut wire);
            let expected: String = st
                .frames_from(from)
                .iter()
                .map(|frame| frame.encode() + "\n")
                .collect();
            assert_eq!(wire, format!("kept|{expected}"), "from {from}");
        }
        drop(st);
        // The public form: the same lines, and one-frame answers as
        // `encode` renders them.
        let mut wire = String::new();
        let mut cursor = TailCursor { epoch: 3, seq: 1 };
        hub.next_wire(&mut cursor, Duration::from_millis(1), &mut wire)
            .unwrap();
        let expected: String = (1..6)
            .map(|seq| format!("tail-rec 3 2 {}\n", record_line(seq)))
            .collect();
        assert_eq!(wire, expected);
        assert_eq!(cursor, TailCursor { epoch: 3, seq: 6 });
        for (mut cursor, frame) in [
            (
                TailCursor { epoch: 1, seq: 0 },
                TailFrame::Reset {
                    epoch: 3,
                    term: 2,
                    image: "image with spaces\n".into(),
                },
            ),
            (TailCursor { epoch: 3, seq: 6 }, TailFrame::Ping),
        ] {
            let mut wire = String::new();
            hub.next_wire(&mut cursor, Duration::from_millis(1), &mut wire)
                .unwrap();
            assert_eq!(wire, frame.encode() + "\n");
        }
    }

    #[test]
    fn frames_roundtrip() {
        let frames = vec![
            TailFrame::Reset {
                epoch: 3,
                term: 2,
                image: "damocles-db v1\noid a,v,1\n# epoch=3\n# term=2\n".into(),
            },
            TailFrame::Record {
                epoch: 3,
                term: 2,
                line: record_line(0),
            },
            TailFrame::Epoch { epoch: 4, term: 2 },
            TailFrame::Ping,
        ];
        for frame in frames {
            let line = frame.encode();
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(TailFrame::decode(&line), Ok(frame), "{line}");
        }
        assert!(TailFrame::decode("blah 1").is_err());
        // Term-less frames are a different (pre-term) protocol: refused.
        assert!(TailFrame::decode("tail-epoch 4").is_err());
        assert!(TailFrame::decode("tail-epoch 4 2 junk").is_err());
        assert!(TailFrame::decode("tail-rec 3 2").is_err());
    }

    #[test]
    fn fresh_subscriber_bootstraps_then_streams() {
        let hub = TailHub::new();
        let mut cursor = TailCursor { epoch: 0, seq: 0 };
        // No journal yet: the subscription ends.
        assert_eq!(
            hub.next_frames(&mut cursor, Duration::from_millis(1)),
            Err(TailEnded::Disabled)
        );
        hub.publish_enable(1, 1, "image-e1".into());
        // Epoch 0 != 1: full bootstrap, then the committed records.
        let frames = hub
            .next_frames(&mut cursor, Duration::from_millis(1))
            .unwrap();
        assert_eq!(
            frames,
            vec![TailFrame::Reset {
                epoch: 1,
                term: 1,
                image: "image-e1".into()
            }]
        );
        hub.publish_records(batch(0..2));
        let frames = hub
            .next_frames(&mut cursor, Duration::from_millis(1))
            .unwrap();
        assert_eq!(frames.len(), 2);
        assert!(matches!(
            &frames[0],
            TailFrame::Record { epoch: 1, term: 1, line } if *line == record_line(0)
        ));
        assert_eq!(cursor, TailCursor { epoch: 1, seq: 2 });
        // Caught up: the wait times out into a ping.
        assert_eq!(
            hub.next_frames(&mut cursor, Duration::from_millis(1)),
            Ok(vec![TailFrame::Ping])
        );
    }

    #[test]
    fn caught_up_subscriber_gets_the_cheap_rollover_marker() {
        let hub = TailHub::new();
        hub.publish_enable(1, 1, "image-e1".into());
        hub.publish_records(batch(0..1));
        let mut caught_up = TailCursor { epoch: 1, seq: 1 };
        let mut behind = TailCursor { epoch: 1, seq: 0 };
        hub.publish_checkpoint(2, 1, "image-e2".into(), true);
        assert_eq!(
            hub.next_frames(&mut caught_up, Duration::from_millis(1)),
            Ok(vec![TailFrame::Epoch { epoch: 2, term: 1 }])
        );
        assert_eq!(caught_up, TailCursor { epoch: 2, seq: 0 });
        // The straggler missed record 0 of the folded epoch: full reset.
        assert_eq!(
            hub.next_frames(&mut behind, Duration::from_millis(1)),
            Ok(vec![TailFrame::Reset {
                epoch: 2,
                term: 1,
                image: "image-e2".into()
            }])
        );
    }

    #[test]
    fn cross_term_checkpoint_never_uses_the_marker() {
        let hub = TailHub::new();
        hub.publish_enable(1, 1, "image-e1".into());
        hub.publish_records(batch(0..1));
        let mut caught_up = TailCursor { epoch: 1, seq: 1 };
        // A new reign checkpoints at the same fold point; even a fully
        // caught-up follower must re-bootstrap to adopt the new term's
        // image — the marker shortcut only holds within one term.
        hub.publish_checkpoint(2, 2, "image-t2".into(), true);
        assert_eq!(
            hub.next_frames(&mut caught_up, Duration::from_millis(1)),
            Ok(vec![TailFrame::Reset {
                epoch: 2,
                term: 2,
                image: "image-t2".into()
            }])
        );
        assert_eq!(hub.term(), Some(2));
    }

    #[test]
    fn non_seamless_checkpoint_forces_reset_even_when_caught_up() {
        let hub = TailHub::new();
        hub.publish_enable(1, 1, "image-e1".into());
        hub.publish_records(batch(0..1));
        let mut caught_up = TailCursor { epoch: 1, seq: 1 };
        // Ops were folded without ever being streamed: the marker would
        // silently skip them.
        hub.publish_checkpoint(2, 1, "image-e2".into(), false);
        assert!(matches!(
            hub.next_frames(&mut caught_up, Duration::from_millis(1))
                .unwrap()
                .as_slice(),
            [TailFrame::Reset { epoch: 2, .. }]
        ));
    }

    #[test]
    fn future_cursor_is_reset_not_trusted() {
        let hub = TailHub::new();
        hub.publish_enable(1, 1, "image-e1".into());
        let mut cursor = TailCursor { epoch: 1, seq: 99 };
        assert!(matches!(
            hub.next_frames(&mut cursor, Duration::from_millis(1))
                .unwrap()
                .as_slice(),
            [TailFrame::Reset { epoch: 1, .. }]
        ));
        assert_eq!(cursor, TailCursor { epoch: 1, seq: 0 });
    }

    #[test]
    fn disable_and_close_end_subscriptions() {
        let hub = TailHub::new();
        hub.publish_enable(1, 1, "image".into());
        let mut cursor = TailCursor { epoch: 1, seq: 0 };
        hub.publish_disable();
        assert_eq!(
            hub.next_frames(&mut cursor, Duration::from_millis(1)),
            Err(TailEnded::Disabled)
        );
        assert_eq!(hub.position(), None);
        hub.close();
        assert_eq!(
            hub.next_frames(&mut cursor, Duration::from_millis(1)),
            Err(TailEnded::Closed)
        );
    }

    #[test]
    fn blocked_subscriber_wakes_on_publish() {
        use std::sync::Arc;
        let hub = Arc::new(TailHub::new());
        hub.publish_enable(1, 1, "image".into());
        let waiter = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                let mut cursor = TailCursor { epoch: 1, seq: 0 };
                hub.next_frames(&mut cursor, Duration::from_secs(10))
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        hub.publish_records(batch(0..1));
        let frames = waiter.join().unwrap().unwrap();
        assert!(matches!(frames.as_slice(), [TailFrame::Record { .. }]));
    }
}

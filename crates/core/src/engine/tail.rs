//! Live journal tailing: the publication side of journal-aware
//! replication.
//!
//! A journaling leader already writes every mutation as a checksummed
//! journal record (`damocles_meta::journal`); replication is "merely"
//! making that record stream consumable by other nodes *as it is
//! committed*. This module provides the in-process half:
//!
//! * [`TailHub`] — a shared buffer of the current epoch's **committed**
//!   journal records plus the checkpoint [`Snapshot`] they extend. The
//!   [`ProjectServer`](crate::engine::server::ProjectServer) publishes
//!   into it at exactly three points: journal enable, each group-commit
//!   flush (*after* the fsync — a record a tailer sees is always on the
//!   leader's stable storage), and each checkpoint (epoch rollover).
//! * [`TailItem`] — the stream's elements: a full snapshot bootstrap, a
//!   batch of committed records, an epoch rollover marker, or a keep-alive
//!   ping. On the wire each is one line, and a batch one `tail-rec` line
//!   per record ([`TailItem::encode`]).
//! * [`TailCursor`] — a subscriber's `(epoch, seq)` position;
//!   [`TailHub::next_owed`] blocks until the hub has something past it.
//!   A tail connection takes the record batches it is owed from the hub
//!   while it is locked, and [`Owed::write_wire`] renders and writes them
//!   after, in chunks of about [`TAIL_CHUNK_BYTES`]. That is the hub's one
//!   reader: tests read a hub by writing what it owes into a buffer and
//!   decoding the bytes with a [`TailReader`], as a follower does.
//! * [`TailReader`] — the subscriber's side: reads the line-framed stream
//!   a batch at a time, the `tail-rec` lines that arrived together (one
//!   epoch and term) appended straight into one [`RecordBatch`].
//!
//! # Catch-up semantics
//!
//! A subscriber at `(epoch, seq)` is served incrementally when possible
//! and re-bootstrapped when not:
//!
//! * same epoch, `seq` ≤ committed count → the records from `seq` on;
//! * exactly at the end of the *previous* epoch when a checkpoint rolled
//!   it over → a cheap [`TailItem::Epoch`] marker (the follower's own
//!   image already equals the new snapshot, so only the cursor moves);
//! * anything else (stale epoch, future position, brand-new follower) →
//!   [`TailItem::Reset`] carrying the current checkpoint snapshot, then
//!   records from sequence 0.
//!
//! The hub retains only the current epoch's records (bounded by the
//! checkpoint fold policy: about one snapshot's worth of record bytes,
//! or fewer than its record floor), one `(epoch, final-count)` pair for
//! the marker optimization, and the snapshot. A journaling node's
//! snapshot is the checkpoint file it already wrote, held by its path;
//! only a replica, which writes no file, holds its image as text, once.
//! Memory stays O(snapshot), never O(history), and a journaling node
//! holds no copy of its image at all. A subscriber handed batches before
//! a fold keeps them alive until it has written them, so it streams
//! every record it was owed and then takes the cheap marker.
//!
//! A reset from a snapshot file opens the file after the hub's lock is
//! released, checks its `# epoch=` and `# term=` markers against the
//! epoch and term the hub decided on, and streams it percent-escaped in
//! chunks of about [`TAIL_CHUNK_BYTES`]. A later checkpoint may already
//! have renamed a newer snapshot over the path: then the hub decides
//! again, so the newer bytes never go out under the older epoch. A file
//! that cannot be read ends the subscription with
//! [`TailEnded::Unreadable`].
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

use std::fs::File;
use std::io::{self, BufRead, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use damocles_meta::journal::{self, RecordBatch};
use damocles_meta::persist;

// The request codec's word helpers (`%` = empty string, shared
// percent-escaping) — one implementation per crate, so the tail codec
// cannot drift from the request codec.
use crate::engine::api::{dec_str, enc_str_into, Response};

/// One element of a tail stream (see `PROTOCOL.md` §5), as a
/// [`TailReader`] delivers it and [`TailItem::encode`] writes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailItem {
    /// Consecutive committed journal records of one epoch and term, in
    /// sequence order, each exactly as it sits in the leader's journal
    /// file: `<fnv1a> <seq> <op…>` (verify and decode with
    /// [`damocles_meta::journal::decode_record`]). On the wire, one
    /// `tail-rec` line per record.
    Records {
        /// The epoch the records extend.
        epoch: u64,
        /// The leadership term they were committed under.
        term: u64,
        /// The record lines (no trailing newlines).
        batch: RecordBatch,
    },
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

impl TailItem {
    /// Renders the wire form: one newline-terminated line, or one
    /// `tail-rec` line per record of a batch.
    ///
    /// ```
    /// use blueprint_core::engine::tail::{TailItem, TailReader};
    ///
    /// let item = TailItem::Epoch { epoch: 4, term: 2 };
    /// let wire = item.encode();
    /// assert_eq!(wire, "tail-epoch 4 2\n");
    /// assert_eq!(TailReader::new(wire.as_bytes()).next_item().unwrap(), item);
    /// ```
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self {
            TailItem::Records { epoch, term, batch } => {
                for r in 0..batch.len() {
                    push_rec_line(&mut out, *epoch, *term, batch.line(r));
                }
            }
            TailItem::Reset { epoch, term, image } => {
                let _ = write!(out, "tail-reset {epoch} {term} ");
                enc_str_into(&mut out, image);
                out.push('\n');
            }
            TailItem::Epoch { epoch, term } => {
                let _ = writeln!(out, "tail-epoch {epoch} {term}");
            }
            TailItem::Ping => out.push_str("tail-ping\n"),
        }
        out
    }
}

/// A parsed tail line: a record, which is the rest of the line from byte
/// `at`, or any other item.
#[derive(Debug)]
enum Parsed {
    Record { epoch: u64, term: u64, at: usize },
    Item(TailItem),
}

/// Parses one tail line (no terminator), leaving a record in the line.
///
/// # Errors
///
/// A human-readable reason when the line is not a tail line (a follower
/// treats that as a broken stream and reconnects).
fn parse(line: &str) -> Result<Parsed, String> {
    fn num(what: &str, w: &str) -> Result<u64, String> {
        w.parse::<u64>()
            .map_err(|_| format!("bad tail {what} `{w}`"))
    }
    // `<epoch> <term> <rest…>` — the shared prefix of every substantive
    // line.
    fn coords(rest: &str) -> Result<(u64, u64, &str), String> {
        let mut words = rest.splitn(3, ' ');
        let epoch = num("epoch", words.next().unwrap_or(""))?;
        let term = num(
            "term",
            words.next().ok_or_else(|| "missing term".to_string())?,
        )?;
        Ok((epoch, term, words.next().unwrap_or("")))
    }
    let (keyword, rest) = match line.split_once(' ') {
        Some((k, r)) => (k, r),
        None => (line, ""),
    };
    let item = match keyword {
        "tail-reset" => {
            let (epoch, term, image) = coords(rest).map_err(|e| format!("tail-reset: {e}"))?;
            if image.is_empty() {
                return Err("tail-reset missing image".to_string());
            }
            TailItem::Reset {
                epoch,
                term,
                image: dec_str(image)?,
            }
        }
        "tail-rec" => {
            let (epoch, term, record) = coords(rest).map_err(|e| format!("tail-rec: {e}"))?;
            if record.is_empty() {
                return Err("tail-rec missing record".to_string());
            }
            // The record is the line's last field.
            let at = line.len() - record.len();
            return Ok(Parsed::Record { epoch, term, at });
        }
        "tail-epoch" => {
            let (epoch, term, extra) = coords(rest).map_err(|e| format!("tail-epoch: {e}"))?;
            if !extra.is_empty() {
                return Err(format!("tail-epoch trailing `{extra}`"));
            }
            TailItem::Epoch { epoch, term }
        }
        "tail-ping" => TailItem::Ping,
        other => return Err(format!("unknown tail frame `{other}`")),
    };
    Ok(Parsed::Item(item))
}

/// Appends one `tail-rec` line, newline included.
fn push_rec_line(out: &mut String, epoch: u64, term: u64, record: &str) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "tail-rec {epoch} {term} {record}");
}

/// Most records a [`TailReader`] puts in one batch.
pub const MAX_TAIL_BATCH: usize = 1024;

/// Reads a tail stream (`PROTOCOL.md` §5) the way the leader writes it:
/// the `tail-rec` lines that have already arrived, all of one epoch and
/// term, become one [`TailItem::Records`] batch, each record appended
/// straight from the line buffer. A batch ends when the reader's buffer
/// runs out at a line end (reading on could wait for the leader; a line
/// the buffer holds only the start of is finished first), at a line of
/// another epoch, term or kind (delivered next), at a line that fails to
/// decode (its error delivered next), or at [`MAX_TAIL_BATCH`] records.
///
/// ```
/// use blueprint_core::engine::tail::{TailItem, TailReader};
///
/// let wire = "tail-rec 4 2 a\ntail-rec 4 2 b\ntail-ping\n";
/// let mut reader = TailReader::new(wire.as_bytes());
/// let TailItem::Records { epoch: 4, term: 2, batch } = reader.next_item().unwrap() else {
///     panic!("expected a batch");
/// };
/// assert_eq!((batch.line(0), batch.line(1)), ("a", "b"));
/// assert_eq!(reader.next_item().unwrap(), TailItem::Ping);
/// assert!(reader.next_item().is_err(), "the stream ended");
/// ```
#[derive(Debug)]
pub struct TailReader<R> {
    inner: R,
    /// The last line read, without its terminator; the buffer is reused.
    line: String,
    /// Whether `inner` held bytes past the last line read.
    buffered: bool,
    /// What was read past the end of the last batch (a record's text is
    /// still in `line`), delivered next.
    pending: Option<io::Result<Parsed>>,
}

impl<R: BufRead> TailReader<R> {
    /// A reader of the frames `inner` yields, from its next byte.
    pub fn new(inner: R) -> Self {
        TailReader {
            inner,
            line: String::new(),
            buffered: false,
            pending: None,
        }
    }

    /// Reads the next batch of records or the next other frame, blocking
    /// until its first line arrives.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the stream ended; other I/O errors from
    /// `inner`; `InvalidData` carrying the leader's structured error when
    /// the stream ended protocol-side (journaling disabled, leader
    /// shutdown), or the decode error of a line that is not a frame. A
    /// batch read before the failing line is delivered first.
    pub fn next_item(&mut self) -> io::Result<TailItem> {
        let first = match self.pending.take() {
            Some(line) => line,
            None => self.read(),
        };
        let (epoch, term, at) = match first? {
            Parsed::Item(item) => return Ok(item),
            Parsed::Record { epoch, term, at } => (epoch, term, at),
        };
        let mut batch = RecordBatch::default();
        batch.push_line(&self.line[at..]);
        while self.buffered && batch.len() < MAX_TAIL_BATCH {
            match self.read() {
                Ok(Parsed::Record {
                    epoch: e,
                    term: t,
                    at,
                }) if (e, t) == (epoch, term) => {
                    batch.push_line(&self.line[at..]);
                }
                other => {
                    self.pending = Some(other);
                    break;
                }
            }
        }
        Ok(TailItem::Records { epoch, term, batch })
    }

    /// Reads and decodes one line.
    fn read(&mut self) -> io::Result<Parsed> {
        self.read_line()?;
        // Strip only the line terminator: a record's checksum covers all
        // of its bytes, trailing spaces included (a `data` record with an
        // empty payload ends in one).
        let len = self.line.trim_end_matches(['\r', '\n']).len();
        self.line.truncate(len);
        parse(&self.line).map_err(|frame_err| {
            // The stream's last line is a structured `err …` response
            // when the leader ends it deliberately.
            let reason = match Response::decode(&self.line) {
                Ok(Response::Error(e)) => format!("leader ended the tail stream: {e}"),
                _ => format!("broken tail stream: {frame_err}"),
            };
            io::Error::new(io::ErrorKind::InvalidData, reason)
        })
    }

    /// Reads one line into `line` (a last line may lack its newline) and
    /// notes whether bytes are left in `inner`'s buffer behind it. A
    /// buffer grown past [`TAIL_CHUNK_BYTES`] (a reset's line) is let go,
    /// not kept for the rest of the stream.
    fn read_line(&mut self) -> io::Result<()> {
        let mut bytes = std::mem::take(&mut self.line).into_bytes();
        if bytes.capacity() > TAIL_CHUNK_BYTES {
            bytes = Vec::new();
        }
        bytes.clear();
        self.buffered = false;
        loop {
            let available = match self.inner.fill_buf() {
                Ok(available) => available,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                break;
            }
            let (taken, ended) = match available.iter().position(|&b| b == b'\n') {
                Some(at) => (at + 1, true),
                None => (available.len(), false),
            };
            bytes.extend_from_slice(&available[..taken]);
            self.buffered = taken < available.len();
            self.inner.consume(taken);
            if ended {
                break;
            }
        }
        if bytes.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "leader closed the tail stream",
            ));
        }
        self.line = String::from_utf8(bytes).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        Ok(())
    }
}

/// A subscriber's position in the stream: the next record it expects is
/// `seq` of `epoch`. A brand-new follower starts at `(0, 0)` and lets the
/// first [`TailItem::Reset`] place it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailCursor {
    /// The checkpoint epoch the follower is applying records of.
    pub epoch: u64,
    /// The next record sequence number expected.
    pub seq: u64,
}

/// Why a tail subscription ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailEnded {
    /// Journaling was disabled on the leader (poisoned or the project was
    /// swapped); there is no committed stream to follow any more.
    Disabled,
    /// The leader's command loop shut down.
    Closed,
    /// The checkpoint snapshot a reset owed the subscriber could not be
    /// read, or did not hold the epoch and term the hub published; the
    /// reason says which.
    Unreadable(String),
}

/// Where a hub finds the checkpoint snapshot a [`TailItem::Reset`]
/// carries.
#[derive(Debug, Clone)]
pub enum Snapshot {
    /// A journaling node's snapshot file. The hub holds only its path:
    /// each reset opens the file and checks its epoch and term markers
    /// against the ones it serves.
    File(PathBuf),
    /// A replica's image. A replica writes no snapshot file, so its hub
    /// holds the text once and every reset shares it.
    Text(Arc<str>),
}

impl From<String> for Snapshot {
    fn from(image: String) -> Self {
        Snapshot::Text(image.into())
    }
}

impl From<&str> for Snapshot {
    fn from(image: &str) -> Self {
        Snapshot::Text(image.into())
    }
}

#[derive(Debug, Default)]
struct TailState {
    closed: bool,
    epoch: u64,
    /// Leadership term the published records are committed under.
    term: u64,
    /// The checkpoint snapshot `epoch` starts from; `None` while no
    /// journal is enabled.
    snapshot: Option<Snapshot>,
    /// Committed records of `epoch` (`<fnv1a> <seq> <op…>` lines), kept
    /// as the buffers the journal writer put on disk (or a follower
    /// applied), each paired with the sequence number of its first
    /// record. Only fsynced batches are ever pushed here. Subscribers
    /// share them: a batch lives until the hub and every subscriber it
    /// was handed to have let go of it.
    batches: Vec<(u64, Arc<RecordBatch>)>,
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

    /// The records from sequence `from` (< `committed`) to the end of the
    /// epoch: the batches from the one holding `from` on, shared.
    fn owed_from(&self, from: u64) -> Owing {
        let first = self.batches.partition_point(|(start, _)| *start <= from) - 1;
        Owing::Records {
            epoch: self.epoch,
            term: self.term,
            skip: (from - self.batches[first].0) as usize,
            batches: self.batches[first..]
                .iter()
                .map(|(_, batch)| Arc::clone(batch))
                .collect(),
        }
    }
}

/// Bytes of wire text a tail connection renders before it writes them: it
/// sends a backlog in chunks of about this size, so a subscriber far
/// behind never costs one buffer the size of its backlog.
pub const TAIL_CHUNK_BYTES: usize = 64 * 1024;

/// What a subscriber is owed next ([`TailHub::next_owed`]): taken from the
/// hub while it is locked, written by [`Owed::write_wire`] after the lock
/// is released.
#[derive(Debug)]
pub struct Owed(Owing);

/// The kinds of [`Owed`].
#[derive(Debug)]
enum Owing {
    /// One epoch marker or ping.
    Item(TailItem),
    /// A reset to the checkpoint snapshot `image` of `epoch`, under
    /// `term`.
    Reset {
        epoch: u64,
        term: u64,
        image: ResetImage,
    },
    /// Committed records of `epoch`, under `term`: every record of
    /// `batches` but the first `skip` of the first batch.
    Records {
        epoch: u64,
        term: u64,
        skip: usize,
        batches: Vec<Arc<RecordBatch>>,
    },
}

/// The snapshot an [`Owing::Reset`] sends: a replica's shared text, or a
/// journaling node's snapshot file, open and checked to hold the reset's
/// epoch and term.
#[derive(Debug)]
enum ResetImage {
    Text(Arc<str>),
    File(File),
}

impl Owed {
    /// Writes what is owed to `out` in wire form (the bytes of
    /// [`TailItem::encode`]), rendered into `chunk` and written whenever it
    /// holds [`TAIL_CHUNK_BYTES`] or more; a reset's image is read and
    /// escaped a chunk at a time. `chunk` is scratch space, reused across
    /// calls.
    ///
    /// # Errors
    ///
    /// The first failed write, or the first failed read of a snapshot
    /// file (the stream then ends inside the reset's line).
    pub fn write_wire(&self, out: &mut impl Write, chunk: &mut String) -> io::Result<()> {
        use std::fmt::Write as _;
        chunk.clear();
        match &self.0 {
            Owing::Item(item) => chunk.push_str(&item.encode()),
            Owing::Reset { epoch, term, image } => {
                let _ = write!(chunk, "tail-reset {epoch} {term} ");
                match image {
                    ResetImage::Text(text) => write_escaped(text.as_bytes(), out, chunk)?,
                    ResetImage::File(file) => write_escaped(file, out, chunk)?,
                }
                chunk.push('\n');
            }
            Owing::Records {
                epoch,
                term,
                skip,
                batches,
            } => {
                for (i, batch) in batches.iter().enumerate() {
                    let from = if i == 0 { *skip } else { 0 };
                    for r in from..batch.len() {
                        push_rec_line(chunk, *epoch, *term, batch.line(r));
                        if chunk.len() >= TAIL_CHUNK_BYTES {
                            out.write_all(chunk.as_bytes())?;
                            chunk.clear();
                        }
                    }
                }
            }
        }
        if chunk.is_empty() {
            return Ok(());
        }
        out.write_all(chunk.as_bytes())
    }
}

/// Appends the text `source` yields to `chunk` percent-escaped, as
/// [`TailItem::encode`] escapes a reset's image (`%` when it is empty), and
/// writes `chunk` to `out` each time it holds [`TAIL_CHUNK_BYTES`] or
/// more. Reads [`TAIL_CHUNK_BYTES`] at a time; a character cut by a read
/// waits for the next.
///
/// # Errors
///
/// The first failed read or write; `InvalidData` when the text is not
/// UTF-8.
fn write_escaped(
    mut source: impl Read,
    out: &mut impl Write,
    chunk: &mut String,
) -> io::Result<()> {
    let invalid = |reason| io::Error::new(io::ErrorKind::InvalidData, reason);
    let mut raw = vec![0; TAIL_CHUNK_BYTES];
    // Bytes of a character the last read cut, moved to the front of `raw`.
    let mut held = 0;
    let mut empty = true;
    loop {
        let filled = match source.read(&mut raw[held..]) {
            Ok(0) if held == 0 => break,
            Ok(0) => return Err(invalid("the text ends inside a UTF-8 character")),
            Ok(n) => held + n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        empty = false;
        let whole = match std::str::from_utf8(&raw[..filled]) {
            Ok(text) => text.len(),
            Err(e) if e.error_len().is_none() => e.valid_up_to(),
            Err(_) => return Err(invalid("the text is not UTF-8")),
        };
        let text = std::str::from_utf8(&raw[..whole]).expect("a valid UTF-8 prefix");
        persist::escape_into(chunk, text);
        if chunk.len() >= TAIL_CHUNK_BYTES {
            out.write_all(chunk.as_bytes())?;
            chunk.clear();
        }
        raw.copy_within(whole..filled, 0);
        held = filled - whole;
    }
    if empty {
        chunk.push('%');
    }
    Ok(())
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

    /// Journaling was (re-)enabled: `snapshot` is the initial checkpoint
    /// image at `epoch`, journaled under leadership `term`, and the
    /// journal is empty.
    pub fn publish_enable(&self, epoch: u64, term: u64, snapshot: Snapshot) {
        let mut st = self.state.lock().expect("tail hub lock");
        st.epoch = epoch;
        st.term = term;
        st.snapshot = Some(snapshot);
        st.clear_records();
        st.prev = None;
        drop(st);
        self.wake.notify_all();
    }

    /// A batch of records reached stable storage (the group-commit fsync
    /// returned), or a follower applied it. `batch` holds the records in
    /// sequence order, continuing the current epoch's count, as the very
    /// buffer written to the journal file or read off the stream; the hub
    /// keeps it whole and shares it with its subscribers.
    pub fn publish_records(&self, batch: RecordBatch) {
        let mut st = self.state.lock().expect("tail hub lock");
        if st.snapshot.is_none() || batch.is_empty() {
            return;
        }
        let start = st.committed;
        st.committed += batch.len() as u64;
        st.batches.push((start, Arc::new(batch)));
        drop(st);
        self.wake.notify_all();
    }

    /// A checkpoint folded the journal into `snapshot` at `epoch`, under
    /// leadership `term`. `seamless` means every previously committed
    /// record is represented in the stream (nothing was dropped outside
    /// it), so a caught-up subscriber may take the cheap
    /// [`TailItem::Epoch`] marker instead of re-bootstrapping.
    pub fn publish_checkpoint(&self, epoch: u64, term: u64, snapshot: Snapshot, seamless: bool) {
        let mut st = self.state.lock().expect("tail hub lock");
        // The marker shortcut only holds within one reign: a follower at
        // the fold point of an older term must re-bootstrap instead.
        st.prev = (seamless && st.term == term).then_some((st.epoch, st.committed));
        st.epoch = epoch;
        st.term = term;
        st.snapshot = Some(snapshot);
        st.clear_records();
        drop(st);
        self.wake.notify_all();
    }

    /// Journaling was disabled (poisoned, or the project server was
    /// swapped out). Live subscriptions end with [`TailEnded::Disabled`].
    pub fn publish_disable(&self) {
        let mut st = self.state.lock().expect("tail hub lock");
        st.snapshot = None;
        st.clear_records();
        st.prev = None;
        drop(st);
        self.wake.notify_all();
    }

    /// The leader is shutting down; all subscriptions end.
    pub fn close(&self) {
        self.state.lock().expect("tail hub lock").closed = true;
        self.wake.notify_all();
    }

    /// The committed stream position `(epoch, record count)`, or `None`
    /// when no journal is enabled — the [`Tailing`] handshake payload.
    ///
    /// [`Tailing`]: crate::engine::api::Response::Tailing
    pub fn position(&self) -> Option<(u64, u64)> {
        let st = self.state.lock().expect("tail hub lock");
        st.snapshot.is_some().then_some((st.epoch, st.committed))
    }

    /// The leadership term the published stream is committed under, or
    /// `None` when no journal is enabled.
    pub fn term(&self) -> Option<u64> {
        let st = self.state.lock().expect("tail hub lock");
        st.snapshot.is_some().then_some(st.term)
    }

    /// Blocks until the stream has something past `cursor` (or `timeout`
    /// elapses — then a ping is owed, so the caller can probe its
    /// transport), advances `cursor` past it and returns what the
    /// subscriber is owed (see the module docs). Owed records come back as
    /// shared batches and an owed snapshot as its shared text or its
    /// opened file: the hub stays locked only while they are counted out,
    /// never while a file is opened, rendered or written.
    ///
    /// A snapshot file is checked after the lock is released: when a
    /// later checkpoint has renamed a newer snapshot over the path since
    /// the decision, the hub decides again from `cursor` as it was asked,
    /// waiting for that checkpoint's publication if needed, so the newer
    /// bytes never go out under the older epoch.
    ///
    /// # Errors
    ///
    /// [`TailEnded`] when the stream is over; the subscriber should
    /// surface that to its follower and disconnect.
    pub fn next_owed(&self, cursor: &mut TailCursor, timeout: Duration) -> Result<Owed, TailEnded> {
        let asked = *cursor;
        let mut superseded = None;
        loop {
            let (epoch, term, path) = match self.decide(cursor, timeout, superseded)? {
                Decided::Owed(owing) => return Ok(Owed(owing)),
                Decided::Open { epoch, term, path } => (epoch, term, path),
            };
            if let Some(file) = open_snapshot(&path, epoch, term)? {
                let image = ResetImage::File(file);
                return Ok(Owed(Owing::Reset { epoch, term, image }));
            }
            *cursor = asked;
            superseded = Some((epoch, term));
        }
    }

    /// [`TailHub::next_owed`]'s decision, under the lock. A reset of the
    /// `superseded` epoch and term is not decided again: the hub waits
    /// for the checkpoint that replaced its file.
    fn decide(
        &self,
        cursor: &mut TailCursor,
        timeout: Duration,
        superseded: Option<(u64, u64)>,
    ) -> Result<Decided, TailEnded> {
        let mut st = self.state.lock().expect("tail hub lock");
        loop {
            if st.closed {
                return Err(TailEnded::Closed);
            }
            let Some(snapshot) = &st.snapshot else {
                return Err(TailEnded::Disabled);
            };
            let (epoch, term, committed) = (st.epoch, st.term, st.committed);
            // A stale epoch, or a position we never committed (foreign
            // or future cursor): re-bootstrap rather than guess.
            let reset = cursor.epoch != epoch || cursor.seq > committed;
            if cursor.epoch != epoch && st.prev == Some((cursor.epoch, cursor.seq)) {
                // Caught up to the fold point: the follower's image
                // already equals the new snapshot.
                *cursor = TailCursor { epoch, seq: 0 };
                return Ok(Decided::Owed(Owing::Item(TailItem::Epoch { epoch, term })));
            }
            if reset && superseded != Some((epoch, term)) {
                *cursor = TailCursor { epoch, seq: 0 };
                return Ok(match snapshot {
                    Snapshot::Text(text) => Decided::Owed(Owing::Reset {
                        epoch,
                        term,
                        image: ResetImage::Text(Arc::clone(text)),
                    }),
                    Snapshot::File(path) => Decided::Open {
                        epoch,
                        term,
                        path: path.clone(),
                    },
                });
            }
            if !reset && cursor.seq < committed {
                let owed = st.owed_from(cursor.seq);
                cursor.seq = committed;
                return Ok(Decided::Owed(owed));
            }
            let (guard, wait) = self.wake.wait_timeout(st, timeout).expect("tail hub lock");
            st = guard;
            if wait.timed_out() {
                return Ok(Decided::Owed(Owing::Item(TailItem::Ping)));
            }
        }
    }
}

/// What [`TailHub::decide`] settled on.
enum Decided {
    /// Owed as it is.
    Owed(Owing),
    /// A reset to the snapshot file at `path`, which must hold `epoch`
    /// and `term`.
    Open {
        epoch: u64,
        term: u64,
        path: PathBuf,
    },
}

/// Opens the snapshot file at `path` for a reset of `epoch` under `term`,
/// rewound: `None` when a later checkpoint has already renamed a newer
/// snapshot over it.
///
/// # Errors
///
/// [`TailEnded::Unreadable`] when the file cannot be read or holds an
/// epoch and term that are neither these nor newer.
fn open_snapshot(path: &Path, epoch: u64, term: u64) -> Result<Option<File>, TailEnded> {
    let mut file = File::open(path).map_err(|e| unreadable(&e))?;
    let (on_disk, on_disk_term) =
        journal::snapshot_markers(&mut file).map_err(|e| unreadable(&e))?;
    if (on_disk, on_disk_term) == (epoch, term) {
        file.rewind().map_err(|e| unreadable(&e))?;
        return Ok(Some(file));
    }
    if on_disk > epoch {
        return Ok(None);
    }
    Err(TailEnded::Unreadable(format!(
        "the snapshot file holds epoch {on_disk} term {on_disk_term}, not the published \
         epoch {epoch} term {term}"
    )))
}

/// [`TailEnded::Unreadable`] for a failed read of the snapshot file.
fn unreadable(e: &io::Error) -> TailEnded {
    TailEnded::Unreadable(format!("cannot read the snapshot file: {e}"))
}

/// What `hub` owes a subscriber at `cursor`, written as a tail connection
/// writes it and read back by a [`TailReader`], as a follower reads it.
///
/// # Panics
///
/// When the write fails or the reader refuses the bytes.
#[cfg(test)]
pub(crate) fn read_owed(
    hub: &TailHub,
    cursor: &mut TailCursor,
    timeout: Duration,
) -> Result<Vec<TailItem>, TailEnded> {
    let mut wire = Vec::new();
    hub.next_owed(cursor, timeout)?
        .write_wire(&mut wire, &mut String::new())
        .expect("the owed bytes are written");
    let mut reader = TailReader::new(wire.as_slice());
    let mut items = Vec::new();
    loop {
        match reader.next_item() {
            Ok(item) => items.push(item),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(items),
            Err(e) => panic!("the reader refused what the hub wrote: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damocles_meta::journal::{encode_record, JournalOp};
    use damocles_meta::Oid;
    use std::path::PathBuf;

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

    /// The records `seqs` as one item.
    fn records_of(epoch: u64, term: u64, seqs: std::ops::Range<u64>) -> TailItem {
        let lines: Vec<String> = seqs.map(record_line).collect();
        records(epoch, term, &lines)
    }

    /// What `hub` owes at `cursor`, read back off the wire.
    fn owed(hub: &TailHub, cursor: &mut TailCursor) -> Result<Vec<TailItem>, TailEnded> {
        read_owed(hub, cursor, Duration::from_millis(1))
    }

    #[test]
    fn records_are_sliced_across_batch_boundaries() {
        let hub = TailHub::new();
        hub.publish_enable(1, 1, "image".into());
        hub.publish_records(batch(0..3));
        hub.publish_records(RecordBatch::default());
        hub.publish_records(batch(3..5));
        hub.publish_records(batch(5..6));
        assert_eq!(hub.position(), Some((1, 6)));
        for from in 0..6u64 {
            let mut cursor = TailCursor {
                epoch: 1,
                seq: from,
            };
            assert_eq!(
                owed(&hub, &mut cursor),
                Ok(vec![records_of(1, 1, from..6)]),
                "from {from}"
            );
            assert_eq!(cursor, TailCursor { epoch: 1, seq: 6 });
        }
    }

    /// Every `write` call's bytes, in order.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// What a tail connection writes for one wake-up at `cursor`.
    fn streamed(hub: &TailHub, cursor: &mut TailCursor) -> Writes {
        let mut out = Writes::default();
        let mut chunk = String::from("stale scratch");
        hub.next_owed(cursor, Duration::from_millis(1))
            .unwrap()
            .write_wire(&mut out, &mut chunk)
            .unwrap();
        out
    }

    #[test]
    fn wire_frames_render_straight_from_the_batches() {
        let hub = TailHub::new();
        hub.publish_enable(3, 2, "image with spaces\n".into());
        hub.publish_records(batch(0..3));
        hub.publish_records(batch(3..5));
        hub.publish_records(batch(5..6));
        // Cursors at a batch start, inside a batch, and in the last batch.
        for from in [0, 1, 3, 4, 5] {
            let mut cursor = TailCursor {
                epoch: 3,
                seq: from,
            };
            assert_eq!(
                streamed(&hub, &mut cursor).0.concat(),
                records_of(3, 2, from..6).encode().as_bytes(),
                "from {from}"
            );
            assert_eq!(cursor, TailCursor { epoch: 3, seq: 6 });
        }
        let expected: String = (1..6)
            .map(|seq| format!("tail-rec 3 2 {}\n", record_line(seq)))
            .collect();
        assert_eq!(records_of(3, 2, 1..6).encode(), expected);
        // One-line answers, as `encode` renders them.
        for (mut cursor, item) in [
            (
                TailCursor { epoch: 1, seq: 0 },
                TailItem::Reset {
                    epoch: 3,
                    term: 2,
                    image: "image with spaces\n".into(),
                },
            ),
            (TailCursor { epoch: 3, seq: 6 }, TailItem::Ping),
        ] {
            let wire = streamed(&hub, &mut cursor).0.concat();
            assert_eq!(wire, item.encode().as_bytes());
        }
    }

    #[test]
    fn a_long_backlog_streams_in_bounded_chunks_equal_to_the_frames() {
        let hub = TailHub::new();
        hub.publish_enable(7, 3, "image".into());
        let mut next = 0;
        for size in [1, 7, 300, 1, 1500, 2000, 2] {
            hub.publish_records(batch(next..next + size));
            next += size;
        }
        let longest = (0..next).map(|seq| record_line(seq).len()).max().unwrap();
        for from in [0, 5, 308, next - 1] {
            let mut cursor = TailCursor {
                epoch: 7,
                seq: from,
            };
            let expected = records_of(7, 3, from..next).encode();
            let writes = streamed(&hub, &mut cursor).0;
            assert_eq!(writes.concat(), expected.as_bytes(), "from {from}");
            assert_eq!(
                cursor,
                TailCursor {
                    epoch: 7,
                    seq: next
                }
            );
            // Every write but the last fills a chunk; none holds more than
            // one line past it.
            let (last, full) = writes.split_last().unwrap();
            for chunk in full {
                assert!(chunk.len() >= TAIL_CHUNK_BYTES, "from {from}");
            }
            for chunk in &writes {
                assert!(chunk.len() < TAIL_CHUNK_BYTES + longest + 20, "from {from}");
            }
            assert!(!last.is_empty());
            if from == 0 {
                assert!(writes.len() >= 3, "{} writes", writes.len());
            }
        }
    }

    #[test]
    fn a_subscriber_handed_records_before_a_fold_streams_them_all() {
        let hub = TailHub::new();
        hub.publish_enable(1, 1, "image-e1".into());
        hub.publish_records(batch(0..2));
        hub.publish_records(batch(2..4));
        let mut cursor = TailCursor { epoch: 1, seq: 0 };
        let owed_now = hub
            .next_owed(&mut cursor, Duration::from_millis(1))
            .unwrap();
        // The leader folds before the subscriber has written a byte: the
        // hub drops the epoch's records, the subscriber's share stays.
        hub.publish_checkpoint(2, 1, "image-e2".into(), true);
        assert_eq!(hub.state.lock().unwrap().batches.len(), 0);
        let mut out = Writes::default();
        owed_now.write_wire(&mut out, &mut String::new()).unwrap();
        assert_eq!(out.0.concat(), records_of(1, 1, 0..4).encode().as_bytes());
        // Caught up to the fold point: the cheap marker, no reset.
        assert_eq!(
            owed(&hub, &mut cursor),
            Ok(vec![TailItem::Epoch { epoch: 2, term: 1 }])
        );
    }

    /// Everything a reader of `wire` delivers, the error that ends it
    /// included.
    fn read_all(wire: impl BufRead) -> (Vec<TailItem>, io::Error) {
        let mut reader = TailReader::new(wire);
        let mut items = Vec::new();
        loop {
            match reader.next_item() {
                Ok(item) => items.push(item),
                Err(e) => return (items, e),
            }
        }
    }

    fn records(epoch: u64, term: u64, lines: &[impl AsRef<str>]) -> TailItem {
        let mut batch = RecordBatch::default();
        for line in lines {
            batch.push_line(line.as_ref());
        }
        TailItem::Records { epoch, term, batch }
    }

    #[test]
    fn a_batch_never_spans_an_epoch_term_or_other_frame() {
        let wire = "tail-rec 1 1 a\ntail-rec 1 1 b\ntail-rec 1 2 c\ntail-rec 2 2 d\n\
                    tail-rec 2 2 e\ntail-ping\ntail-rec 2 2 f\ntail-epoch 3 2\n\
                    tail-rec 3 2 g\n";
        let (items, end) = read_all(wire.as_bytes());
        assert_eq!(
            items,
            vec![
                records(1, 1, &["a", "b"]),
                records(1, 2, &["c"]),
                records(2, 2, &["d", "e"]),
                TailItem::Ping,
                records(2, 2, &["f"]),
                TailItem::Epoch { epoch: 3, term: 2 },
                records(3, 2, &["g"]),
            ]
        );
        assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(end.to_string(), "leader closed the tail stream");
    }

    #[test]
    fn a_bad_line_or_eof_ends_the_stream_after_the_batch_before_it() {
        let (items, end) =
            read_all("tail-rec 1 1 a\ntail-rec 1 1 b\nbogus 1\ntail-rec 1 1 c\n".as_bytes());
        assert_eq!(items, vec![records(1, 1, &["a", "b"])]);
        assert_eq!(end.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            end.to_string(),
            "broken tail stream: unknown tail frame `bogus`"
        );
        // The leader's own `err` line names why it ended the stream.
        let ended = Response::Error(crate::engine::api::ApiError::Journal {
            reason: "leader shutting down; tail stream ends".into(),
        })
        .encode();
        let (items, end) = read_all(format!("tail-rec 1 1 a\n{ended}\n").as_bytes());
        assert_eq!(items, vec![records(1, 1, &["a"])]);
        assert_eq!(end.kind(), io::ErrorKind::InvalidData);
        assert!(
            end.to_string()
                .starts_with("leader ended the tail stream: "),
            "{end}"
        );
        // EOF right after a batch, and in the middle of a line: a torn
        // last line is handed over, its checksum left to the applier.
        let (items, end) = read_all("tail-rec 1 1 a\ntail-rec 1 1 b".as_bytes());
        assert_eq!(items, vec![records(1, 1, &["a", "b"])]);
        assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
        // A line that is not UTF-8 is refused.
        let (items, end) = read_all(&b"tail-rec 1 1 a\ntail-rec 1 1 \xff\n"[..]);
        assert_eq!(items, vec![records(1, 1, &["a"])]);
        assert_eq!(end.kind(), io::ErrorKind::InvalidData);
    }

    /// Hands out one piece per `read`, as a socket hands out what arrived.
    struct Pieces(std::collections::VecDeque<&'static str>);

    impl io::Read for Pieces {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(piece) = self.0.pop_front() else {
                return Ok(0);
            };
            buf[..piece.len()].copy_from_slice(piece.as_bytes());
            Ok(piece.len())
        }
    }

    #[test]
    fn a_batch_takes_what_arrived_and_finishes_a_started_line() {
        let pieces =
            |pieces: &[&'static str]| io::BufReader::new(Pieces(pieces.iter().copied().collect()));
        // The buffer runs out at a line end: the batch ends there.
        let (items, _) = read_all(pieces(&[
            "tail-rec 1 1 a\ntail-rec 1 1 b\n",
            "tail-rec 1 1 c\n",
        ]));
        assert_eq!(
            items,
            vec![records(1, 1, &["a", "b"]), records(1, 1, &["c"])]
        );
        // It runs out inside a line: the line is finished, and so is what
        // arrived with its end.
        let (items, _) = read_all(pieces(&[
            "tail-rec 1 1 a\ntail-rec 1 ",
            "1 b\ntail-rec 1 1 c\n",
            "tail-rec 1 1 d\n",
        ]));
        assert_eq!(
            items,
            vec![records(1, 1, &["a", "b", "c"]), records(1, 1, &["d"])]
        );
    }

    #[test]
    fn a_batch_holds_at_most_max_tail_batch_records_and_keeps_trailing_spaces() {
        let data = JournalOp::Data {
            oid: Oid::new("cpu", "HDL_model", 1),
            payload: Vec::new(),
        };
        let lines: Vec<String> = (0..MAX_TAIL_BATCH as u64 + 5)
            .map(|seq| encode_record(seq, &data).trim_end_matches('\n').to_string())
            .collect();
        assert!(lines[0].ends_with(' '), "an empty payload ends in a space");
        let wire: String = lines
            .iter()
            .map(|line| format!("tail-rec 1 1 {line}\r\n"))
            .collect();
        let (items, _) = read_all(wire.as_bytes());
        let batches: Vec<&RecordBatch> = items
            .iter()
            .map(|item| match item {
                TailItem::Records { batch, .. } => batch,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(
            batches.iter().map(|b| b.len()).collect::<Vec<_>>(),
            [MAX_TAIL_BATCH, 5]
        );
        let first = batches[0].first_seq().unwrap();
        assert_eq!(batches[0].decode().unwrap().len(), MAX_TAIL_BATCH);
        assert_eq!(first, 0);
        assert_eq!(batches[1].line(4), lines[MAX_TAIL_BATCH + 4]);
    }

    #[test]
    fn items_roundtrip_through_the_reader() {
        let items = vec![
            TailItem::Reset {
                epoch: 3,
                term: 2,
                image: "damocles-db v1\noid a,v,1\n# epoch=3\n# term=2\n".into(),
            },
            records_of(3, 2, 0..2),
            TailItem::Epoch { epoch: 4, term: 2 },
            TailItem::Ping,
        ];
        let wire: String = items.iter().map(TailItem::encode).collect();
        assert_eq!(wire.lines().count(), 5, "{wire:?}");
        let (read, end) = read_all(wire.as_bytes());
        assert_eq!(read, items);
        assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
        // Term-less lines are a different (pre-term) protocol: refused.
        for line in [
            "blah 1",
            "tail-epoch 4",
            "tail-epoch 4 2 junk",
            "tail-rec 3 2",
        ] {
            let (read, end) = read_all(format!("{line}\n").as_bytes());
            assert!(read.is_empty(), "{line}");
            assert_eq!(end.kind(), io::ErrorKind::InvalidData, "{line}");
        }
    }

    #[test]
    fn a_reset_lines_buffer_is_let_go_at_the_next_line() {
        let reset = TailItem::Reset {
            epoch: 1,
            term: 1,
            image: "oid blk,v,1\n".repeat(TAIL_CHUNK_BYTES / 4),
        };
        let wire = reset.encode() + &records_of(1, 1, 0..1).encode();
        assert!(wire.len() > 2 * TAIL_CHUNK_BYTES);
        let mut reader = TailReader::new(wire.as_bytes());
        assert_eq!(reader.next_item().unwrap(), reset);
        assert_eq!(reader.next_item().unwrap(), records_of(1, 1, 0..1));
        assert!(
            reader.line.capacity() <= TAIL_CHUNK_BYTES,
            "the reader holds {} bytes",
            reader.line.capacity()
        );
    }

    #[test]
    fn fresh_subscriber_bootstraps_then_streams() {
        let hub = TailHub::new();
        let mut cursor = TailCursor { epoch: 0, seq: 0 };
        // No journal yet: the subscription ends.
        assert_eq!(owed(&hub, &mut cursor), Err(TailEnded::Disabled));
        hub.publish_enable(1, 1, "image-e1".into());
        // Epoch 0 != 1: full bootstrap, then the committed records.
        assert_eq!(
            owed(&hub, &mut cursor),
            Ok(vec![TailItem::Reset {
                epoch: 1,
                term: 1,
                image: "image-e1".into()
            }])
        );
        hub.publish_records(batch(0..2));
        assert_eq!(owed(&hub, &mut cursor), Ok(vec![records_of(1, 1, 0..2)]));
        assert_eq!(cursor, TailCursor { epoch: 1, seq: 2 });
        // Caught up: the wait times out into a ping.
        assert_eq!(owed(&hub, &mut cursor), Ok(vec![TailItem::Ping]));
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
            owed(&hub, &mut caught_up),
            Ok(vec![TailItem::Epoch { epoch: 2, term: 1 }])
        );
        assert_eq!(caught_up, TailCursor { epoch: 2, seq: 0 });
        // The straggler missed record 0 of the folded epoch: full reset.
        assert_eq!(
            owed(&hub, &mut behind),
            Ok(vec![TailItem::Reset {
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
            owed(&hub, &mut caught_up),
            Ok(vec![TailItem::Reset {
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
            owed(&hub, &mut caught_up).unwrap().as_slice(),
            [TailItem::Reset { epoch: 2, .. }]
        ));
    }

    #[test]
    fn future_cursor_is_reset_not_trusted() {
        let hub = TailHub::new();
        hub.publish_enable(1, 1, "image-e1".into());
        let mut cursor = TailCursor { epoch: 1, seq: 99 };
        assert!(matches!(
            owed(&hub, &mut cursor).unwrap().as_slice(),
            [TailItem::Reset { epoch: 1, .. }]
        ));
        assert_eq!(cursor, TailCursor { epoch: 1, seq: 0 });
    }

    #[test]
    fn disable_and_close_end_subscriptions() {
        let hub = TailHub::new();
        hub.publish_enable(1, 1, "image".into());
        let mut cursor = TailCursor { epoch: 1, seq: 0 };
        hub.publish_disable();
        assert_eq!(owed(&hub, &mut cursor), Err(TailEnded::Disabled));
        assert_eq!(hub.position(), None);
        hub.close();
        assert_eq!(owed(&hub, &mut cursor), Err(TailEnded::Closed));
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
                read_owed(&hub, &mut cursor, Duration::from_secs(10))
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        hub.publish_records(batch(0..1));
        let items = waiter.join().unwrap().unwrap();
        assert_eq!(items, [records_of(1, 1, 0..1)]);
    }

    /// A fresh scratch directory for one test's snapshot files.
    fn snapshot_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("damocles-tail-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A snapshot text of `epoch` and `term` over three chunks long. Around
    /// each multiple of [`TAIL_CHUNK_BYTES`] (where a file's reads end, give
    /// or take the bytes of a cut character) it packs every byte the reset
    /// escapes and characters of two, three and four bytes, and a four-byte
    /// character straddles the first boundary exactly.
    fn awkward_image(epoch: u64, term: u64) -> String {
        const AWKWARD: &str = "é%€ 😀\t\r\n%%é€\n😀 ";
        let mut image = String::from("damocles-db v1\n");
        for boundary in (1..=3).map(|k| k * TAIL_CHUNK_BYTES) {
            while image.len() < boundary - 2 - 8 * AWKWARD.len() {
                image.push_str("oid blk,view,1\nprop p s:x\n");
            }
            while image.len() < boundary - 2 {
                image.push('x');
            }
            image.push('😀');
            for _ in 0..16 {
                image.push_str(AWKWARD);
            }
        }
        image + &format!("\n# epoch={epoch}\n# term={term}\n")
    }

    #[test]
    fn a_reset_from_a_snapshot_file_streams_the_bytes_of_the_frame() {
        let dir = snapshot_dir("reset");
        let path = dir.join("snapshot.ddb");
        let image = awkward_image(3, 2);
        assert_eq!(
            &image.as_bytes()[TAIL_CHUNK_BYTES - 2..][..4],
            "😀".as_bytes()
        );
        std::fs::write(&path, &image).unwrap();
        let item = TailItem::Reset {
            epoch: 3,
            term: 2,
            image: image.clone(),
        };
        let expected = item.encode();
        for snapshot in [Snapshot::File(path), Snapshot::from(image.as_str())] {
            let hub = TailHub::new();
            hub.publish_enable(3, 2, snapshot.clone());
            let mut cursor = TailCursor { epoch: 0, seq: 0 };
            let writes = streamed(&hub, &mut cursor).0;
            assert_eq!(writes.concat(), expected.as_bytes(), "{snapshot:?}");
            assert_eq!(cursor, TailCursor { epoch: 3, seq: 0 });
            // Chunked: every write but the last fills a chunk, and none
            // holds more than one read's text, escaped, past it.
            let (last, full) = writes.split_last().unwrap();
            assert!(full.len() >= 2, "{} writes", writes.len());
            for chunk in full {
                assert!(chunk.len() >= TAIL_CHUNK_BYTES);
            }
            for chunk in &writes {
                assert!(chunk.len() < 4 * TAIL_CHUNK_BYTES);
            }
            assert!(last.ends_with(b"\n"));
            // A follower's reader gets the file's whole text back.
            let (read, _) = read_all(&writes.concat()[..]);
            assert_eq!(read, std::slice::from_ref(&item));
        }
        // An empty image is `%` on the wire, as the item encodes it.
        let hub = TailHub::new();
        hub.publish_enable(1, 1, Snapshot::from(""));
        let empty = TailItem::Reset {
            epoch: 1,
            term: 1,
            image: String::new(),
        };
        let wire = streamed(&hub, &mut TailCursor { epoch: 0, seq: 0 })
            .0
            .concat();
        assert_eq!(wire, empty.encode().as_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_renamed_over_the_path_is_never_sent_under_the_old_epoch() {
        let dir = snapshot_dir("superseded");
        let path = dir.join("snapshot.ddb");
        let image =
            |epoch: u64| format!("damocles-db v1\noid a,v,{epoch}\n# epoch={epoch}\n# term=1\n");
        std::fs::write(&path, image(1)).unwrap();
        let hub = Arc::new(TailHub::new());
        hub.publish_enable(1, 1, Snapshot::File(path.clone()));
        // A checkpoint renames the epoch-2 snapshot into place; the hub
        // has not been told yet.
        let tmp = dir.join("snapshot.ddb.tmp");
        std::fs::write(&tmp, image(2)).unwrap();
        std::fs::rename(&tmp, &path).unwrap();
        // No reset of epoch 1 is served: the wait ends in a ping, the
        // cursor as it was.
        let mut cursor = TailCursor { epoch: 0, seq: 0 };
        assert_eq!(
            read_owed(&hub, &mut cursor, Duration::from_millis(20)),
            Ok(vec![TailItem::Ping])
        );
        assert_eq!(cursor, TailCursor { epoch: 0, seq: 0 });
        let wire = streamed(&hub, &mut cursor).0.concat();
        assert_eq!(wire, b"tail-ping\n");
        assert_eq!(cursor, TailCursor { epoch: 0, seq: 0 });
        // A subscriber waiting when the checkpoint is published gets the
        // new epoch's reset, with the new file's bytes.
        let waiter = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                let mut cursor = TailCursor { epoch: 0, seq: 0 };
                let items = read_owed(&hub, &mut cursor, Duration::from_secs(10));
                (items, cursor)
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        hub.publish_checkpoint(2, 1, Snapshot::File(path), false);
        let (items, cursor) = waiter.join().unwrap();
        assert_eq!(
            items,
            Ok(vec![TailItem::Reset {
                epoch: 2,
                term: 1,
                image: image(2)
            }])
        );
        assert_eq!(cursor, TailCursor { epoch: 2, seq: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unreadable_snapshot_ends_the_subscription_at_once() {
        let dir = snapshot_dir("unreadable");
        let older = dir.join("older.ddb");
        std::fs::write(&older, "damocles-db v1\n# epoch=3\n# term=1\n").unwrap();
        let other_term = dir.join("other-term.ddb");
        std::fs::write(&other_term, "damocles-db v1\n# epoch=4\n# term=2\n").unwrap();
        let binary = dir.join("binary.ddb");
        std::fs::write(&binary, b"damocles-db v1\n\xff\n# epoch=4\n# term=1\n").unwrap();
        for (path, why) in [
            (dir.join("missing.ddb"), "cannot read the snapshot file"),
            (dir.clone(), "cannot read the snapshot file"),
            (binary, "cannot read the snapshot file"),
            (
                older,
                "holds epoch 3 term 1, not the published epoch 4 term 1",
            ),
            (
                other_term,
                "holds epoch 4 term 2, not the published epoch 4 term 1",
            ),
        ] {
            let hub = TailHub::new();
            hub.publish_enable(4, 1, Snapshot::File(path.clone()));
            let started = std::time::Instant::now();
            let mut cursor = TailCursor { epoch: 0, seq: 0 };
            match hub.next_owed(&mut cursor, Duration::from_secs(10)) {
                Err(TailEnded::Unreadable(reason)) => assert!(reason.contains(why), "{reason}"),
                other => panic!("{path:?}: {other:?}"),
            }
            assert!(started.elapsed() < Duration::from_secs(2), "{path:?}");
            // The hub is still whole: records and positions are served.
            hub.publish_records(batch(0..1));
            let mut cursor = TailCursor { epoch: 4, seq: 0 };
            assert_eq!(owed(&hub, &mut cursor), Ok(vec![records_of(4, 1, 0..1)]));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

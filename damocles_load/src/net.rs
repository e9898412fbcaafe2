//! The load generator: one sender (the calling thread) and one receiver
//! thread over at most a few pipelined TCP connections.
//!
//! Open loop: request `i` is *due* at `due_ns[i]` after the phase start
//! and its latency runs from that due time, not from when the sender got
//! round to it, so a stall is charged to every request that should have
//! gone out during it (no coordinated omission). How late the sender ran
//! is reported separately. Closed loop: a request is due when it is sent.
//!
//! Both loops cap the requests in flight per connection. The cap is the
//! window of the closed loop; in the open loop it is a memory bound that,
//! when hit, makes the sender late — which `late_ns` then shows.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::time::{Duration, Instant};

use crate::workload::Item;

/// Per-request timings of one phase, in nanoseconds since its start.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// When each request was due.
    pub due: Vec<u64>,
    /// When each request was written to its socket.
    pub sent: Vec<u64>,
    /// When its reply arrived (`u64::MAX` when it never did).
    pub received: Vec<u64>,
    /// Each reply line (empty when missing).
    pub replies: Vec<String>,
    /// The phase's start instant.
    pub start: Instant,
}

impl PhaseResult {
    /// Latency of request `i` from its due time, if it was answered.
    pub fn latency_ns(&self, i: usize) -> Option<u64> {
        (self.received[i] != u64::MAX).then(|| self.received[i].saturating_sub(self.due[i]))
    }

    /// How late request `i` was sent.
    pub fn late_ns(&self, i: usize) -> u64 {
        self.sent[i].saturating_sub(self.due[i])
    }

    /// Requests that got no reply.
    pub fn missing(&self) -> usize {
        self.received.iter().filter(|&&r| r == u64::MAX).count()
    }

    /// First send to last reply.
    pub fn elapsed_ns(&self) -> u64 {
        let first = self.sent.iter().copied().min().unwrap_or(0);
        let last = self
            .received
            .iter()
            .copied()
            .filter(|&r| r != u64::MAX)
            .max()
            .unwrap_or(first);
        last.saturating_sub(first)
    }
}

/// How requests are released.
#[derive(Debug, Clone, Copy)]
pub enum Schedule<'a> {
    /// Open loop: each request is due at its offset (sorted, ns).
    Open(&'a [u64]),
    /// Closed loop: send whenever the window allows.
    Closed,
}

/// Gives up on a phase when no reply arrived for this long.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// Opens a connection with `TCP_NODELAY` and bounded blocking.
///
/// # Errors
///
/// Connection failures.
pub fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(STALL_LIMIT))?;
    Ok(stream)
}

/// Runs one phase: sends `items` over `conns` (indexed by `Item::conn`)
/// on `schedule`, with at most `window` requests in flight per
/// connection, and collects every reply. Replies arrive in request order
/// on each connection, so the k-th reply on a connection answers its
/// k-th request.
///
/// # Panics
///
/// When the receiver thread panics.
pub fn run_phase(
    conns: &[TcpStream],
    items: &[Item],
    schedule: Schedule<'_>,
    window: usize,
) -> PhaseResult {
    let n = items.len();
    let mut order: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
    for (i, item) in items.iter().enumerate() {
        order[item.conn].push(i);
    }
    let (tokens_tx, tokens_rx): (Vec<SyncSender<()>>, Vec<Receiver<()>>) = (0..conns.len())
        .map(|_| sync_channel(window.max(1)))
        .unzip();
    let readers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.try_clone().expect("clone a connected socket"))
        .collect();
    let start = Instant::now();
    let mut sent = vec![0u64; n];
    let (received, replies) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(readers, &order, tokens_rx, n, start));
        send(conns, items, schedule, &tokens_tx, &mut sent, start);
        drop(tokens_tx);
        receiver.join().expect("receiver thread")
    });
    let due = match schedule {
        Schedule::Open(due) => due.to_vec(),
        Schedule::Closed => sent.clone(),
    };
    PhaseResult {
        due,
        sent,
        received,
        replies,
        start,
    }
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The sender: releases due requests, batching everything due at one
/// wake-up into one write per connection.
fn send(
    conns: &[TcpStream],
    items: &[Item],
    schedule: Schedule<'_>,
    tokens: &[SyncSender<()>],
    sent: &mut [u64],
    start: Instant,
) {
    sys::tighten_timer_slack();
    let mut writers: Vec<&TcpStream> = conns.iter().collect();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
    let mut batch: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
    let flush = |writers: &mut [&TcpStream],
                 bufs: &mut [Vec<u8>],
                 batch: &mut [Vec<usize>],
                 sent: &mut [u64]|
     -> bool {
        for c in 0..bufs.len() {
            if bufs[c].is_empty() {
                continue;
            }
            let t = ns_since(start);
            for &i in &batch[c] {
                sent[i] = t;
            }
            if writers[c].write_all(&bufs[c]).is_err() {
                return false;
            }
            bufs[c].clear();
            batch[c].clear();
        }
        true
    };
    let mut i = 0;
    while i < items.len() {
        if let Schedule::Open(due) = schedule {
            let now = ns_since(start);
            if due[i] > now {
                std::thread::sleep(Duration::from_nanos(due[i] - now));
            }
        }
        let now = ns_since(start);
        while i < items.len() {
            if let Schedule::Open(due) = schedule {
                if due[i] > now {
                    break;
                }
            }
            let c = items[i].conn;
            match tokens[c].try_send(()) {
                Ok(()) => {}
                Err(TrySendError::Full(())) => {
                    // Window full: put out what is batched, then wait for
                    // a reply to free a slot.
                    if !flush(&mut writers, &mut bufs, &mut batch, sent)
                        || tokens[c].send(()).is_err()
                    {
                        return;
                    }
                }
                Err(TrySendError::Disconnected(())) => return,
            }
            bufs[c].extend_from_slice(items[i].line.as_bytes());
            bufs[c].push(b'\n');
            batch[c].push(i);
            i += 1;
            if matches!(schedule, Schedule::Closed) && bufs[c].len() > 64 * 1024 {
                break;
            }
        }
        if !flush(&mut writers, &mut bufs, &mut batch, sent) {
            return;
        }
    }
}

/// The receiver: waits on every connection at once, timestamps each
/// reply line as it is read, and frees its window slot.
fn receive(
    mut readers: Vec<TcpStream>,
    order: &[Vec<usize>],
    tokens: Vec<Receiver<()>>,
    n: usize,
    start: Instant,
) -> (Vec<u64>, Vec<String>) {
    let mut received = vec![u64::MAX; n];
    let mut replies = vec![String::new(); n];
    let mut pos = vec![0usize; readers.len()];
    let mut pending: Vec<Vec<u8>> = vec![Vec::new(); readers.len()];
    let mut open: Vec<bool> = order.iter().map(|o| !o.is_empty()).collect();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut last_progress = Instant::now();
    while open.iter().any(|&o| o) {
        let fds: Vec<i32> = readers.iter().map(AsRawFd::as_raw_fd).collect();
        let ready = match sys::poll_readable(&fds, &open, 200) {
            Ok(r) => r,
            Err(_) => break,
        };
        if !ready.iter().any(|&r| r) {
            if last_progress.elapsed() > STALL_LIMIT {
                break;
            }
            continue;
        }
        for c in 0..readers.len() {
            if !ready[c] {
                continue;
            }
            let got = match readers[c].read(&mut chunk) {
                Ok(0) | Err(_) => {
                    open[c] = false;
                    continue;
                }
                Ok(got) => got,
            };
            let now = ns_since(start);
            last_progress = Instant::now();
            sys::ack_now(fds[c]);
            pending[c].extend_from_slice(&chunk[..got]);
            let mut consumed = 0;
            while let Some(nl) = pending[c][consumed..].iter().position(|&b| b == b'\n') {
                let line = &pending[c][consumed..consumed + nl];
                consumed += nl + 1;
                let Some(&i) = order[c].get(pos[c]) else {
                    continue; // unsolicited line: ignore
                };
                pos[c] += 1;
                received[i] = now;
                replies[i] = String::from_utf8_lossy(line).into_owned();
                let _ = tokens[c].recv();
            }
            pending[c].drain(..consumed);
            if pos[c] == order[c].len() {
                open[c] = false;
            }
        }
    }
    (received, replies)
}

/// The system calls std does not wrap.
mod sys {
    use std::os::raw::{c_int, c_short, c_ulong, c_void};

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x1;
    const POLLERR: c_short = 0x8;
    const POLLHUP: c_short = 0x10;
    const PR_SET_TIMERSLACK: c_int = 29;
    const IPPROTO_TCP: c_int = 6;
    const TCP_QUICKACK: c_int = 12;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        fn prctl(option: c_int, ...) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }

    /// Acknowledges received data at once instead of up to 40 ms later.
    /// The server does not set `TCP_NODELAY`, so while an earlier reply
    /// is unacknowledged its next reply waits in the kernel; one
    /// pipelined connection standing in for many clients must not hold
    /// replies back that independent clients would get at once. The
    /// kernel clears the flag again, so it is re-armed after every read.
    pub fn ack_now(fd: i32) {
        let on: c_int = 1;
        // SAFETY: `on` outlives the call and `len` is its exact size;
        // setsockopt only reads it. A failure leaves delayed ACKs on.
        unsafe {
            setsockopt(
                fd,
                IPPROTO_TCP,
                TCP_QUICKACK,
                std::ptr::addr_of!(on).cast::<c_void>(),
                std::mem::size_of::<c_int>() as u32,
            );
        }
    }

    /// Which of `fds` (those with `watch` set) are readable or closed,
    /// waiting up to `timeout_ms`.
    pub fn poll_readable(
        fds: &[i32],
        watch: &[bool],
        timeout_ms: i32,
    ) -> std::io::Result<Vec<bool>> {
        let mut set: Vec<PollFd> = fds
            .iter()
            .zip(watch)
            .map(|(&fd, &w)| PollFd {
                // A negative fd is skipped by poll(2).
                fd: if w { fd } else { -1 },
                events: POLLIN,
                revents: 0,
            })
            .collect();
        // SAFETY: `set` is a live, exclusively borrowed array of `set.len()`
        // `pollfd`-layout structs for the duration of the call, and poll(2)
        // writes only their `revents` fields.
        let rc = unsafe { poll(set.as_mut_ptr(), set.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(vec![false; fds.len()]);
            }
            return Err(err);
        }
        Ok(set
            .iter()
            .map(|p| p.fd >= 0 && p.revents & (POLLIN | POLLERR | POLLHUP) != 0)
            .collect())
    }

    /// Asks the kernel to wake this thread's sleeps on time rather than
    /// up to the default 50 µs late, so the open-loop schedule holds.
    pub fn tighten_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, LEADER};
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::{Arc, Mutex};

    fn items(n: usize) -> Vec<Item> {
        (0..n)
            .map(|i| Item {
                conn: LEADER,
                kind: Kind::Other,
                line: format!("stat {i}"),
            })
            .collect()
    }

    /// A stub server that answers every line with `ok`, except that after
    /// reading line `stall_at` it stops for `stall` once. It records when
    /// the stall ended.
    fn stub(stall_at: usize, stall: Duration) -> (String, Arc<Mutex<Option<Instant>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let resumed = Arc::new(Mutex::new(None));
        let mark = Arc::clone(&resumed);
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            for (i, line) in BufReader::new(stream).lines().enumerate() {
                if line.is_err() {
                    return;
                }
                if i == stall_at {
                    std::thread::sleep(stall);
                    *mark.lock().unwrap() = Some(Instant::now());
                }
                if out.write_all(b"ok\n").is_err() {
                    return;
                }
            }
        });
        (addr, resumed)
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let stall = Duration::from_millis(200);
        let (addr, resumed) = stub(50, stall);
        let conn = connect(&addr).unwrap();
        // 1,000 req/s for 0.4 s, at most 16 in flight: the stall at
        // request 50 leaves ~200 requests due while the stub sleeps.
        let work = items(400);
        let due: Vec<u64> = (0..400u64).map(|i| i * 1_000_000).collect();
        let r = run_phase(&[conn], &work, Schedule::Open(&due), 16);
        assert_eq!(r.missing(), 0);
        let resumed = resumed.lock().unwrap().expect("stub stalled");
        let resumed_ns = u64::try_from(resumed.duration_since(r.start).as_nanos()).unwrap();
        let stall_ns = u64::try_from(stall.as_nanos()).unwrap();
        let mut during = 0;
        for i in 0..work.len() {
            if r.due[i] < resumed_ns && r.due[i] + stall_ns > resumed_ns {
                during += 1;
                let remaining = resumed_ns - r.due[i];
                let latency = r.latency_ns(i).unwrap();
                assert!(latency >= remaining, "request {i}: {latency} < {remaining}");
            }
        }
        assert!(during >= 150, "{during} requests due during the stall");
        // The window filled during the stall, so the sender ran late by
        // most of it.
        let late_max = (0..work.len()).map(|i| r.late_ns(i)).max().unwrap();
        assert!(late_max > stall_ns / 2, "late_max {late_max}");
        let late = (0..work.len())
            .filter(|&i| r.late_ns(i) > 1_000_000)
            .count();
        assert!(late > 100, "{late} late sends");
    }

    #[test]
    fn closed_loop_keeps_order_and_answers_everything() {
        let (addr, _) = stub(usize::MAX, Duration::ZERO);
        let conn = connect(&addr).unwrap();
        let work = items(2_000);
        let r = run_phase(&[conn], &work, Schedule::Closed, 64);
        assert_eq!(r.missing(), 0);
        assert!(r.replies.iter().all(|l| l == "ok"));
        assert!((1..work.len()).all(|i| r.received[i] >= r.received[i - 1]));
        assert!(r.due == r.sent);
    }
}

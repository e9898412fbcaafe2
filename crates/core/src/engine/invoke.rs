//! The async invocation pool: bounded workers, retry/backoff/timeout, and
//! ordered result harvest.
//!
//! The paper's §3.3 tool loop runs wrapper programs *outside* the tracking
//! system; this module is the engine-side owner of those runs. The command
//! loop prepares a [`DetachedJob`] per invocation (capturing everything the
//! tool needs by value), submits it here, and keeps serving requests; a
//! bounded pool of worker threads runs the jobs, retries retryable
//! failures under a per-script [`RetryPolicy`] with exponential backoff,
//! and parks terminal outcomes for the server to harvest.
//!
//! # The ordering contract
//!
//! Results are harvested in **submission order**, not completion order:
//! [`Invoker::harvest`] releases only the contiguous prefix of finished
//! jobs. Tool runs overlap freely across worker threads, but their result
//! messages re-enter the event queue exactly as if each tool had run
//! synchronously at its dispatch point — so the final image is independent
//! of scheduling and fault timing. This closes the PR 5 caveat where
//! sharded drains dispatched invocations post-batch: dispatch order is now
//! the *only* order the engine ever observes.
//!
//! # Lifecycle
//!
//! ```text
//! submit → pending ── worker picks up ──→ running ──Ok──→ finished(Completed)
//!             ▲                             │
//!             └── backoff elapsed ──────────┤Err / attempt timeout
//!                                           ▼
//!                        retrying (delay = base·multiplierⁿ)
//!                                           │ attempts exhausted
//!                                           ▼
//!                                  finished(Failed)
//! ```
//!
//! Timeouts are cooperative: a worker cannot kill a running closure, so an
//! attempt whose wall-clock run time exceeds [`RetryPolicy::timeout`] has
//! its result discarded and counted as a failed attempt.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use damocles_meta::EventMessage;

use crate::engine::exec::DetachedJob;

/// Retry discipline for one script's detached runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = fail on first error).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Backoff growth factor: delay before retry *n* is
    /// `base_delay · multiplier^(n-1)`.
    pub multiplier: u32,
    /// Per-attempt wall-clock budget (cooperative; see module docs).
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            multiplier: 2,
            timeout: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep before retry `n` (1-based).
    pub fn delay_before_retry(&self, n: u32) -> Duration {
        let factor = self.multiplier.max(1).saturating_pow(n.saturating_sub(1));
        self.base_delay.saturating_mul(factor)
    }
}

/// How a detached invocation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeOutcome {
    /// The tool ran (possibly after retries); these are its messages.
    Completed {
        /// Result event messages to feed back into the queue.
        messages: Vec<EventMessage>,
        /// Attempts consumed (≥ 1).
        attempts: u32,
    },
    /// Every attempt failed; the retry budget is exhausted.
    Failed {
        /// Attempts consumed (≥ 1).
        attempts: u32,
        /// The last failure reason.
        reason: String,
    },
}

/// A terminal invocation released by [`Invoker::harvest`].
#[derive(Debug)]
pub struct FinishedInvocation {
    /// The invocation id it was submitted under.
    pub id: u64,
    /// Script (tool) name.
    pub script: String,
    /// The OID string of the rule site that requested the run.
    pub origin: String,
    /// The triggering event name.
    pub event: String,
    /// How it ended.
    pub outcome: InvokeOutcome,
}

/// Live pool counters, for `ServerStat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvokeStats {
    /// Submitted, first attempt not yet started.
    pub pending: u64,
    /// Currently executing on a worker.
    pub running: u64,
    /// Failed at least once and waiting (or queued) to retry.
    pub retrying: u64,
    /// Terminal failures since the pool was created.
    pub failed: u64,
    /// Terminal completions since the pool was created.
    pub completed: u64,
    /// Failed attempts pushed back for a retry since the pool was
    /// created (cumulative, unlike `retrying`).
    pub retried: u64,
    /// Attempts that exceeded their wall-clock budget since the pool was
    /// created.
    pub timed_out: u64,
}

struct JobEntry {
    job: DetachedJob,
    script: String,
    origin: String,
    event: String,
    policy: RetryPolicy,
    /// Zero-based attempt about to run (== failures so far).
    attempt: u32,
}

#[derive(Default)]
struct PoolState {
    /// Ids ready to run now, FIFO.
    ready: VecDeque<u64>,
    /// Ids in backoff: runnable once their instant passes.
    delayed: Vec<(Instant, u64)>,
    /// Job bodies for every non-terminal, non-running id.
    jobs: HashMap<u64, JobEntry>,
    /// Terminal outcomes not yet released (keyed by id for prefix harvest).
    finished: BTreeMap<u64, FinishedInvocation>,
    /// Submission order; the harvest releases its prefix.
    order: VecDeque<u64>,
    running: u64,
    failed_total: u64,
    completed_total: u64,
    retried_total: u64,
    timed_out_total: u64,
    shutdown: bool,
}

impl PoolState {
    fn harvestable(&self) -> bool {
        self.order
            .front()
            .is_some_and(|id| self.finished.contains_key(id))
    }

    /// Pops a runnable id, if any (FIFO ready queue first, then any
    /// expired backoff entry).
    fn pop_runnable(&mut self, now: Instant) -> Option<u64> {
        if let Some(id) = self.ready.pop_front() {
            return Some(id);
        }
        let pos = self.delayed.iter().position(|(at, _)| *at <= now)?;
        Some(self.delayed.remove(pos).1)
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.delayed.iter().map(|(at, _)| *at).min()
    }
}

struct Shared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// The bounded worker pool running detached tool invocations.
///
/// Owned by the project server; dropped pools wake and join their workers
/// (abandoning any un-run jobs — on a durable server those are journaled
/// as in-flight and re-dispatched on recovery).
pub struct Invoker {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    cap: usize,
    default_policy: RetryPolicy,
    policies: HashMap<String, RetryPolicy>,
}

impl std::fmt::Debug for Invoker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Invoker")
            .field("workers", &self.workers.len())
            .field("cap", &self.cap)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for Invoker {
    fn default() -> Self {
        Invoker::new(DEFAULT_WORKERS)
    }
}

/// Default worker-pool bound.
pub const DEFAULT_WORKERS: usize = 4;

impl Invoker {
    /// Creates a pool bounded at `cap` workers (≥ 1). Threads spawn
    /// lazily, one per submitted job up to the bound.
    pub fn new(cap: usize) -> Self {
        Invoker {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState::default()),
                cv: Condvar::new(),
            }),
            workers: Vec::new(),
            cap: cap.max(1),
            default_policy: RetryPolicy::default(),
            policies: HashMap::new(),
        }
    }

    /// Sets the retry policy for `script`, or the pool default when
    /// `script` is `None`. Applies to subsequent submissions.
    pub fn set_policy(&mut self, script: Option<&str>, policy: RetryPolicy) {
        match script {
            Some(s) => {
                self.policies.insert(s.to_string(), policy);
            }
            None => self.default_policy = policy,
        }
    }

    /// The policy a submission of `script` would run under.
    pub fn policy_for(&self, script: &str) -> RetryPolicy {
        self.policies
            .get(script)
            .copied()
            .unwrap_or(self.default_policy)
    }

    /// Every configured per-script policy plus the default, for servers
    /// that re-install policies across re-initialization.
    pub fn policies(&self) -> (RetryPolicy, Vec<(String, RetryPolicy)>) {
        (
            self.default_policy,
            self.policies.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        )
    }

    /// Submits a detached job under invocation id `id`. Ids must be
    /// unique and submitted in dispatch order — the harvest releases
    /// results in exactly this order.
    pub fn submit(&mut self, id: u64, script: &str, origin: &str, event: &str, job: DetachedJob) {
        let entry = JobEntry {
            job,
            script: script.to_string(),
            origin: origin.to_string(),
            event: event.to_string(),
            policy: self.policy_for(script),
            attempt: 0,
        };
        {
            let mut state = self.shared.state.lock().expect("invoker pool poisoned");
            state.jobs.insert(id, entry);
            state.order.push_back(id);
            state.ready.push_back(id);
            self.shared.cv.notify_one();
        }
        if self.workers.len() < self.cap {
            let shared = Arc::clone(&self.shared);
            self.workers
                .push(std::thread::spawn(move || worker_loop(&shared)));
        }
    }

    /// Terminal results ready for release: the contiguous submission-order
    /// prefix that has finished. Later-finished jobs wait for earlier ones
    /// so feedback order equals dispatch order.
    pub fn harvest(&self) -> Vec<FinishedInvocation> {
        let mut state = self.shared.state.lock().expect("invoker pool poisoned");
        let mut out = Vec::new();
        while let Some(&front) = state.order.front() {
            match state.finished.remove(&front) {
                Some(fin) => {
                    state.order.pop_front();
                    out.push(fin);
                }
                None => break,
            }
        }
        out
    }

    /// Submitted invocations not yet harvested (running, waiting, or
    /// finished-but-held for ordering).
    pub fn in_flight(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("invoker pool poisoned")
            .order
            .len()
    }

    /// Blocks until a harvestable result exists (true) or `timeout`
    /// passes (false). Used by the blocking drain
    /// ([`ProjectServer::process_all`]); the command loops never block
    /// here and harvest on their pump tick instead.
    ///
    /// [`ProjectServer::process_all`]: crate::engine::server::ProjectServer::process_all
    pub fn wait_harvest(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("invoker pool poisoned");
        loop {
            if state.harvestable() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .shared
                .cv
                .wait_timeout(state, deadline - now)
                .expect("invoker pool poisoned");
            state = next;
        }
    }

    /// Live pool counters.
    pub fn stats(&self) -> InvokeStats {
        let state = self.shared.state.lock().expect("invoker pool poisoned");
        let mut pending = 0;
        let mut retrying = 0;
        for id in state
            .ready
            .iter()
            .chain(state.delayed.iter().map(|(_, id)| id))
        {
            match state.jobs.get(id).map(|j| j.attempt) {
                Some(0) => pending += 1,
                Some(_) => retrying += 1,
                None => {}
            }
        }
        InvokeStats {
            pending,
            running: state.running,
            retrying,
            failed: state.failed_total,
            completed: state.completed_total,
            retried: state.retried_total,
            timed_out: state.timed_out_total,
        }
    }
}

impl Drop for Invoker {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("invoker pool poisoned");
            state.shutdown = true;
            self.shared.cv.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("invoker pool poisoned");
    loop {
        if state.shutdown {
            return;
        }
        let Some(id) = state.pop_runnable(Instant::now()) else {
            let wait = state
                .next_deadline()
                .map(|at| at.saturating_duration_since(Instant::now()));
            state = match wait {
                Some(d) => {
                    shared
                        .cv
                        .wait_timeout(state, d)
                        .expect("invoker pool poisoned")
                        .0
                }
                None => shared.cv.wait(state).expect("invoker pool poisoned"),
            };
            continue;
        };
        let mut entry = state.jobs.remove(&id).expect("runnable id has a job entry");
        state.running += 1;
        drop(state);

        let attempt = entry.attempt;
        let started = Instant::now();
        let mut result = (entry.job)(attempt);
        let mut timed_out = false;
        if result.is_ok() && started.elapsed() > entry.policy.timeout {
            // Cooperative timeout: the run outlived its budget, so its
            // result is discarded and the attempt counts as failed.
            timed_out = true;
            result = Err(format!(
                "attempt {} timed out (budget {:?})",
                attempt + 1,
                entry.policy.timeout
            ));
        }

        state = shared.state.lock().expect("invoker pool poisoned");
        state.running -= 1;
        if timed_out {
            state.timed_out_total += 1;
        }
        match result {
            Ok(messages) => {
                state.completed_total += 1;
                state.finished.insert(
                    id,
                    FinishedInvocation {
                        id,
                        script: std::mem::take(&mut entry.script),
                        origin: std::mem::take(&mut entry.origin),
                        event: std::mem::take(&mut entry.event),
                        outcome: InvokeOutcome::Completed {
                            messages,
                            attempts: attempt + 1,
                        },
                    },
                );
                shared.cv.notify_all();
            }
            Err(reason) if attempt >= entry.policy.max_retries => {
                state.failed_total += 1;
                state.finished.insert(
                    id,
                    FinishedInvocation {
                        id,
                        script: std::mem::take(&mut entry.script),
                        origin: std::mem::take(&mut entry.origin),
                        event: std::mem::take(&mut entry.event),
                        outcome: InvokeOutcome::Failed {
                            attempts: attempt + 1,
                            reason,
                        },
                    },
                );
                shared.cv.notify_all();
            }
            Err(_) => {
                entry.attempt += 1;
                state.retried_total += 1;
                let delay = entry.policy.delay_before_retry(entry.attempt);
                state.delayed.push((Instant::now() + delay, id));
                state.jobs.insert(id, entry);
                shared.cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_delay: Duration::from_millis(1),
            multiplier: 2,
            timeout: Duration::from_secs(5),
        }
    }

    fn drain(invoker: &Invoker, expect: usize) -> Vec<FinishedInvocation> {
        let mut out = Vec::new();
        while out.len() < expect {
            assert!(
                invoker.wait_harvest(Duration::from_secs(10)),
                "pool went quiet with {} of {expect} results",
                out.len()
            );
            out.extend(invoker.harvest());
        }
        out
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let mut invoker = Invoker::new(4);
        invoker.set_policy(None, fast_policy(0));
        for id in 0..8u64 {
            // Earlier jobs sleep longer: completion order is reversed.
            invoker.submit(
                id,
                "tool",
                "o",
                "ev",
                Box::new(move |_| {
                    std::thread::sleep(Duration::from_millis(8u64.saturating_sub(id)));
                    Ok(Vec::new())
                }),
            );
        }
        let finished = drain(&invoker, 8);
        let ids: Vec<u64> = finished.iter().map(|f| f.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert_eq!(invoker.in_flight(), 0);
    }

    #[test]
    fn retries_until_success_with_attempt_counts() {
        let mut invoker = Invoker::new(2);
        invoker.set_policy(Some("flaky"), fast_policy(5));
        invoker.submit(
            0,
            "flaky",
            "o",
            "ev",
            Box::new(|attempt| {
                if attempt < 3 {
                    Err(format!("boom {attempt}"))
                } else {
                    Ok(Vec::new())
                }
            }),
        );
        let finished = drain(&invoker, 1);
        assert!(matches!(
            finished[0].outcome,
            InvokeOutcome::Completed { attempts: 4, .. }
        ));
        // The cumulative fault counters survive the success.
        assert_eq!(invoker.stats().retried, 3);
        assert_eq!(invoker.stats().timed_out, 0);
    }

    #[test]
    fn exhausted_retries_fail_with_last_reason() {
        let mut invoker = Invoker::new(2);
        invoker.set_policy(None, fast_policy(2));
        invoker.submit(
            7,
            "doomed",
            "site",
            "ckin",
            Box::new(|a| Err(format!("err {a}"))),
        );
        let finished = drain(&invoker, 1);
        assert_eq!(finished[0].script, "doomed");
        assert_eq!(
            finished[0].outcome,
            InvokeOutcome::Failed {
                attempts: 3,
                reason: "err 2".into()
            }
        );
        assert_eq!(invoker.stats().failed, 1);
    }

    #[test]
    fn backoff_grows_geometrically() {
        let p = RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(10),
            multiplier: 3,
            timeout: Duration::from_secs(1),
        };
        assert_eq!(p.delay_before_retry(1), Duration::from_millis(10));
        assert_eq!(p.delay_before_retry(2), Duration::from_millis(30));
        assert_eq!(p.delay_before_retry(3), Duration::from_millis(90));
    }
}

//! One benchmark run of one workload against the real `damocles_server`
//! processes.
//!
//! 1. **Set-up**, several times: spawn the server(s) on a fresh directory,
//!    populate the design through the protocol (pipelined, 64 in
//!    flight), drain once, and for a follower wait until it has applied
//!    everything. `setup_s` is the median; the last set-up is kept.
//! 2. **Open loop**: `rate × seconds` requests at the workload's rate.
//! 3. **Saturation**: a fixed request count, 64 in flight per connection.
//! 4. **Read check**: reads of the final state on the leader, one in
//!    flight.
//! 5. **Checks**: every reply on the leader connection must equal the
//!    in-process replay's ([`crate::replay`]); follower reads must answer
//!    the object asked for; the final `stat` and `dump` must match the
//!    replay's, the follower's `dump` the leader's, and every tenant's.
//!
//! With tracing on, a second set-up runs the open loop again with client
//! spans and probes (follower visibility, fleet residency), and the
//! replay's spans give the per-layer numbers.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use blueprint_core::engine::api::{Request, Response, ServerStat};

use crate::net::{self, PhaseResult, Schedule};
use crate::procs::{ProcSample, Server};
use crate::replay::{self, Replay, WINDOW};
use crate::report::{metrics_json, Metric, Outcome};
use crate::stats::{median, ms, quantile};
use crate::trace::Tracer;
use crate::workload::{self, Item, Kind, Plan, Workload, FOLLOWER, LEADER};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the open-loop phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Where the span file goes (traced runs).
    pub trace_out: PathBuf,
    /// The `damocles_server` binary.
    pub server: PathBuf,
    /// Scratch space for journals and logs; emptied after the run.
    pub workdir: PathBuf,
    /// Short run: one set-up, saturation phase divided by 20.
    pub smoke: bool,
}

/// The gated end-to-end metrics, printed with `--trace 0`. A metric is
/// gated only when its spread over ten seeds (interquartile range over
/// median) stays at or below 0.25 / 3 on every workload in both sets of
/// `baselines/host-2cpu.json`; `setup_s` is always gated. Every other
/// metric of the untraced run is a demoted diagnostic, printed with
/// `--trace 1` under the same name.
pub const END_TO_END: [&str; 2] = ["setup_s", "rss_mb"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// In-flight cap per connection during the open loop (a memory bound).
const OPEN_WINDOW: usize = 1024;
/// Fleet sizing for fleet_churn.
const FLEET_ENGINE_WORKERS: &str = "2";
const FLEET_MAX_ACTIVE: &str = "8";

/// Request accounting over every phase of a run.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    /// Counts a phase: every request attempted, missing and `err`
    /// replies failed.
    fn phase(&mut self, what: &str, items: &[Item], r: &PhaseResult) {
        self.attempted += items.len() as u64;
        let missing = r.missing() as u64;
        let errors = r.replies.iter().filter(|l| l.starts_with("err")).count() as u64;
        self.failed += missing + errors;
        if missing > 0 {
            self.problem(format!("{what}: {missing} requests got no reply"));
        }
        if let Some(i) = r.replies.iter().position(|l| l.starts_with("err")) {
            self.problem(format!(
                "{what}: {errors} error replies; first: `{}` -> `{}`",
                items[i].line, r.replies[i]
            ));
        }
    }

    fn wrong(&mut self, n: u64, message: String) {
        self.failed += n;
        self.problem(message);
    }

    fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }
}

/// The running server processes and the generator's connections to them.
struct Env {
    servers: Vec<Server>,
    conns: Vec<TcpStream>,
}

impl Env {
    /// Spawns the workload's server(s) on `dir` and connects.
    fn start(opts: &Options, plan: &Plan, dir: &Path) -> Result<Env, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let blueprint = dir.join("design.bp");
        std::fs::write(&blueprint, plan.design.blueprint()).map_err(|e| e.to_string())?;
        let bp = blueprint.display().to_string();
        let mut args = vec![bp.clone(), "--listen".into(), "127.0.0.1:0".into()];
        if plan.workload.fleet() {
            args.extend([
                "--fleet".into(),
                dir.join("fleet").display().to_string(),
                "--engine-workers".into(),
                FLEET_ENGINE_WORKERS.into(),
                "--max-active".into(),
                FLEET_MAX_ACTIVE.into(),
            ]);
        } else {
            args.extend([
                "--journal".into(),
                dir.join("journal").display().to_string(),
            ]);
        }
        let spawn = |args: &[String], log: &str, marker: &str| {
            Server::spawn(&opts.server, args, &dir.join(log), marker)
                .map_err(|e| format!("starting damocles_server: {e}"))
        };
        let leader = spawn(&args, "leader.log", "listening on ")?;
        let connect = |addr: &str| net::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
        let mut conns = vec![connect(&leader.addr)?];
        let mut servers = vec![leader];
        if plan.workload.follower() {
            let args = [
                bp,
                "--follow".into(),
                servers[0].addr.clone(),
                "--listen".into(),
                "127.0.0.1:0".into(),
            ];
            let follower = spawn(&args, "follower.log", "front door on ")?;
            conns.push(connect(&follower.addr)?);
            servers.push(follower);
        }
        Ok(Env { servers, conns })
    }

    /// Sends `requests` on `conn`, closed-loop, and returns the replies.
    fn call(&self, conn: usize, requests: &[Request]) -> (Vec<Item>, PhaseResult) {
        let items: Vec<Item> = requests.iter().map(|r| Item::new(conn, r)).collect();
        let r = net::run_phase(&self.conns, &items, Schedule::Closed, WINDOW);
        (items, r)
    }

    /// `stat` on `conn`, outside the ledger (a harness probe).
    fn stat(&self, conn: usize) -> Option<ServerStat> {
        let (_, r) = self.call(conn, &[Request::Stat]);
        match Response::decode(&r.replies[0]) {
            Ok(Response::Stat { stat }) => Some(stat),
            _ => None,
        }
    }

    /// Waits until the follower (if any) has applied everything the
    /// leader committed.
    fn await_follower(&self) -> bool {
        if self.conns.len() <= FOLLOWER {
            return true;
        }
        let Some(leader) = self.stat(LEADER) else {
            return false;
        };
        let target = (leader.cursor_epoch, leader.cursor_seq);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Some(f) = self.stat(FOLLOWER) {
                if (f.cursor_epoch, f.cursor_seq) >= target {
                    return true;
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    fn samples(&self) -> Vec<ProcSample> {
        self.servers.iter().map(Server::sample).collect()
    }
}

/// The population phase on a fresh `dir`: returns the environment, the
/// set-up replies and the seconds it took.
fn set_up(
    opts: &Options,
    plan: &Plan,
    dir: &Path,
    ledger: &mut Ledger,
) -> Result<(Env, PhaseResult, f64), String> {
    let started = Instant::now();
    let env = Env::start(opts, plan, dir)?;
    let r = net::run_phase(&env.conns, &plan.setup, Schedule::Closed, WINDOW);
    ledger.phase("set-up", &plan.setup, &r);
    if !env.await_follower() {
        return Err("the follower did not catch up after set-up".into());
    }
    Ok((env, r, started.elapsed().as_secs_f64()))
}

/// Open-loop due times: request `i` at `i / rate`.
fn due_times(n: usize, rate: u64) -> Vec<u64> {
    (0..n as u64).map(|i| i * 1_000_000_000 / rate).collect()
}

/// Latencies (ns) of the answered plan requests whose kind passes `keep`.
fn latencies(items: &[Item], r: &PhaseResult, keep: impl Fn(Kind) -> bool) -> Vec<u64> {
    (0..items.len())
        .filter(|&i| keep(items[i].kind))
        .filter_map(|i| r.latency_ns(i))
        .collect()
}

/// The run's end-to-end and per-layer results.
///
/// # Errors
///
/// When a server cannot be started or set up; request failures are not
/// errors but counted in the outcome.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let scale = if opts.smoke { 20 } else { 1 };
    let plan = workload::plan(opts.workload, opts.seed, opts.seconds, scale);
    let dir = opts.workdir.join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let result = measure(opts, &plan, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(opts: &Options, plan: &Plan, dir: &Path) -> Result<Outcome, String> {
    let mut ledger = Ledger::default();
    let mut out = Outcome::default();
    let w = plan.workload;

    // 1. Set-up, repeated; the last environment is measured.
    let setups = if opts.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..setups {
        // A discarded set-up's files go at once, so their writeback does
        // not overlap the measured phases.
        if let Some((env, _)) = kept.take() {
            drop(env);
            let _ = std::fs::remove_dir_all(dir.join(format!("setup{}", k - 1)));
        }
        let (env, r, secs) = set_up(opts, plan, &dir.join(format!("setup{k}")), &mut ledger)?;
        setup_s.push(secs);
        kept = Some((env, r));
    }
    let (env, setup_replies) = kept.expect("at least one set-up");

    // The fleet reports its counters on any attached session; the probe
    // then re-attaches the tenant the plan's session was on, so the next
    // plan request is routed where the replay routes it.
    let probe_stat = |env: &Env, resume: Option<&Item>| {
        if w.fleet() {
            let attach = Request::Attach {
                project: plan.tenants[0].clone(),
                create: false,
            };
            env.call(LEADER, &[attach]);
        }
        let stat = env.stat(LEADER);
        if let Some(Ok(request)) = resume.map(|i| Request::decode(&i.line)) {
            env.call(LEADER, &[request]);
        }
        stat
    };
    let stat0 = probe_stat(&env, None).ok_or("no stat from the leader")?;
    eprintln!(
        "env: workload {} seed {} rate {} req/s open {} req saturation {} req; \
         server wave_workers {} (stat); host available_parallelism {}",
        w.name(),
        opts.seed,
        plan.rate,
        plan.open.len(),
        plan.saturation.len(),
        stat0.wave_workers,
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );

    // 2. Open loop.
    let due = due_times(plan.open.len(), plan.rate);
    let before = env.samples();
    let open = net::run_phase(&env.conns, &plan.open, Schedule::Open(&due), OPEN_WINDOW);
    let after = env.samples();
    ledger.phase("open loop", &plan.open, &open);
    let last_attach = plan.open.iter().rev().find(|i| i.kind == Kind::Attach);
    let stat1 = probe_stat(&env, last_attach).ok_or("no stat from the leader")?;

    // 3. Saturation.
    let sat = net::run_phase(&env.conns, &plan.saturation, Schedule::Closed, WINDOW);
    ledger.phase("saturation", &plan.saturation, &sat);

    // 4. The read check, one read in flight.
    let reads = net::run_phase(&env.conns, &plan.reads, Schedule::Closed, 1);
    ledger.phase("read check", &plan.reads, &reads);

    // 5. Final state, then stop the servers.
    if !env.await_follower() {
        ledger.wrong(1, "the follower did not catch up after the run".into());
    }
    let finals = final_state(&env, plan, &mut ledger);
    let hwm_kb: u64 = env.samples().iter().map(|s| s.hwm_kb).sum();
    drop(env);

    // Every metric of the untraced run; `--trace 0` prints the gated ones.
    let mut all = latencies(&plan.open, &open, |_| true);
    let mut drains = latencies(&plan.open, &open, |k| k == Kind::Process);
    let mut writes = latencies(&plan.open, &open, |k| k == Kind::Write);
    let mut read_lat = latencies(&plan.open, &open, Kind::is_read);
    if read_lat.is_empty() {
        read_lat = latencies(&plan.reads, &reads, Kind::is_read);
    }
    let secs = setup_s
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect::<Vec<_>>();
    eprintln!("set-ups: {} s", secs.join(" "));
    let mut untraced = Outcome::default();
    untraced.push("setup_s", median(&setup_s), "s");
    untraced.push("p50_ms", ms(quantile(&mut all, 0.5)), "ms");
    untraced.push("p99_ms", ms(quantile(&mut all, 0.99)), "ms");
    untraced.push("drain_p50_ms", ms(quantile(&mut drains, 0.5)), "ms");
    untraced.push("read_p50_ms", ms(quantile(&mut read_lat, 0.5)), "ms");
    untraced.push("write_p50_ms", ms(quantile(&mut writes, 0.5)), "ms");
    let sat_secs = sat.elapsed_ns() as f64 / 1e9;
    untraced.push(
        "sat_rps",
        plan.saturation.len() as f64 / sat_secs.max(1e-9),
        "req/s",
    );
    untraced.push("rss_mb", hwm_kb as f64 / 1024.0, "MB");
    let n_open = plan.open.len() as f64;
    proc_metrics(&mut untraced, &before, &after, n_open);
    let mut late: Vec<u64> = (0..plan.open.len()).map(|i| open.late_ns(i)).collect();
    let late_frac = late.iter().filter(|&&l| l > 1_000_000).count() as f64 / n_open;
    untraced.push("gen.late_ms_max", ms(quantile(&mut late, 1.0)), "ms");
    untraced.push("gen.late_frac", late_frac, "fraction");
    untraced.push("lat.p999_ms", ms(quantile(&mut all, 0.999)), "ms");
    untraced.push("lat.max_ms", ms(quantile(&mut all, 1.0)), "ms");
    let sessions = plan.open.iter().filter(|i| i.kind == Kind::Attach).count() as f64;
    let per_k = |d: u64| {
        if sessions > 0.0 {
            1000.0 * d as f64 / sessions
        } else {
            0.0
        }
    };
    untraced.push(
        "fleet.activations_per_kop",
        per_k(stat1.activations.saturating_sub(stat0.activations)),
        "count",
    );
    untraced.push(
        "fleet.evictions_per_kop",
        per_k(stat1.evictions.saturating_sub(stat0.evictions)),
        "count",
    );

    // The traced pass, on fresh servers, before the replay so that its
    // spans and the replay's share one clock.
    let mut tracer = Tracer::new();
    let traced = if opts.trace {
        Some(traced_pass(
            opts,
            plan,
            &dir.join("traced"),
            &mut tracer,
            &mut ledger,
        )?)
    } else {
        None
    };

    // 6. The in-process replay: the oracle, and the per-layer spans. Its
    // journal is only needed when the journal layer is timed.
    let replay_dir = dir.join("replay");
    let mut replay = Replay::new(plan, opts.trace.then_some(replay_dir.as_path()))?;
    let oracle_setup = replay.run_untimed(&plan.setup);
    replay.tracer = if opts.trace {
        tracer
    } else {
        Tracer::disabled()
    };
    let measured: Vec<Item> = plan.measured().cloned().collect();
    let oracle = replay.run(&measured);
    let oracle_reads = replay.run(&plan.reads);
    compare(
        &mut ledger,
        "set-up",
        &plan.setup,
        &setup_replies.replies,
        &oracle_setup,
    );
    compare(&mut ledger, "open loop", &plan.open, &open.replies, &oracle);
    compare(
        &mut ledger,
        "saturation",
        &plan.saturation,
        &sat.replies,
        &oracle[plan.open.len()..],
    );
    compare(
        &mut ledger,
        "read check",
        &plan.reads,
        &reads.replies,
        &oracle_reads,
    );
    if let Some(t) = &traced {
        compare(
            &mut ledger,
            "traced open loop",
            &plan.open,
            &t.replies,
            &oracle,
        );
    }
    check_final(&mut ledger, plan, &finals, &mut replay);

    let (gated, diagnostic): (Vec<Metric>, Vec<Metric>) = untraced
        .metrics
        .into_iter()
        .partition(|m| END_TO_END.contains(&m.name.as_str()));
    if let Some(t) = traced {
        out.metrics = diagnostic;
        replay.metrics(&mut out);
        out.push(
            "trace.overhead_frac",
            replay::tracing_overhead(plan)?,
            "fraction",
        );
        for m in &t.extras {
            eprintln!("traced: {} = {:.4} {}", m.name, m.value, m.unit);
        }
        let file = std::fs::File::create(&opts.trace_out)
            .map_err(|e| format!("{}: {e}", opts.trace_out.display()))?;
        let mut file = std::io::BufWriter::new(file);
        replay
            .tracer
            .write_jsonl(&mut file)
            .and_then(|()| {
                let all = metrics_json(out.metrics.iter().chain(&t.extras));
                writeln!(file, "{{\"metrics\":{all}}}")
            })
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: {e}", opts.trace_out.display()))?;
        eprintln!("trace: spans and summary in {}", opts.trace_out.display());
    } else {
        out.metrics = gated;
        for m in diagnostic {
            eprintln!("{} = {:.4} {}", m.name, m.value, m.unit);
        }
    }
    out.attempted = ledger.attempted;
    out.failed = ledger.failed;
    out.correct = ledger.failed == 0 && ledger.problems.is_empty();
    out.problems = ledger.problems;
    Ok(out)
}

/// Server CPU and context switches over the open loop.
fn proc_metrics(out: &mut Outcome, before: &[ProcSample], after: &[ProcSample], requests: f64) {
    let cpu: f64 = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.cpu_ms - b.cpu_ms)
        .sum();
    let ctx: u64 = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.ctx_switches.saturating_sub(b.ctx_switches))
        .sum();
    out.push(
        "proc.cpu_ms_per_kreq",
        cpu * 1000.0 / requests.max(1.0),
        "ms",
    );
    out.push(
        "proc.ctx_switches_per_req",
        ctx as f64 / requests.max(1.0),
        "count",
    );
}

/// The final state the checks compare.
#[derive(Debug, Default)]
struct Finals {
    /// Per project (`None` = the single project): `stat` and `dump` replies.
    leader: Vec<(Option<String>, String, String)>,
    /// The follower's `dump` reply.
    follower_dump: Option<String>,
}

fn final_state(env: &Env, plan: &Plan, ledger: &mut Ledger) -> Finals {
    let mut finals = Finals::default();
    let projects: Vec<Option<String>> = if plan.workload.fleet() {
        plan.tenants.iter().cloned().map(Some).collect()
    } else {
        vec![None]
    };
    for project in projects {
        let mut requests = Vec::new();
        if let Some(p) = &project {
            requests.push(Request::Attach {
                project: p.clone(),
                create: false,
            });
        }
        requests.extend([Request::Stat, Request::Dump]);
        let (items, r) = env.call(LEADER, &requests);
        ledger.phase("final state", &items, &r);
        let n = r.replies.len();
        finals
            .leader
            .push((project, r.replies[n - 2].clone(), r.replies[n - 1].clone()));
    }
    if plan.workload.follower() {
        let (items, r) = env.call(FOLLOWER, &[Request::Dump]);
        ledger.phase("final state", &items, &r);
        finals.follower_dump = r.replies.into_iter().next();
    }
    finals
}

fn check_final(ledger: &mut Ledger, plan: &Plan, finals: &Finals, replay: &mut Replay) {
    for (project, stat, dump) in &finals.leader {
        let name = project.as_deref().unwrap_or("the project");
        let expected = replay.stat(project.as_deref());
        match (Response::decode(stat), expected) {
            (Ok(Response::Stat { stat }), Some(want))
                if (stat.oids, stat.links, stat.pending_events)
                    == (want.oids, want.links, want.pending_events) => {}
            (got, want) => ledger.wrong(
                1,
                format!(
                    "{name}: final stat {got:?} differs from the replay's \
                     (oids, links, pending) of {want:?}"
                ),
            ),
        }
        if replay.dump(project.as_deref()).as_deref() != Some(dump.as_str()) {
            ledger.wrong(1, format!("{name}: final dump differs from the replay's"));
        }
        if plan.workload.fleet() {
            let oids = plan.design.oid_count() as u64;
            if !matches!(Response::decode(stat), Ok(Response::Stat { stat }) if stat.oids == oids) {
                ledger.wrong(1, format!("{name}: expected {oids} OIDs, got `{stat}`"));
            }
        }
    }
    if let Some(dump) = &finals.follower_dump {
        if finals.leader.first().map(|l| &l.2) != Some(dump) {
            ledger.wrong(1, "the follower's dump differs from the leader's".into());
        }
    }
}

/// Compares real replies with the replay's. Leader replies must be
/// identical; follower reads (served from a replica that may lag) must
/// answer the same object with the same shape.
fn compare(ledger: &mut Ledger, what: &str, items: &[Item], real: &[String], oracle: &[String]) {
    let mut wrong = 0u64;
    let mut first = None;
    for (i, item) in items.iter().enumerate() {
        let (got, want) = (&real[i], &oracle[i]);
        if got.is_empty() || got.starts_with("err") {
            continue; // already counted as missing or failed
        }
        let ok = if item.conn == LEADER {
            got == want
        } else {
            same_shape(got, want)
        };
        if !ok {
            wrong += 1;
            first.get_or_insert(i);
        }
    }
    if let Some(i) = first {
        let clip = |s: &str| s.chars().take(160).collect::<String>();
        ledger.wrong(
            wrong,
            format!(
                "{what}: {wrong} replies differ from the in-process replay; first `{}` -> `{}`, expected `{}`",
                clip(&items[i].line),
                clip(&real[i]),
                clip(&oracle[i])
            ),
        );
    }
}

fn same_shape(got: &str, want: &str) -> bool {
    match (Response::decode(got), Response::decode(want)) {
        (Ok(Response::Props { oid: a, .. }), Ok(Response::Props { oid: b, .. })) => a == b,
        (Ok(Response::Work { target: a, .. }), Ok(Response::Work { target: b, .. })) => a == b,
        (Ok(Response::Hits { .. }), Ok(Response::Hits { .. })) => true,
        (Ok(Response::ViewSummary { rows: a }), Ok(Response::ViewSummary { rows: b })) => {
            a.len() == b.len()
                && a.iter()
                    .zip(&b)
                    .all(|(x, y)| (&x.view, x.total) == (&y.view, y.total))
        }
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

/// What the traced pass measured.
struct Traced {
    /// Replies to the plan's open-loop requests, for the oracle check.
    replies: Vec<String>,
    /// Metrics of one workload only (follower visibility, fleet residency).
    extras: Vec<Metric>,
}

/// The traced pass: a fresh set-up, then the open loop again with client
/// spans and probes — follower `stat`s at 1 kHz and leader `stat`s at
/// 10 Hz (mixed_follower), a `projects` roster before each fleet session.
fn traced_pass(
    opts: &Options,
    plan: &Plan,
    dir: &Path,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<Traced, String> {
    let (env, _, _) = set_up(opts, plan, dir, ledger)?;
    let base_due = due_times(plan.open.len(), plan.rate);
    let span_ns = base_due.last().copied().unwrap_or(0);
    // (due, item, index into plan.open or None for a probe)
    let mut sched: Vec<(u64, Item, Option<usize>)> = Vec::new();
    for (i, item) in plan.open.iter().enumerate() {
        if item.kind == Kind::Attach {
            sched.push((base_due[i], Item::new(LEADER, &Request::ListProjects), None));
        }
        sched.push((base_due[i], item.clone(), Some(i)));
    }
    if plan.workload.follower() {
        for t in (0..=span_ns).step_by(1_000_000) {
            sched.push((t, Item::new(FOLLOWER, &Request::Stat), None));
            if t % 100_000_000 == 0 {
                sched.push((t, Item::new(LEADER, &Request::Stat), None));
            }
        }
    }
    sched.sort_by_key(|(due, _, _)| *due);
    let due: Vec<u64> = sched.iter().map(|s| s.0).collect();
    let items: Vec<Item> = sched.iter().map(|s| s.1.clone()).collect();
    let r = net::run_phase(&env.conns, &items, Schedule::Open(&due), OPEN_WINDOW);
    ledger.phase("traced open loop", &items, &r);
    drop(env);

    // Client spans: request [due, reply] with the generator's lateness
    // [due, sent] as its child.
    let offset = u64::try_from(r.start.duration_since(tracer.origin()).as_nanos()).unwrap_or(0);
    let end = r
        .received
        .iter()
        .copied()
        .filter(|&t| t != u64::MAX)
        .max()
        .unwrap_or(0);
    let root = tracer.record("client", None, offset, offset + end);
    for (i, (_, item, plan_idx)) in sched.iter().enumerate() {
        if r.received[i] == u64::MAX {
            continue;
        }
        let name = if plan_idx.is_some() {
            item.kind.spans().0
        } else {
            "client.probe"
        };
        let span = tracer.record(name, Some(root), offset + r.due[i], offset + r.received[i]);
        tracer.record(
            "gen.late",
            Some(span),
            offset + r.due[i],
            offset + r.sent[i],
        );
    }

    let mut plan_replies = vec![String::new(); plan.open.len()];
    for (i, (_, _, plan_idx)) in sched.iter().enumerate() {
        if let Some(p) = plan_idx {
            plan_replies[*p] = r.replies[i].clone();
        }
    }
    let mut extras = Vec::new();
    if plan.workload.follower() {
        follower_metrics(&sched, &r, &mut extras);
    }
    if plan.workload.fleet() {
        fleet_metrics(&sched, &r, &mut extras);
    }
    Ok(Traced {
        replies: plan_replies,
        extras,
    })
}

/// Follower visibility: from each leader `stat` reply (the leader's
/// committed cursor) to the first later follower `stat` reply at or past
/// that cursor; and the follower's lag in records at each leader sample
/// (a lower bound across a checkpoint).
fn follower_metrics(
    sched: &[(u64, Item, Option<usize>)],
    r: &PhaseResult,
    extras: &mut Vec<Metric>,
) {
    let cursor = |i: usize| match Response::decode(&r.replies[i]) {
        Ok(Response::Stat { stat }) => Some((stat.cursor_epoch, stat.cursor_seq)),
        _ => None,
    };
    let mut follower: Vec<(u64, (u64, u64))> = Vec::new();
    let mut leader: Vec<(u64, (u64, u64))> = Vec::new();
    for (i, (_, item, plan_idx)) in sched.iter().enumerate() {
        if plan_idx.is_some() || r.received[i] == u64::MAX {
            continue;
        }
        if let Some(c) = cursor(i) {
            let list = if item.conn == FOLLOWER {
                &mut follower
            } else {
                &mut leader
            };
            list.push((r.received[i], c));
        }
    }
    follower.sort_unstable();
    let mut visible = Vec::new();
    let mut lag_max = 0u64;
    for &(t, (epoch, seq)) in &leader {
        let from = follower.partition_point(|&(ft, _)| ft < t);
        if let Some(&(ft, _)) = follower[from..].iter().find(|(_, c)| *c >= (epoch, seq)) {
            visible.push(ft - t);
        }
        if let Some(&(_, (fe, fs))) = follower[from..].first() {
            let lag = if fe == epoch {
                seq.saturating_sub(fs)
            } else {
                seq
            };
            lag_max = lag_max.max(lag);
        }
    }
    extras.push(metric(
        "tail.visible_ms_p50",
        ms(quantile(&mut visible, 0.5)),
        "ms",
    ));
    extras.push(metric(
        "tail.visible_ms_p99",
        ms(quantile(&mut visible, 0.99)),
        "ms",
    ));
    extras.push(metric("follower.lag_records_max", lag_max as f64, "count"));
}

/// Cold and warm fleet sessions: the latency of the first request a
/// session routes to its tenant (where an activation lands), split by
/// the roster taken just before the session's attach.
fn fleet_metrics(sched: &[(u64, Item, Option<usize>)], r: &PhaseResult, extras: &mut Vec<Metric>) {
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for i in 1..sched.len().saturating_sub(1) {
        let (attach, first) = (&sched[i], &sched[i + 1]);
        if attach.1.kind != Kind::Attach || attach.2.is_none() || first.2.is_none() {
            continue;
        }
        let Ok(Request::Attach { project, .. }) = Request::decode(&attach.1.line) else {
            continue;
        };
        let resident = matches!(
            Response::decode(&r.replies[i - 1]),
            Ok(Response::Projects { entries })
                if entries.iter().any(|e| e.name == project && e.active)
        );
        if let Some(latency) = r.latency_ns(i + 1) {
            if resident {
                warm.push(latency);
            } else {
                cold.push(latency);
            }
        }
    }
    let sessions = (cold.len() + warm.len()).max(1) as f64;
    extras.push(metric(
        "fleet.cold_frac",
        cold.len() as f64 / sessions,
        "fraction",
    ));
    extras.push(metric(
        "fleet.cold_p50_ms",
        ms(quantile(&mut cold, 0.5)),
        "ms",
    ));
    extras.push(metric(
        "fleet.warm_p50_ms",
        ms(quantile(&mut warm, 0.5)),
        "ms",
    ));
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

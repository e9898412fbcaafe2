//! Experiment WAVES-PARALLEL — propagation wave storms through the
//! drain loop.
//!
//! The design under measurement: `F` link-disjoint view families, each a
//! `D`-stage derivation chain instantiated for `B` blocks, so a batch of
//! events that touches all families holds `F × B` independent waves.
//!
//! One measured iteration posts a `ckin` event at every family's root
//! OIDs (pure property waves: no objects or links are created, so the
//! database is identical across iterations and series) and drains the
//! queue with `process_all`. Every wave runs inline, so each series has
//! one worker; the ids keep their `workers/1` suffix so numbers stay
//! comparable with the summaries recorded when wave lanes existed
//! (`BENCH_pr5.json`, `BENCH_pr10.json`):
//!
//! * `waves/parallel/workers/1` — the write-heavy tracking storm: every
//!   delivery's product is a property write;
//! * `waves/exec_storm/workers/1` — deliveries also render a tool
//!   invocation;
//! * `waves/instance_chains/workers/1` — one view family, `CHAINS`
//!   independent instance chains.
//!
//! The `waves/exec_async` series (PR 6) swaps the rendering-only executor
//! for a real tool boundary: the same `exec`-heavy storm runs once with
//! the tool **inline** (the classic synchronous path: every invocation
//! executes inside the drain) and once **detached** (the invocation pool:
//! workers run the tool off the command path, results harvest in
//! submission order), plus a detached series under a rate-0.1 fault plan
//! with retries — sync vs async throughput at the same workload. The
//! non-criterion `fault_latency` measurement drives a fault storm through
//! the session command loop and reports p50/p99 latency of mutating
//! requests issued *during* the storm — the "a retrying tool never wedges
//! the loop" acceptance number (`BENCH_pr6.json`).
//!
//! The `waves/trace_overhead` series (PR 7) prices execution tracing:
//! the same write-heavy storm with the `TraceLog` disabled (the default
//! — the "zero hot-path cost when off" acceptance number) and with
//! retention on, draining the records each iteration as `trace get`
//! would. `BENCH_pr7.json` pins both against the PR 6 baseline.
//!
//! Smoke mode for CI: set `BENCH_SMOKE=1` to shrink measurement windows;
//! set `BENCH_JSON=<file>` to append results as JSON lines — that is how
//! `BENCH_pr5.json`, `BENCH_pr6.json`, `BENCH_pr7.json` and
//! `BENCH_pr10.json` are produced.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use blueprint_core::engine::api::{Request, Response};
use blueprint_core::engine::exec::{DetachedJob, ScriptExecutor, ToolCtx};
use blueprint_core::engine::invoke::RetryPolicy;
use blueprint_core::engine::server::ProjectServer;
use blueprint_core::engine::service::{spawn_project_loop, ProjectService};
use damocles_bench::{append_bench_json, config, smoke, target_enabled};
use damocles_meta::{Direction, EventMessage, MetaError, Oid};
use damocles_tools::tool::Tool;
use damocles_tools::{FaultPlan, ToolExecutor};

/// Link-disjoint view families.
const FAMILIES: usize = 8;
/// Derivation stages per family (depth of each wave).
const STAGES: usize = 6;
/// Blocks (independent chains) per family.
const BLOCKS: usize = 16;

/// Instance chains in the single-family storm (`waves/instance_chains`).
const CHAINS: usize = 64;

/// A blueprint of `families` disjoint derivation chains. Every stage
/// carries a `let` so each delivery re-evaluates an expression. With
/// `exec_heavy`, every stale delivery also renders a tool invocation (the
/// §3.3 automatic tool loop).
fn family_blueprint_n(families: usize, exec_heavy: bool) -> String {
    use std::fmt::Write as _;
    let outofdate_rule = if exec_heavy {
        "when outofdate do uptodate = false; exec checker \"$oid\" \"$event by $user at $date\" done\n"
    } else {
        "when outofdate do uptodate = false done\n"
    };
    let mut src = format!(
        "blueprint waves\n\
         view default\n\
             property uptodate default true\n\
             let tracked = ($uptodate == true)\n\
             when ckin do uptodate = true; post outofdate down done\n\
             {outofdate_rule}\
         endview\n",
    );
    for f in 0..families {
        let _ = writeln!(src, "view f{f}_s0 endview");
        for s in 1..STAGES {
            let _ = writeln!(
                src,
                "view f{f}_s{s}\n    link_from f{f}_s{prev} move propagates outofdate, ckin type derived\nendview",
                prev = s - 1
            );
        }
    }
    src.push_str("endblueprint\n");
    src
}

fn family_blueprint(exec_heavy: bool) -> String {
    family_blueprint_n(FAMILIES, exec_heavy)
}

/// Builds the populated server: `blocks` chains per family, each
/// `STAGES` deep, and returns the root OID names events target.
fn populated_n(families: usize, blocks: usize, exec_heavy: bool) -> (ProjectServer, Vec<String>) {
    let mut server = ProjectServer::from_source(&family_blueprint_n(families, exec_heavy))
        .expect("blueprint parses");
    let mut roots = Vec::new();
    for f in 0..families {
        for b in 0..blocks {
            let block = format!("f{f}b{b}");
            let mut prev = server
                .checkin(&block, &format!("f{f}_s0"), "bench", b"r".to_vec())
                .unwrap();
            roots.push(prev.to_string());
            for s in 1..STAGES {
                let next = server
                    .checkin(&block, &format!("f{f}_s{s}"), "bench", b"d".to_vec())
                    .unwrap();
                server.connect_oids(&prev, &next).unwrap();
                prev = next;
            }
        }
    }
    server.process_all().unwrap();
    (server, roots)
}

fn populated(exec_heavy: bool) -> (ProjectServer, Vec<String>) {
    populated_n(FAMILIES, BLOCKS, exec_heavy)
}

/// One measured iteration: a batch of root `ckin` events (one per chain,
/// spanning every family) drained to quiescence.
fn storm<E: ScriptExecutor>(server: &mut ProjectServer<E>, roots: &[String]) -> u64 {
    for root in roots {
        server
            .post_line(&format!("postEvent ckin up {root}"), "bench")
            .unwrap();
    }
    server.process_all().unwrap().deliveries
}

fn bench_series(c: &mut Criterion, name: &str, exec_heavy: bool) {
    let mut group = c.benchmark_group(name);
    // Elements = wave deliveries per iteration: every chain delivers at
    // each of its stages.
    group.throughput(Throughput::Elements((FAMILIES * BLOCKS * STAGES) as u64));
    let (mut server, roots) = populated(exec_heavy);
    group.bench_with_input(BenchmarkId::new("workers", 1), &1, |b, _| {
        b.iter(|| black_box(storm(&mut server, &roots)));
    });
    group.finish();
}

fn bench_parallel_waves(c: &mut Criterion) {
    if !target_enabled("parallel_waves") {
        return;
    }
    // Write-heavy tracking storm: every delivery's product is a property
    // write.
    bench_series(c, "waves/parallel", false);
    // Tool-invocation storm: deliveries also render exec invocations.
    bench_series(c, "waves/exec_storm", true);
}

/// The single-family storm: ONE view family, `CHAINS` independent
/// instance chains.
fn bench_instance_chains(c: &mut Criterion) {
    if !target_enabled("parallel_waves") {
        return;
    }
    let mut group = c.benchmark_group("waves/instance_chains");
    group.throughput(Throughput::Elements((CHAINS * STAGES) as u64));
    let (mut server, roots) = populated_n(1, CHAINS, false);
    group.bench_with_input(BenchmarkId::new("workers", 1), &1, |b, _| {
        b.iter(|| black_box(storm(&mut server, &roots)));
    });
    group.finish();
}

// ---------------------------------------------------------------------
// PR 6: sync vs async tool execution, and command-loop latency under
// a fault storm.
// ---------------------------------------------------------------------

/// The bench stand-in for a real verification tool: a deterministic hash
/// over the interpolated arguments plus a short arithmetic spin, so an
/// invocation costs real worker-side microseconds. Inline and detached
/// forms do the identical compute — the series difference is purely
/// *where* it runs (on the command loop vs. the invocation pool).
struct Checker {
    fault: FaultPlan,
}

fn checker_work(args: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in args {
        for b in a.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    for i in 0..20_000u64 {
        h = h.rotate_left(7).wrapping_add(i);
    }
    h
}

impl Tool for Checker {
    fn name(&self) -> &'static str {
        "checker"
    }

    fn run(
        &mut self,
        _ctx: &mut ToolCtx<'_>,
        args: &[String],
    ) -> Result<Vec<EventMessage>, MetaError> {
        black_box(checker_work(args));
        Ok(Vec::new())
    }

    fn prepare_detached(&self, _ctx: &ToolCtx<'_>, args: &[String]) -> Option<DetachedJob> {
        let subject = args.first().cloned().unwrap_or_default();
        let fault = self.fault;
        let args = args.to_vec();
        Some(Box::new(move |attempt| {
            if fault.fails_attempt("checker", &subject, attempt) {
                return Err("checker crashed".to_string());
            }
            black_box(checker_work(&args));
            Ok(Vec::new())
        }))
    }
}

fn checker_executor(fault: FaultPlan, detached: bool) -> ToolExecutor {
    let mut executor = ToolExecutor::new();
    executor.register(Box::new(Checker { fault }));
    if detached {
        executor = executor.detached();
    }
    executor
}

/// A retry discipline fast enough for bench iterations under faults.
fn bench_retries() -> RetryPolicy {
    RetryPolicy {
        max_retries: 5,
        base_delay: Duration::from_millis(1),
        multiplier: 2,
        timeout: Duration::from_secs(30),
    }
}

/// Like [`populated`], but with a real tool executor behind the `exec`
/// boundary (always the `exec`-heavy blueprint, sequential drain).
fn populated_exec(executor: ToolExecutor) -> (ProjectServer<ToolExecutor>, Vec<String>) {
    let bp = blueprint_core::parse(&family_blueprint(true)).expect("blueprint parses");
    let mut server = ProjectServer::with_executor(bp, executor).expect("server builds");
    server.set_retry_policy(None, bench_retries());
    let mut roots = Vec::new();
    for f in 0..FAMILIES {
        for b in 0..BLOCKS {
            let block = format!("f{f}b{b}");
            let mut prev = server
                .checkin(&block, &format!("f{f}_s0"), "bench", b"r".to_vec())
                .unwrap();
            roots.push(prev.to_string());
            for s in 1..STAGES {
                let next = server
                    .checkin(&block, &format!("f{f}_s{s}"), "bench", b"d".to_vec())
                    .unwrap();
                server.connect_oids(&prev, &next).unwrap();
                prev = next;
            }
        }
    }
    server.process_all().unwrap();
    (server, roots)
}

/// Sync vs async tool execution at the same workload: the `exec`-heavy
/// storm with the checker running inline (every invocation executes on
/// the command loop inside the drain), detached on the invocation pool,
/// and detached under a rate-0.1 fault plan with retries.
fn bench_async_executor(c: &mut Criterion) {
    if !target_enabled("exec_async") {
        return;
    }
    let mut group = c.benchmark_group("waves/exec_async");
    // Elements = checker invocations per iteration: one per stale
    // delivery.
    group.throughput(Throughput::Elements((FAMILIES * BLOCKS * STAGES) as u64));
    let modes: [(&str, FaultPlan, bool); 3] = [
        ("inline", FaultPlan::never(), false),
        ("detached", FaultPlan::never(), true),
        ("detached_faults_0.1", FaultPlan::new(6, 0.1), true),
    ];
    for (label, fault, detached) in modes {
        let (mut server, roots) = populated_exec(checker_executor(fault, detached));
        group.bench_with_input(BenchmarkId::new("mode", label), &label, |b, _| {
            b.iter(|| black_box(storm(&mut server, &roots)));
        });
    }
    group.finish();
}

/// Execution-trace overhead (PR 7): the write-heavy storm with tracing
/// disabled vs. retaining. `trace_off_w1` must sit within noise of
/// `waves/parallel/workers/1` — a disabled `TraceLog` is one branch per
/// would-be record.
fn bench_trace_overhead(c: &mut Criterion) {
    if !target_enabled("trace_overhead") {
        return;
    }
    let mut group = c.benchmark_group("waves/trace_overhead");
    group.throughput(Throughput::Elements((FAMILIES * BLOCKS * STAGES) as u64));
    for (label, retaining) in [("trace_off_w1", false), ("trace_on_w1", true)] {
        let (mut server, roots) = populated(false);
        server.set_trace_retention(retaining);
        group.bench_with_input(BenchmarkId::new("mode", label), &label, |b, _| {
            b.iter(|| {
                let deliveries = black_box(storm(&mut server, &roots));
                // Drain like `trace get` would; otherwise retained records
                // accumulate across iterations and the series measures
                // allocator growth, not tracing.
                let records = server.take_trace();
                if retaining {
                    assert!(!records.is_empty());
                }
                black_box(records.len() as u64) + deliveries
            });
        });
    }
    group.finish();
}

/// The acceptance number behind "a retrying tool never wedges the command
/// loop": run the `exec`-heavy storm through the session command loop
/// with a rate-0.1 fault plan (detached checker, retries on backoff), and
/// measure the latency of mutating requests issued from a second session
/// *while* the storm is in flight. Reports p50/p99/max to stdout and to
/// `BENCH_JSON`. Not a criterion series — criterion measures throughput
/// of a drained iteration; this measures interactive latency under load.
fn bench_fault_latency(_c: &mut Criterion) {
    if !target_enabled("exec_async") {
        return;
    }
    let (rounds, probes_per_round) = if smoke() { (2, 40) } else { (8, 250) };

    let (server, roots) = populated_exec(checker_executor(FaultPlan::new(6, 0.1), true));
    let service = ProjectService::with_server(server);
    let (handle, join) = spawn_project_loop(service);
    let storm_session = handle.session();
    let probe_session = handle.session();

    let in_flight = || match probe_session.call(Request::Stat) {
        Response::Stat { stat } => {
            stat.pending_invocations + stat.running_invocations + stat.retrying_invocations
        }
        other => panic!("unexpected stat response {other:?}"),
    };

    let mut latencies: Vec<Duration> = Vec::new();
    for _ in 0..rounds {
        // Kick off the storm: root ckins cascade into checker
        // invocations, ~10% of which crash and retry on backoff.
        for root in &roots {
            let oid: Oid = root.parse().unwrap();
            let resp = storm_session.call(Request::Post {
                message: EventMessage::new("ckin", Direction::Up, oid),
                user: "bench".to_string(),
            });
            assert!(matches!(resp, Response::Ok), "{resp:?}");
        }
        let resp = storm_session.call(Request::ProcessAll);
        assert!(matches!(resp, Response::Processed { .. }), "{resp:?}");

        // Probe: mutating requests from a second session, timed while
        // invocations are still in flight.
        for p in 0..probes_per_round {
            let oid: Oid = roots[p % roots.len()].parse().unwrap();
            let t0 = Instant::now();
            let resp = probe_session.call(Request::Post {
                message: EventMessage::new("probe", Direction::Up, oid),
                user: "bench".to_string(),
            });
            latencies.push(t0.elapsed());
            assert!(matches!(resp, Response::Ok), "{resp:?}");
        }

        // Drain before the next round so rounds see comparable storms.
        while in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let resp = probe_session.call(Request::ProcessAll);
        assert!(matches!(resp, Response::Processed { .. }), "{resp:?}");
    }
    drop(storm_session);
    drop(probe_session);
    drop(handle);
    join.join().unwrap();

    latencies.sort_unstable();
    let pick = |q: usize| latencies[(latencies.len() - 1) * q / 100];
    let (p50, p99, max) = (pick(50), pick(99), *latencies.last().unwrap());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "waves/exec_async/fault_latency_rate0.1: {} probes, p50 {p50:?}, p99 {p99:?}, max {max:?}",
        latencies.len()
    );
    append_bench_json(&format!(
        "{{\"id\":\"waves/exec_async/fault_latency_rate0.1\",\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"probes\":{},\"cores\":{}}}",
        p50.as_nanos(),
        p99.as_nanos(),
        max.as_nanos(),
        latencies.len(),
        cores
    ));
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parallel_waves, bench_instance_chains, bench_async_executor, bench_trace_overhead, bench_fault_latency
}
criterion_main!(benches);

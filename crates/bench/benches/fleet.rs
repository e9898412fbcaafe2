//! Experiment FLEET — the multi-project engine fleet (ISSUE 8).
//!
//! Three questions, three series:
//!
//! * `fleet/routing/*` — what does the fleet front door cost per request
//!   against a dedicated `ProjectHandle` command loop? Both sides serve
//!   one journaled project; the fleet adds the router hop, the worker
//!   inbox, and per-project settle. Measured on `stat` so the number is
//!   pure routing (no fsync in either path).
//! * `fleet/activation/*` — the LRU cycle priced end to end: with
//!   `max_active = 1`, two tenants alternating requests force every
//!   single call through park → evict (flush + checkpoint) → pin →
//!   recover (snapshot + tail replay). The non-criterion probe reports
//!   p50/p99 of that full cold-hit latency.
//! * `fleet/throughput/*` — durable post+drain round-trips per second
//!   for a resident fleet (8 tenants in 8 slots, no eviction) vs the
//!   headline churn shape (100 tenants through 8 slots, nearly every
//!   touch pays an eviction + reactivation).
//!
//! Smoke mode for CI: set `BENCH_SMOKE=1` to shrink measurement windows;
//! set `BENCH_JSON=<file>` to append results as JSON lines — that is how
//! `BENCH_pr8.json` is produced.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use blueprint_core::engine::api::{Request, Response};
use blueprint_core::engine::exec::NullExecutor;
use blueprint_core::engine::fleet::{spawn_fleet, FleetConfig, FleetSession, ProjectRegistry};
use blueprint_core::engine::service::{spawn_project_loop, ProjectService};
use damocles_bench::{append_bench_json, bench_dir, config, smoke, target_enabled};
use damocles_meta::{Direction, EventMessage, Oid};

/// The tracked flow every tenant runs — the same shape the single-node
/// throughput bench journals, so routing numbers are comparable.
const TRACKED: &str = r#"
    blueprint fleetbench
    view default
        property uptodate default true
        when ckin do uptodate = true; post outofdate down done
        when outofdate do uptodate = false done
    endview
    view HDL_model endview
    endblueprint
"#;

fn must_attach(session: &FleetSession, project: &str) {
    let resp = session.call(Request::Attach {
        project: project.to_string(),
        create: true,
    });
    assert!(
        matches!(resp, Response::Attached { .. }),
        "attach failed: {resp:?}"
    );
}

/// Seeds one tenant with `blocks` HDL check-ins and returns the OID the
/// measured posts target.
fn seed(session: &FleetSession, blocks: usize) -> Oid {
    let mut first = None;
    for b in 0..blocks {
        let resp = session.call(Request::Checkin {
            block: format!("b{b}"),
            view: "HDL_model".to_string(),
            user: "bench".to_string(),
            payload: b"module m;".to_vec(),
        });
        match resp {
            Response::Created { oid } => first.get_or_insert(oid),
            other => panic!("seed check-in failed: {other:?}"),
        };
    }
    first.expect("at least one seeded block")
}

/// One durable round-trip: post a `ckin` event at the tenant's root OID
/// and drain it (a property write, no object growth — the database is
/// identical across iterations).
fn touch(session: &FleetSession, oid: &Oid) {
    let resp = session.call(Request::Post {
        message: EventMessage::new("ckin", Direction::Up, oid.clone()),
        user: "bench".to_string(),
    });
    assert!(matches!(resp, Response::Ok), "{resp:?}");
    let resp = session.call(Request::ProcessAll);
    assert!(matches!(resp, Response::Processed { .. }), "{resp:?}");
}

// ---------------------------------------------------------------------
// Routing overhead vs a dedicated ProjectHandle
// ---------------------------------------------------------------------

fn bench_routing(c: &mut Criterion) {
    if !target_enabled("fleet_routing") {
        return;
    }
    let mut group = c.benchmark_group("fleet/routing");

    // Dedicated baseline: one journaled project behind its own command
    // loop, no router in the path.
    let dir = bench_dir("fleet-routing-direct");
    let mut service: ProjectService = ProjectService::new();
    assert!(!service
        .call(Request::Init {
            source: TRACKED.into()
        })
        .is_error());
    assert!(!service
        .call(Request::EnableJournal {
            dir: dir.display().to_string(),
            every: 1024,
        })
        .is_error());
    let (handle, _join) = spawn_project_loop(service);
    let direct = handle.session();
    group.bench_function("stat_direct", |b| {
        b.iter(|| black_box(direct.call(Request::Stat)));
    });

    // The same project served through the fleet: router → worker inbox →
    // per-project settle → reply.
    let root = bench_dir("fleet-routing-fleet");
    let registry = ProjectRegistry::open(&root, TRACKED, FleetConfig::default()).unwrap();
    let (fleet, _fleet_join) = spawn_fleet::<NullExecutor>(registry);
    let session = fleet.session();
    must_attach(&session, "solo");
    seed(&session, 1);
    group.bench_function("stat_fleet", |b| {
        b.iter(|| black_box(session.call(Request::Stat)));
    });
    group.finish();
}

// ---------------------------------------------------------------------
// Activation latency: the full LRU cycle per request
// ---------------------------------------------------------------------

/// Two tenants, one residency slot: every call parks, evicts the other
/// tenant (flush + checkpoint), pins, and recovers from `snapshot +
/// tail` — the complete cold-hit path. p50/p99 of `stat` round-trips
/// through that cycle is the activation latency number.
fn bench_activation(_c: &mut Criterion) {
    if !target_enabled("fleet_activation") {
        return;
    }
    let (seed_blocks, cycles) = if smoke() { (8, 40) } else { (64, 400) };
    let root = bench_dir("fleet-activation");
    let config = FleetConfig {
        engine_workers: 1,
        max_active: 1,
        ..FleetConfig::default()
    };
    let registry = ProjectRegistry::open(&root, TRACKED, config).unwrap();
    let (fleet, _join) = spawn_fleet::<NullExecutor>(registry);
    let counters = fleet.counters();
    let sessions: Vec<FleetSession> = ["ping", "pong"]
        .iter()
        .map(|name| {
            let session = fleet.session();
            must_attach(&session, name);
            seed(&session, seed_blocks);
            session
        })
        .collect();

    let mut latencies: Vec<Duration> = Vec::with_capacity(cycles);
    for i in 0..cycles {
        let session = &sessions[i % 2];
        let t0 = Instant::now();
        let resp = session.call(Request::Stat);
        latencies.push(t0.elapsed());
        assert!(matches!(resp, Response::Stat { .. }), "{resp:?}");
    }
    // Every measured call except possibly the first crossed the full
    // evict + recover cycle.
    let activations = counters
        .activations
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        activations as usize >= cycles,
        "only {activations} activations over {cycles} alternating calls"
    );

    latencies.sort_unstable();
    let pick = |q: usize| latencies[(latencies.len() - 1) * q / 100];
    let (p50, p99, max) = (pick(50), pick(99), *latencies.last().unwrap());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "fleet/activation/cycle ({seed_blocks} oids/tenant): {cycles} cycles, \
         p50 {p50:?}, p99 {p99:?}, max {max:?}"
    );
    append_bench_json(&format!(
        "{{\"id\":\"fleet/activation/cycle_{seed_blocks}oids\",\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"cycles\":{},\"cores\":{}}}",
        p50.as_nanos(),
        p99.as_nanos(),
        max.as_nanos(),
        cycles,
        cores
    ));
}

// ---------------------------------------------------------------------
// Throughput: resident fleet vs the 100-through-8 churn shape
// ---------------------------------------------------------------------

fn bench_throughput(c: &mut Criterion) {
    if !target_enabled("fleet_throughput") {
        return;
    }
    let mut group = c.benchmark_group("fleet/throughput");

    // Shapes: (series, tenants, max_active). The resident shape never
    // evicts; the churn shape pays the LRU cycle on nearly every touch.
    let shapes: &[(&str, usize, usize)] = &[("resident_8_of_8", 8, 8), ("churn_100_of_8", 100, 8)];
    for &(series, tenants, max_active) in shapes {
        let root = bench_dir(&format!("fleet-throughput-{series}"));
        let config = FleetConfig {
            engine_workers: 4,
            max_active,
            ..FleetConfig::default()
        };
        let mut registry = ProjectRegistry::open(&root, TRACKED, config).unwrap();
        for t in 0..tenants {
            registry.register(&format!("t{t:03}")).unwrap();
        }
        let (fleet, _join) = spawn_fleet::<NullExecutor>(registry);
        let sessions: Vec<(FleetSession, Oid)> = (0..tenants)
            .map(|t| {
                let session = fleet.session();
                must_attach(&session, &format!("t{t:03}"));
                let oid = seed(&session, 1);
                (session, oid)
            })
            .collect();
        // One element = one durable post + drain on one tenant; a full
        // iteration sweeps the roster once.
        group.throughput(Throughput::Elements(tenants as u64));
        group.bench_function(series, |b| {
            b.iter(|| {
                for (session, oid) in &sessions {
                    touch(session, oid);
                }
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_routing, bench_activation, bench_throughput
}
criterion_main!(benches);

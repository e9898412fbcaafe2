//! Experiment FAILOVER — mean time to repair after a leader crash
//! (ISSUE 9).
//!
//! One question: once the leader is declared dead, how long until the
//! fleet accepts writes again? Each trial stands up a journaled leader
//! with one TCP follower, lets the follower catch up, then measures the
//! repair window end to end:
//!
//!   leader declared dead → `promote` (epoch roll + snapshot under the
//!   new term) → leader-chasing client's **first committed write**
//!
//! The client starts aimed at the dead leader's address (connection
//! refused) so the measured path includes the redirect chase, not just
//! the promotion RPC. `failover/mttr` reports p50/p99/max over the
//! trials as a non-criterion probe, in the style of the fleet
//! activation bench.
//!
//! The crash itself is injected as the `LeaderGone` edge the tail pump
//! delivers when the leader's socket dies — the bench measures repair,
//! not kernel socket-teardown time (the chaos suite in
//! `tests/failover.rs` covers the real-SIGKILL path).
//!
//! `replication/catch_up` (target `replication_catch_up`) asks how fast
//! one TCP follower takes a burst: a journaled leader populates
//! `damocles_load`'s 3,072-OID design (8 view families × 6 derivation
//! stages × 64 blocks, each stage checked in and linked, 64 requests in
//! flight) and drains once. It reports the time from the leader's reply
//! to the drain until the follower's cursor reaches the leader's, the
//! records per second the follower applied in that time, and how far the
//! follower's peak resident memory (`VmHWM`) grew during the set-up. The
//! follower runs in a child process (this bench executable, re-run with
//! [`REPLICA_OF`] set), so its memory is its own.
//!
//! Smoke mode for CI: set `BENCH_SMOKE=1` to shrink trial counts; set
//! `BENCH_JSON=<file>` to append results as JSON lines — that is how
//! `BENCH_pr9.json` and `BENCH_pr23.json` are produced.

use std::collections::VecDeque;
use std::io::{BufRead as _, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use blueprint_core::engine::api::{Request, Response};
use blueprint_core::engine::follower::{spawn_follower_loop, FollowerHandle, FollowerMsg};
use blueprint_core::engine::server::ProjectServer;
use blueprint_core::engine::service::{
    serve_listener, serve_with, spawn_project_loop, ProjectService,
};
use damocles_bench::{
    append_bench_json, bench_dir, chain_design_blueprint, config, smoke, target_enabled, MARK_STALE,
};
use damocles_tools::remote::{spawn_tail_pump, LeaderClient, ReconnectPolicy, RemoteWrapper};

const TRACKED: &str = r#"
    blueprint failoverbench
    view default
        property uptodate default true
        when ckin do uptodate = true; post outofdate down done
        when outofdate do uptodate = false done
    endview
    view HDL_model endview
    endblueprint
"#;

/// One leader + one caught-up TCP follower, ready to crash. Returns the
/// follower handle, its front-door address, and a dead address standing
/// in for the crashed leader.
fn stand_up(trial: usize, seed_blocks: usize) -> (FollowerHandle, String, String) {
    let dir = bench_dir(&format!("failover-trial-{trial}"));
    let mut service: ProjectService = ProjectService::new();
    assert!(!service
        .call(Request::Init {
            source: TRACKED.into()
        })
        .is_error());
    assert!(!service
        .call(Request::EnableJournal {
            dir: dir.display().to_string(),
            every: 1_000_000,
        })
        .is_error());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let leader_addr = listener.local_addr().unwrap().to_string();
    let (leader, _join) = spawn_project_loop(service);
    {
        let handle = leader.clone();
        std::thread::spawn(move || {
            let _ = serve_listener(listener, &handle);
        });
    }

    let follower_service: ProjectService =
        ProjectService::with_server(ProjectServer::from_source(TRACKED).unwrap());
    let hub = follower_service.tail_hub();
    let (follower, _fjoin) = spawn_follower_loop(follower_service, leader_addr.clone());
    let front = TcpListener::bind("127.0.0.1:0").unwrap();
    let follower_addr = front.local_addr().unwrap().to_string();
    {
        let session = follower.clone();
        std::thread::spawn(move || {
            let _ = serve_with(front, || session.session(), Some(hub));
        });
    }
    spawn_tail_pump(leader_addr, follower.feed(), follower.status());

    let writer = leader.session();
    for b in 0..seed_blocks {
        let resp = writer.call(Request::Checkin {
            block: format!("b{b}"),
            view: "HDL_model".to_string(),
            user: "bench".to_string(),
            payload: b"module m;".to_vec(),
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }
    let (epoch, seq) = match writer.call(Request::Stat) {
        Response::Stat { stat } => (
            stat.journal_epoch.expect("journaling on"),
            stat.journal_records.expect("journaling on"),
        ),
        other => panic!("{other:?}"),
    };
    assert!(
        follower
            .status()
            .wait_applied(epoch, seq, Duration::from_secs(10)),
        "follower never caught up; at {:?}",
        follower.status().cursor()
    );

    // A bound-then-dropped port: connecting gets refused, exactly what a
    // chasing client sees dialing a crashed leader.
    let dead = {
        let sock = TcpListener::bind("127.0.0.1:0").unwrap();
        sock.local_addr().unwrap().to_string()
    };
    (follower, follower_addr, dead)
}

/// The repair window for one trial: declare the leader dead, promote the
/// follower under the next term, and chase until the first write lands.
fn repair(trial: usize, follower: &FollowerHandle, follower_addr: &str, dead: &str) -> Duration {
    let t0 = Instant::now();
    follower
        .feed()
        .send(FollowerMsg::LeaderGone {
            reason: "bench: leader crashed".to_string(),
        })
        .unwrap();
    let mut operator = RemoteWrapper::connect(follower_addr, "operator").unwrap();
    let promoted_dir = bench_dir(&format!("failover-promoted-{trial}"));
    match operator
        .request(&Request::Promote {
            dir: promoted_dir.display().to_string(),
            every: 1_000_000,
            term: 2,
        })
        .unwrap()
    {
        Response::Promoted { .. } => {}
        other => panic!("promotion refused: {other:?}"),
    }
    let mut client = LeaderClient::new([dead.to_string(), follower_addr.to_string()], "bench")
        .with_policy(ReconnectPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(1),
            multiplier: 2,
        });
    let resp = client
        .call(&Request::Checkin {
            block: "post-crash".to_string(),
            view: "HDL_model".to_string(),
            user: "bench".to_string(),
            payload: b"module m;".to_vec(),
        })
        .expect("first post-crash write");
    assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    t0.elapsed()
}

fn bench_mttr(_c: &mut Criterion) {
    if !target_enabled("failover_mttr") {
        return;
    }
    let (trials, seed_blocks) = if smoke() { (10, 8) } else { (60, 32) };
    let mut latencies: Vec<Duration> = Vec::with_capacity(trials);
    for trial in 0..trials {
        let (follower, follower_addr, dead) = stand_up(trial, seed_blocks);
        latencies.push(repair(trial, &follower, &follower_addr, &dead));
        let _ = std::fs::remove_dir_all(bench_dir(&format!("failover-trial-{trial}")));
        let _ = std::fs::remove_dir_all(bench_dir(&format!("failover-promoted-{trial}")));
    }
    latencies.sort_unstable();
    let pick = |q: usize| latencies[(latencies.len() - 1) * q / 100];
    let (p50, p99, max) = (pick(50), pick(99), *latencies.last().unwrap());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "failover/mttr ({seed_blocks} oids behind): {trials} trials, \
         p50 {p50:?}, p99 {p99:?}, max {max:?}"
    );
    append_bench_json(&format!(
        "{{\"id\":\"failover/mttr_{seed_blocks}oids\",\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"trials\":{},\"cores\":{}}}",
        p50.as_nanos(),
        p99.as_nanos(),
        max.as_nanos(),
        trials,
        cores
    ));
}

/// In a child of this bench: the leader address the replica tails. The
/// child prints its front-door address and serves until killed.
const REPLICA_OF: &str = "DAMOCLES_BENCH_REPLICA_OF";

/// `damocles_load`'s single-project design: families, stages, blocks.
const DESIGN: (usize, usize, usize) = (8, 6, 64);

/// The blueprint of `damocles_load`'s design.
fn design_blueprint() -> String {
    chain_design_blueprint(DESIGN.0, DESIGN.1, MARK_STALE)
}

/// The design's population — every chain's stages checked in and linked
/// in order — then one drain.
fn design_setup() -> Vec<Request> {
    use damocles_meta::Oid;
    let (_, stages, blocks) = DESIGN;
    let chains = DESIGN.0 * blocks;
    let block = |c: usize| format!("f{}b{}", c / blocks, c % blocks);
    let view = |c: usize, s: usize| format!("f{}_s{s}", c / blocks);
    let mut out = Vec::new();
    for chain in 0..chains {
        for stage in 0..stages {
            out.push(Request::Checkin {
                block: block(chain),
                view: view(chain, stage),
                user: "load".into(),
                payload: vec![b'd'; 8],
            });
            if stage > 0 {
                out.push(Request::Connect {
                    from: Oid::new(block(chain), view(chain, stage - 1), 1),
                    to: Oid::new(block(chain), view(chain, stage), 1),
                });
            }
        }
    }
    out.push(Request::ProcessAll);
    out
}

/// The replica side of the catch-up probe, in a child process: a
/// follower of `leader` with a front door, serving until killed or until
/// its standard input closes (the bench process is gone).
fn serve_replica(leader: String) -> ! {
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0);
    });
    let service: ProjectService =
        ProjectService::with_server(ProjectServer::from_source(&design_blueprint()).unwrap());
    let hub = service.tail_hub();
    let (follower, _join) = spawn_follower_loop(service, leader.clone());
    let front = TcpListener::bind("127.0.0.1:0").unwrap();
    println!("{}", front.local_addr().unwrap());
    spawn_tail_pump(leader, follower.feed(), follower.status());
    let _ = serve_with(front, move || follower.session(), Some(hub));
    std::process::exit(0)
}

/// `VmHWM` of process `pid`, in KiB.
fn vm_hwm_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// A node's `(epoch, seq)`: the journal position of a leader, the applied
/// cursor of a bootstrapped follower; `None` while a follower lags its
/// bootstrap.
fn position(node: &mut RemoteWrapper) -> Option<(u64, u64)> {
    match node.request(&Request::Stat).unwrap() {
        Response::Stat { stat } => Some(match stat.journal_epoch {
            Some(epoch) if stat.cursor_epoch == 0 => (epoch, stat.journal_records.unwrap_or(0)),
            _ => (stat.cursor_epoch, stat.cursor_seq),
        }),
        _ => None,
    }
}

/// One catch-up trial: `(catch-up time, records applied per second,
/// follower VmHWM growth in KiB)`.
fn catch_up_trial(trial: usize) -> (Duration, f64, u64) {
    let dir = bench_dir(&format!("catch-up-{trial}"));
    let mut service: ProjectService = ProjectService::new();
    assert!(!service
        .call(Request::Init {
            source: design_blueprint()
        })
        .is_error());
    // A record floor no set-up reaches: the follower takes every record,
    // never a mid-set-up snapshot.
    assert!(!service
        .call(Request::EnableJournal {
            dir: dir.display().to_string(),
            every: 1_000_000,
        })
        .is_error());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let leader_addr = listener.local_addr().unwrap().to_string();
    let (leader, _join) = spawn_project_loop(service);
    {
        let handle = leader.clone();
        std::thread::spawn(move || {
            let _ = serve_listener(listener, &handle);
        });
    }
    let mut child: Child = Command::new(std::env::current_exe().unwrap())
        .env(REPLICA_OF, &leader_addr)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the bench re-runs itself as the replica");
    let mut front = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut front)
        .unwrap();
    let mut replica = RemoteWrapper::connect(front.trim(), "bench").unwrap();
    while position(&mut replica).is_none() {
        std::thread::sleep(Duration::from_millis(2));
    }
    let hwm_before = vm_hwm_kb(child.id());

    let session = leader.session();
    let mut in_flight = VecDeque::new();
    for request in design_setup() {
        in_flight.push_back(session.submit(request));
        if in_flight.len() > 64 {
            let reply = in_flight.pop_front().unwrap();
            assert!(!reply.recv().unwrap().is_error());
        }
    }
    for reply in in_flight {
        assert!(!reply.recv().unwrap().is_error());
    }
    let drained = Instant::now();
    let mut leader_front = RemoteWrapper::connect(&leader_addr, "bench").unwrap();
    let target = position(&mut leader_front).expect("journaling on");
    let (epoch, start) = position(&mut replica).expect("bootstrapped");
    assert_eq!(epoch, target.0, "no checkpoint during the set-up");
    while position(&mut replica).expect("bootstrapped") < target {
        std::thread::sleep(Duration::from_millis(1));
    }
    let took = drained.elapsed();
    let hwm_after = vm_hwm_kb(child.id());
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
    let records = (target.1 - start) as f64;
    (
        took,
        records / took.as_secs_f64(),
        hwm_after.saturating_sub(hwm_before),
    )
}

fn bench_catch_up(_c: &mut Criterion) {
    if let Ok(leader) = std::env::var(REPLICA_OF) {
        serve_replica(leader);
    }
    if !target_enabled("replication_catch_up") {
        return;
    }
    let trials = if smoke() { 2 } else { 9 };
    let mut runs: Vec<(Duration, f64, u64)> = (0..trials).map(catch_up_trial).collect();
    let median = |runs: &mut Vec<(Duration, f64, u64)>, key: fn(&(Duration, f64, u64)) -> f64| {
        runs.sort_by(|a, b| key(a).total_cmp(&key(b)));
        key(&runs[runs.len() / 2])
    };
    let took_ms = median(&mut runs, |r| r.0.as_secs_f64() * 1e3);
    let rate = median(&mut runs, |r| r.1);
    let hwm_kb = median(&mut runs, |r| r.2 as f64);
    println!(
        "replication/catch_up ({} OIDs, population + drain): {trials} trials, \
         median catch-up {took_ms:.1} ms, {rate:.0} records/s, follower VmHWM +{:.1} MiB",
        DESIGN.0 * DESIGN.1 * DESIGN.2,
        hwm_kb / 1024.0
    );
    append_bench_json(&format!(
        "{{\"id\":\"replication/catch_up\",\"catch_up_ms_p50\":{took_ms:.2},\"records_per_s_p50\":{rate:.0},\"follower_hwm_growth_kb_p50\":{hwm_kb:.0},\"trials\":{trials}}}"
    ));
}

criterion_group! {
    name = benches;
    config = config();
    // The replica child must take over before any other target runs.
    targets = bench_catch_up, bench_mttr
}
criterion_main!(benches);

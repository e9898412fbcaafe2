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
//! Smoke mode for CI: set `BENCH_SMOKE=1` to shrink trial counts; set
//! `BENCH_JSON=<file>` to append results as JSON lines — that is how
//! `BENCH_pr9.json` is produced.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use blueprint_core::engine::api::{Request, Response};
use blueprint_core::engine::follower::{spawn_follower_loop, FollowerHandle, FollowerMsg};
use blueprint_core::engine::server::ProjectServer;
use blueprint_core::engine::service::{
    serve_listener, serve_with, spawn_project_loop, ProjectService,
};
use damocles_bench::{append_bench_json, bench_dir, config, smoke, target_enabled};
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

criterion_group! {
    name = benches;
    config = config();
    targets = bench_mttr
}
criterion_main!(benches);

//! Concurrent wrapper programs: the paper's wrappers post event messages
//! "through the computer network" from many tools at once; the project's
//! command loop serializes their posts into the FIFO queue. These tests
//! drive that path hard, one session per wrapper thread.

use damocles::core::engine::api::{Request, Response};
use damocles::core::engine::service::{
    spawn_project_loop, ClientSession, ProjectHandle, ProjectService,
};
use damocles::flows::edtc_blueprint;
use damocles::prelude::*;

/// A command loop over an EDTC project holding `blocks` HDL models.
fn edtc_loop(blocks: &[&str]) -> (ProjectHandle, std::thread::JoinHandle<()>, Vec<Oid>) {
    let mut server = ProjectServer::new(edtc_blueprint()).unwrap();
    let oids = blocks
        .iter()
        .map(|block| {
            server
                .checkin(block, "HDL_model", "setup", b"m".to_vec())
                .unwrap()
        })
        .collect();
    server.process_all().unwrap();
    let (handle, join) = spawn_project_loop(ProjectService::with_server(server));
    (handle, join, oids)
}

/// Posts a simulation verdict as `user`; the loop acks only a queued event.
fn post_sim(session: &ClientSession, target: Oid, verdict: String, user: String) {
    let message = EventMessage::new("hdl_sim", Direction::Up, target).with_arg(verdict);
    assert_eq!(session.call(Request::Post { message, user }), Response::Ok);
}

/// `(events, deliveries)` of one `process` request.
fn process(session: &ClientSession) -> (u64, u64) {
    match session.call(Request::ProcessAll) {
        Response::Processed {
            events, deliveries, ..
        } => (events, deliveries),
        other => panic!("process answered {other:?}"),
    }
}

#[test]
fn many_threads_post_simulation_results() {
    // 16 blocks, each with an HDL model.
    let blocks: Vec<String> = (0..16).map(|i| format!("blk{i}")).collect();
    let names: Vec<&str> = blocks.iter().map(String::as_str).collect();
    let (handle, join, oids) = edtc_loop(&names);

    // 8 wrapper threads post 50 results each, racing.
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let session = handle.session();
            let oids = oids.clone();
            std::thread::spawn(move || {
                for i in 0..50 {
                    let target = oids[(t * 7 + i) % oids.len()].clone();
                    post_sim(&session, target, format!("run-{t}-{i}"), format!("sim{t}"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let session = handle.session();
    // Exactly 400 deliveries (hdl_sim does not propagate anywhere).
    assert_eq!(process(&session), (400, 400));
    match session.call(Request::Stat) {
        Response::Stat { stat } => assert_eq!(stat.pending_events, 0),
        other => panic!("stat answered {other:?}"),
    }
    // Every model ended with *some* thread's verdict.
    for oid in &oids {
        let Response::Props { props, .. } = session.call(Request::Show { oid: oid.clone() }) else {
            panic!("show {oid} failed");
        };
        let verdict = props
            .iter()
            .find(|(name, _)| name == "sim_result")
            .map(|(_, value)| value.as_atom())
            .unwrap();
        assert!(verdict.starts_with("run-"), "{oid}: {verdict}");
    }
    drop((session, handle));
    join.join().unwrap();
}

#[test]
fn posts_interleave_with_checkins_without_loss() {
    let (handle, join, oids) = edtc_loop(&["CPU"]);
    let hdl = oids[0].clone();

    let poster = {
        let session = handle.session();
        std::thread::spawn(move || {
            for i in 0..100 {
                post_sim(&session, hdl.clone(), format!("v{i}"), "sim".into());
            }
        })
    };
    // Main session interleaves drains while the poster runs.
    let session = handle.session();
    let mut total_events = 0;
    while total_events < 100 {
        total_events += process(&session).0;
        std::thread::yield_now();
    }
    poster.join().unwrap();
    total_events += process(&session).0;
    assert_eq!(
        total_events, 100,
        "every posted message processed exactly once"
    );
    drop((session, handle));
    join.join().unwrap();
}

#[test]
fn queue_stats_survive_heavy_traffic() {
    let mut server = ProjectServer::new(edtc_blueprint()).unwrap();
    let hdl = server
        .checkin("CPU", "HDL_model", "setup", b"m".to_vec())
        .unwrap();
    server.process_all().unwrap();
    for _ in 0..1000 {
        server
            .post_line(&format!("postEvent hdl_sim up {hdl} \"x\""), "sim")
            .unwrap();
    }
    let report = server.process_all().unwrap();
    assert_eq!(report.events, 1000);
    let summary = server.audit().summary();
    assert!(summary.deliveries >= 1000);
}

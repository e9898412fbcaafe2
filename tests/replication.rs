//! End-to-end replication tests (ISSUE 4): a read-only follower
//! bootstraps from `snapshot + tail` over TCP, reaches the leader's
//! image byte-identically, serves reads while rejecting mutations, and
//! survives a leader checkpoint (epoch rollover) mid-stream.

use std::net::TcpListener;
use std::time::Duration;

use damocles::core::engine::api::{ApiError, Request, Response};
use damocles::core::engine::follower::{spawn_follower_loop, FollowerHandle};
use damocles::core::engine::service::{
    serve_listener, serve_with, spawn_project_loop, ProjectService,
};
use damocles::prelude::*;
use damocles::tools::remote::{spawn_tail_pump, RemoteWrapper};

const SIMPLE: &str = r#"
    blueprint repl
    view default
        property uptodate default true
        when ckin do uptodate = true; post outofdate down done
        when outofdate do uptodate = false done
    endview
    view HDL_model endview
    view schematic
        link_from HDL_model move propagates outofdate type derived
    endview
    endblueprint
"#;

/// Binds a loopback listener, spawns the leader command loop with
/// journaling under `dir`, and returns the address clients connect to.
fn spawn_leader(dir: &std::path::Path) -> std::net::SocketAddr {
    let _ = std::fs::remove_dir_all(dir);
    let mut service: ProjectService = ProjectService::new();
    assert!(!service
        .call(Request::Init {
            source: SIMPLE.into()
        })
        .is_error());
    assert!(matches!(
        service.call(Request::EnableJournal {
            dir: dir.display().to_string(),
            every: 1_000_000,
        }),
        Response::Epoch { .. }
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let (handle, _join) = spawn_project_loop(service);
    std::thread::spawn(move || {
        let _ = serve_listener(listener, &handle);
    });
    addr
}

/// Spawns a follower (loop + TCP pump with reconnect, exactly the
/// `damocles_server --follow` wiring) and its read-only front door.
fn spawn_follower(leader: std::net::SocketAddr) -> (FollowerHandle, std::net::SocketAddr) {
    let service: ProjectService =
        ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
    let (handle, _join) = spawn_follower_loop(service, leader.to_string());
    spawn_tail_pump(leader.to_string(), handle.feed(), handle.status());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let front = handle.clone();
    std::thread::spawn(move || {
        let _ = serve_with(listener, || front.session(), None);
    });
    (handle, addr)
}

/// The leader's committed stream position, via its own front door.
fn leader_position(client: &mut RemoteWrapper) -> (u64, u64) {
    match client.request(&Request::Stat).expect("stat") {
        Response::Stat { stat } => (
            stat.journal_epoch.expect("journaling on"),
            stat.journal_records.expect("journaling on"),
        ),
        other => panic!("{other:?}"),
    }
}

/// The leader's full project image, via `save` + read-back.
fn leader_image(client: &mut RemoteWrapper, tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("damocles-repl-image-{tag}.ddb"));
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        client
            .request(&Request::SaveProject {
                path: path.display().to_string()
            })
            .expect("save"),
        Response::Ok
    );
    std::fs::read_to_string(&path).expect("read image")
}

fn checkin(block: &str, view: &str) -> Request {
    Request::Checkin {
        block: block.into(),
        view: view.into(),
        user: "yves".into(),
        payload: b"data".to_vec(),
    }
}

#[test]
fn follower_bootstraps_tails_and_survives_rollover() {
    let dir = std::env::temp_dir().join("damocles-repl-e2e");
    let leader_addr = spawn_leader(&dir);
    let mut client = RemoteWrapper::connect(leader_addr, "writer").expect("connect leader");

    // Build real state: versions, a link, a propagation wave.
    let hdl = match client.request(&checkin("cpu", "HDL_model")).unwrap() {
        Response::Created { oid } => oid,
        other => panic!("{other:?}"),
    };
    let sch = match client.request(&checkin("cpu", "schematic")).unwrap() {
        Response::Created { oid } => oid,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        client
            .request(&Request::Connect {
                from: hdl.clone(),
                to: sch.clone()
            })
            .unwrap(),
        Response::Ok
    );
    assert!(matches!(
        client.request(&Request::ProcessAll).unwrap(),
        Response::Processed { .. }
    ));

    // The follower bootstraps from snapshot + tail over TCP.
    let (follower, follower_addr) = spawn_follower(leader_addr);
    let (epoch, seq) = leader_position(&mut client);
    assert!(
        follower
            .status()
            .wait_applied(epoch, seq, Duration::from_secs(10)),
        "follower caught up to ({epoch}, {seq}); at {:?}",
        follower.status().cursor()
    );
    assert_eq!(
        follower.image().unwrap(),
        leader_image(&mut client, "bootstrap"),
        "follower image is byte-identical to the leader's after catch-up"
    );

    // The follower serves reads through its own front door…
    let mut reader = RemoteWrapper::connect(follower_addr, "reader").expect("connect follower");
    match reader
        .request(&Request::Query {
            terms: "view=HDL_model".into(),
        })
        .unwrap()
    {
        Response::Hits { oids } => assert_eq!(oids, vec![hdl.clone()]),
        other => panic!("{other:?}"),
    }
    match reader.request(&Request::Show { oid: sch.clone() }).unwrap() {
        Response::Props { props, .. } => {
            assert!(props.iter().any(|(n, _)| n == "uptodate"));
        }
        other => panic!("{other:?}"),
    }
    // …and rejects mutations with a structured error naming the leader.
    match reader.request(&checkin("evil", "HDL_model")).unwrap() {
        Response::Error(ApiError::ReadOnly { leader }) => {
            assert_eq!(leader, leader_addr.to_string());
        }
        other => panic!("{other:?}"),
    }
    match reader.request(&Request::ProcessAll).unwrap() {
        Response::Error(ApiError::ReadOnly { .. }) => {}
        other => panic!("{other:?}"),
    }

    // Mid-stream leader checkpoint: the epoch rolls over and the
    // follower keeps tracking (cheap marker path, no re-bootstrap).
    let epoch_before = follower.status().cursor().0;
    assert!(matches!(
        client.request(&Request::Checkpoint).unwrap(),
        Response::Epoch { .. }
    ));
    // New mutations land in the new epoch; a fresh HDL version flips the
    // derived schematic stale — link state replicated across the fold.
    assert!(matches!(
        client.request(&checkin("cpu", "HDL_model")).unwrap(),
        Response::Created { .. }
    ));
    assert!(matches!(
        client.request(&Request::ProcessAll).unwrap(),
        Response::Processed { .. }
    ));
    let (epoch, seq) = leader_position(&mut client);
    assert!(epoch > epoch_before, "checkpoint advanced the epoch");
    assert!(
        follower
            .status()
            .wait_applied(epoch, seq, Duration::from_secs(10)),
        "follower crossed the rollover; at {:?}",
        follower.status().cursor()
    );
    assert_eq!(
        follower.image().unwrap(),
        leader_image(&mut client, "rollover"),
        "byte-identical across the epoch rollover"
    );
    // The replicated propagation outcome is queryable on the follower.
    match reader.request(&Request::Show { oid: sch }).unwrap() {
        Response::Props { props, .. } => {
            let up = props.iter().find(|(n, _)| n == "uptodate").unwrap();
            assert_eq!(up.1, Value::Bool(false), "staleness replicated");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn crashed_follower_rejoins_from_scratch() {
    let dir = std::env::temp_dir().join("damocles-repl-rejoin");
    let leader_addr = spawn_leader(&dir);
    let mut client = RemoteWrapper::connect(leader_addr, "writer").expect("connect leader");
    for i in 0..6 {
        assert!(matches!(
            client
                .request(&checkin(&format!("blk{i}"), "HDL_model"))
                .unwrap(),
            Response::Created { .. }
        ));
    }
    assert!(matches!(
        client.request(&Request::ProcessAll).unwrap(),
        Response::Processed { .. }
    ));

    // First follower catches up, then "crashes" (all its state dropped).
    let (follower, _) = spawn_follower(leader_addr);
    let (epoch, seq) = leader_position(&mut client);
    assert!(follower
        .status()
        .wait_applied(epoch, seq, Duration::from_secs(10)));
    drop(follower);

    // The leader moves on while no follower is attached.
    for i in 6..9 {
        client
            .request(&checkin(&format!("blk{i}"), "HDL_model"))
            .unwrap();
    }
    client.request(&Request::ProcessAll).unwrap();

    // A rejoining follower starts cold at (0, 0): the stale cursor gets
    // a fresh snapshot bootstrap, then the live tail.
    let (rejoined, rejoined_addr) = spawn_follower(leader_addr);
    let (epoch, seq) = leader_position(&mut client);
    assert!(
        rejoined
            .status()
            .wait_applied(epoch, seq, Duration::from_secs(10)),
        "rejoined follower caught up; at {:?}",
        rejoined.status().cursor()
    );
    assert_eq!(
        rejoined.image().unwrap(),
        leader_image(&mut client, "rejoin")
    );

    // All nine objects are visible through the rejoined front door.
    let mut reader = RemoteWrapper::connect(rejoined_addr, "reader").unwrap();
    match reader.request(&Request::Stat).unwrap() {
        Response::Stat { stat } => assert_eq!(stat.oids, 9),
        other => panic!("{other:?}"),
    }
}

/// Promotion ends the follower's tail pump: the old leader's stream is
/// dead to a node that leads.
#[test]
fn promotion_ends_the_tail_pump() {
    let dir = std::env::temp_dir().join("damocles-repl-promote-pump");
    let leader_addr = spawn_leader(&dir);
    let service: ProjectService =
        ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
    let (follower, _join) = spawn_follower_loop(service, leader_addr.to_string());
    let pump = spawn_tail_pump(leader_addr.to_string(), follower.feed(), follower.status());
    let mut client = RemoteWrapper::connect(leader_addr, "writer").expect("connect leader");
    let (epoch, seq) = leader_position(&mut client);
    assert!(follower
        .status()
        .wait_applied(epoch, seq, Duration::from_secs(10)));
    let resp = follower.session().call(Request::Promote {
        dir: dir.join("promoted").display().to_string(),
        every: 1_000_000,
        term: 2,
    });
    assert!(
        matches!(resp, Response::Promoted { term: 2, .. }),
        "{resp:?}"
    );
    // The leader pings an idle stream every ~500 ms; the first frame
    // after the promotion is the pump's last.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !pump.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "the pump outlived the promotion"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    pump.join().expect("the pump thread ended cleanly");
}

/// A follower with no leader link yet answers reads with `Lagging` (not
/// a hang, not a misleading empty result) and mutations with `ReadOnly`.
#[test]
fn unbootstrapped_follower_reports_lagging() {
    let service: ProjectService =
        ProjectService::with_server(ProjectServer::from_source(SIMPLE).unwrap());
    let (handle, _join) = spawn_follower_loop(service, "203.0.113.1:7425");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let front = handle.clone();
    std::thread::spawn(move || {
        let _ = serve_with(listener, || front.session(), None);
    });
    let mut reader = RemoteWrapper::connect(addr, "reader").unwrap();
    match reader.request(&Request::Stat).unwrap() {
        Response::Error(ApiError::Lagging { epoch: 0, seq: 0 }) => {}
        other => panic!("{other:?}"),
    }
    match reader.request(&checkin("x", "HDL_model")).unwrap() {
        Response::Error(ApiError::ReadOnly { leader }) => {
            assert_eq!(leader, "203.0.113.1:7425");
        }
        other => panic!("{other:?}"),
    }
}

/// A follower's first bootstrap after several checkpoints of a project
/// whose image spans several 64 KiB chunks: the leader streams the reset
/// from its current snapshot file, and the follower's image is the
/// leader's, byte for byte.
#[test]
fn a_late_follower_bootstraps_from_a_multi_chunk_snapshot_file() {
    let dir = std::env::temp_dir().join("damocles-repl-late");
    let leader_addr = spawn_leader(&dir);
    let mut client = RemoteWrapper::connect(leader_addr, "writer").expect("connect leader");
    for round in 0..4u8 {
        for i in 0..24 {
            let request = Request::Checkin {
                block: format!("blk{i}"),
                view: "HDL_model".into(),
                user: "yves".into(),
                payload: vec![round; 1_500],
            };
            assert!(matches!(
                client.request(&request).unwrap(),
                Response::Created { .. }
            ));
        }
        assert!(matches!(
            client.request(&Request::ProcessAll).unwrap(),
            Response::Processed { .. }
        ));
        assert!(matches!(
            client.request(&Request::Checkpoint).unwrap(),
            Response::Epoch { .. }
        ));
    }
    let snapshot = std::fs::metadata(dir.join("snapshot.ddb")).unwrap().len();
    assert!(snapshot > 3 * 64 * 1024, "{snapshot}-byte snapshot");

    let (follower, _) = spawn_follower(leader_addr);
    let (epoch, seq) = leader_position(&mut client);
    assert!(epoch >= 5, "epoch {epoch}");
    assert!(
        follower
            .status()
            .wait_applied(epoch, seq, Duration::from_secs(10)),
        "late follower caught up to ({epoch}, {seq}); at {:?}",
        follower.status().cursor()
    );
    assert_eq!(
        follower.image().unwrap(),
        leader_image(&mut client, "late"),
        "the late follower's image is the leader's"
    );
}

//! End-to-end tests of the typed command protocol (ISSUE 3): the
//! session-based command loop, the line-framed TCP front door, and the
//! group-commit guarantee that a reply in hand means the effect is
//! journaled.

use std::net::TcpListener;

use damocles::core::engine::api::{Request, Response};
use damocles::core::engine::service::{serve_listener, spawn_project_loop, ProjectService};
use damocles::prelude::*;
use damocles::tools::remote::RemoteWrapper;

fn edtc_service() -> ProjectService {
    let server = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).expect("EDTC parses");
    ProjectService::with_server(server)
}

/// Binds a loopback listener, spawns the command loop and the accept
/// loop, and returns the address clients connect to.
fn spawn_server(service: ProjectService) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let (handle, _join) = spawn_project_loop(service);
    std::thread::spawn(move || {
        let _ = serve_listener(listener, &handle);
    });
    addr
}

#[test]
fn two_concurrent_clients_post_through_the_listener() {
    let dir = std::env::temp_dir().join("damocles-api-protocol-two-clients");
    let _ = std::fs::remove_dir_all(&dir);
    let mut service = edtc_service();
    // Seed 8 HDL models and enable journaling — through the protocol.
    let mut oids = Vec::new();
    for i in 0..8 {
        match service.call(Request::Checkin {
            block: format!("blk{i}"),
            view: "HDL_model".into(),
            user: "setup".into(),
            payload: b"module".to_vec(),
        }) {
            Response::Created { oid } => oids.push(oid),
            other => panic!("{other:?}"),
        }
    }
    assert!(!service.call(Request::ProcessAll).is_error());
    assert!(matches!(
        service.call(Request::EnableJournal {
            dir: dir.display().to_string(),
            every: 1_000_000,
        }),
        Response::Epoch { .. }
    ));
    let addr = spawn_server(service);

    // Two wrapper processes race 25 simulation results each.
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let oids = oids.clone();
            std::thread::spawn(move || {
                let mut wrapper = RemoteWrapper::connect(addr, format!("sim{w}")).expect("connect");
                for i in 0..25 {
                    let msg = EventMessage::new(
                        "hdl_sim",
                        Direction::Up,
                        oids[(w * 3 + i) % oids.len()].clone(),
                    )
                    .with_arg(format!("run-{w}-{i}"));
                    let resp = wrapper.post(&msg).expect("post");
                    assert_eq!(resp, Response::Ok, "worker {w} post {i}");
                }
                let resp = wrapper.process_all().expect("process");
                assert!(matches!(resp, Response::Processed { .. }), "{resp:?}");
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    // A third client observes the serialized aggregate state: all 50
    // events processed (split between the two drains), queue empty, and
    // every event journaled before its reply was sent.
    let mut observer = RemoteWrapper::connect(addr, "observer").expect("connect");
    match observer.request(&Request::Stat).expect("stat") {
        Response::Stat { stat } => {
            assert_eq!(stat.oids, 8);
            assert_eq!(stat.pending_events, 0);
            assert!(
                stat.journal_records.unwrap() >= 50,
                "all posted events journaled, saw {:?}",
                stat.journal_records
            );
        }
        other => panic!("{other:?}"),
    }
    // Every model took SOME run's result (last writer per target wins).
    for oid in &oids {
        match observer
            .request(&Request::Show { oid: oid.clone() })
            .unwrap()
        {
            Response::Props { props, .. } => {
                let sim = props.iter().find(|(n, _)| n == "sim_result").unwrap();
                assert!(sim.1.as_atom().starts_with("run-"), "{oid}: {:?}", sim.1);
            }
            other => panic!("{other:?}"),
        }
    }

    // The journal the loop group-committed recovers into the same state.
    let mut recovered = edtc_service();
    match recovered.call(Request::Recover {
        dir: dir.display().to_string(),
        every: 1_000_000,
    }) {
        Response::Recovered { .. } => {}
        other => panic!("{other:?}"),
    }
    match recovered.call(Request::Stat) {
        Response::Stat { stat } => assert_eq!(stat.oids, 8),
        other => panic!("{other:?}"),
    }
}

#[test]
fn raw_postevent_lines_work_over_the_wire() {
    use std::io::{BufRead, BufReader, Write};

    let mut service = edtc_service();
    let oid = match service.call(Request::Checkin {
        block: "CPU".into(),
        view: "HDL_model".into(),
        user: "yves".into(),
        payload: b"module cpu".to_vec(),
    }) {
        Response::Created { oid } => oid,
        other => panic!("{other:?}"),
    };
    service.call(Request::ProcessAll);
    let addr = spawn_server(service);

    // A paper-style wrapper that only knows the §3.1 wire line.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("postEvent hdl_sim up {oid} \"good\"\nprocess\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "ok");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("processed 1 "), "{line:?}");

    // Malformed lines come back as structured, positioned errors.
    stream
        .write_all(b"postEvent hdl_sim sideways CPU,HDL_model,1\n")
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    match Response::decode(line.trim_end()).unwrap() {
        Response::Error(damocles::core::ApiError::Parse { at, found, .. }) => {
            assert_eq!(at, 18);
            assert_eq!(found, "sideways");
        }
        other => panic!("{other:?}"),
    }

    // The posted result landed under the connection's net user.
    let mut observer = RemoteWrapper::connect(addr, "observer").unwrap();
    match observer.request(&Request::Show { oid }).unwrap() {
        Response::Props { props, .. } => {
            let sim = props.iter().find(|(n, _)| n == "sim_result").unwrap();
            assert_eq!(sim.1.as_atom(), "good");
        }
        other => panic!("{other:?}"),
    }
}

/// A line longer than `MAX_LINE_BYTES` with no newline gets one `err`
/// reply, then the server closes that connection; a connection opened
/// before it keeps working.
#[test]
fn an_over_long_line_gets_one_error_and_a_close() {
    use damocles::core::engine::service::MAX_LINE_BYTES;
    use std::io::{BufRead, BufReader, Read, Write};

    let addr = spawn_server(edtc_service());
    let mut bystander = std::net::TcpStream::connect(addr).unwrap();
    let mut bystander_lines = BufReader::new(bystander.try_clone().unwrap());
    bystander.write_all(b"stat\n").unwrap();
    let mut line = String::new();
    bystander_lines.read_line(&mut line).unwrap();
    assert!(line.starts_with("stat "), "{line:?}");

    let mut hostile = std::net::TcpStream::connect(addr).unwrap();
    // A server that waits for the newline fails the read instead of
    // hanging the test.
    hostile
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    hostile.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let mut reply = String::new();
    hostile.read_to_string(&mut reply).unwrap();
    let (first, rest) = reply.split_once('\n').expect("one reply line");
    assert_eq!(rest, "", "nothing after the error, then EOF");
    match Response::decode(first).unwrap() {
        Response::Error(damocles::core::ApiError::Parse { at, .. }) => {
            assert_eq!(at, MAX_LINE_BYTES as u64);
        }
        other => panic!("{other:?}"),
    }

    bystander.write_all(b"stat\n").unwrap();
    line.clear();
    bystander_lines.read_line(&mut line).unwrap();
    assert!(line.starts_with("stat "), "{line:?}");
}

#[test]
fn sessions_see_their_requests_in_order_and_batches_commit_atomically() {
    let dir = std::env::temp_dir().join("damocles-api-protocol-order");
    let _ = std::fs::remove_dir_all(&dir);
    let mut service = edtc_service();
    assert!(matches!(
        service.call(Request::EnableJournal {
            dir: dir.display().to_string(),
            every: 1_000_000,
        }),
        Response::Epoch { .. }
    ));
    let (handle, join) = spawn_project_loop(service);
    let session = handle.session();
    // Pipelined: version 1..=20 of the same chain must check in strictly
    // in submission order or version numbers would collide.
    let pending: Vec<_> = (1..=20)
        .map(|_| {
            session.submit(Request::Checkin {
                block: "CPU".into(),
                view: "HDL_model".into(),
                user: "yves".into(),
                payload: b"v".to_vec(),
            })
        })
        .collect();
    for (i, rx) in pending.into_iter().enumerate() {
        match rx.recv().unwrap() {
            Response::Created { oid } => assert_eq!(oid.version, i as u32 + 1),
            other => panic!("{other:?}"),
        }
    }
    drop((session, handle));
    join.join().unwrap();

    // Recovery sees all twenty versions: the last batch was flushed when
    // the loop wound down.
    let mut recovered = edtc_service();
    assert!(!recovered
        .call(Request::Recover {
            dir: dir.display().to_string(),
            every: 1_000_000,
        })
        .is_error());
    match recovered.call(Request::Stat) {
        Response::Stat { stat } => assert_eq!(stat.oids, 20),
        other => panic!("{other:?}"),
    }
}

//! Project persistence across sessions: the tracking database outlives the
//! server process, and restored projects keep propagating changes and
//! running tools on restored design data.

use damocles::meta::persist;
use damocles::prelude::*;
use damocles::tools::design_data;

const AUTOMATED: &str = r#"
blueprint persisted
view default
    property uptodate default true
    when ckin do uptodate = true; post outofdate down done
    when outofdate do uptodate = false done
endview
view HDL_model
    property sim_result default bad
    when hdl_sim do sim_result = $arg done
    when ckin do exec synthesizer "$oid" done
endview
view schematic
    property nl_sim_res default bad
    link_from HDL_model move propagates outofdate type derived
    use_link move propagates outofdate
    when nl_sim do nl_sim_res = $arg done
    when ckin do exec netlister "$oid"; exec layout_gen "$oid" done
endview
view netlist
    property sim_result default bad
    link_from schematic move propagates nl_sim, outofdate type derived
    when nl_sim do sim_result = $arg done
    when ckin do exec simulator "$oid" done
endview
view layout
    property drc_result default bad
    property lvs_result default not_equiv
    link_from schematic move propagates lvs, outofdate type equivalence
    when drc do drc_result = $arg done
    when lvs do lvs_result = $arg done
    when ckin do exec drc "$oid"; exec lvs "$oid" done
endview
endblueprint
"#;

#[test]
fn restored_project_keeps_tracking_and_tooling() {
    // Session 1: run the automated flow, save the project.
    let bp = damocles::core::parse(AUTOMATED).unwrap();
    let mut session1 =
        ProjectServer::with_executor(bp, ToolExecutor::standard(FaultPlan::never())).unwrap();
    session1
        .checkin(
            "CPU",
            "HDL_model",
            "yves",
            design_data::hdl_source("CPU", 1, &["REG"], false),
        )
        .unwrap();
    session1.process_all().unwrap();
    let image = persist::save_project(session1.db(), session1.workspace());
    drop(session1);

    // Session 2: fresh server, restore, verify state survived.
    let bp = damocles::core::parse(AUTOMATED).unwrap();
    let mut session2 =
        ProjectServer::with_executor(bp, ToolExecutor::standard(FaultPlan::never())).unwrap();
    let (db, workspace) = persist::load_project(&image).unwrap();
    session2.adopt_project(db, workspace);

    let lay = Oid::new("CPU", "layout", 1);
    assert_eq!(
        session2.prop(&lay, "lvs_result").unwrap().as_atom(),
        "is_equiv"
    );
    assert_eq!(session2.prop(&lay, "uptodate").unwrap(), Value::Bool(true));

    // Change propagation works on the restored link graph.
    session2
        .checkin(
            "CPU",
            "HDL_model",
            "yves",
            design_data::hdl_source("CPU", 2, &["REG"], false),
        )
        .unwrap();
    session2.process_all().unwrap();
    // The v1 schematic went stale; the automated cascade rebuilt v2 of
    // everything (including running LVS over restored + new payloads).
    let sch1 = Oid::new("CPU", "schematic", 1);
    assert_eq!(
        session2.prop(&sch1, "uptodate").unwrap(),
        Value::Bool(false)
    );
    let lay2 = Oid::new("CPU", "layout", 2);
    assert_eq!(
        session2.prop(&lay2, "lvs_result").unwrap().as_atom(),
        "is_equiv"
    );

    // Tool lineage checks ran against the *restored* workspace payloads.
    let net2 = session2.resolve(&Oid::new("CPU", "netlist", 2)).unwrap();
    let sch2 = session2.resolve(&Oid::new("CPU", "schematic", 2)).unwrap();
    let net_payload = session2.workspace().datum(net2).unwrap().content.clone();
    let sch_payload = session2.workspace().datum(sch2).unwrap().content.clone();
    assert!(design_data::derived_from(
        "netlist",
        &net_payload,
        &sch_payload
    ));
}

#[test]
fn save_load_is_stable_across_the_edtc_walkthrough() {
    let mut server = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).unwrap();
    let hdl = server
        .checkin("CPU", "HDL_model", "d", b"m1".to_vec())
        .unwrap();
    let sch = server
        .checkin("CPU", "schematic", "d", b"s1".to_vec())
        .unwrap();
    server.connect_oids(&hdl, &sch).unwrap();
    server.process_all().unwrap();
    server
        .post_line(&format!("postEvent hdl_sim up {hdl} \"good\""), "sim")
        .unwrap();
    server.process_all().unwrap();

    let image1 = persist::save_project(server.db(), server.workspace());
    let (db, ws) = persist::load_project(&image1).unwrap();
    let image2 = persist::save_project(&db, &ws);
    assert_eq!(image1, image2, "save∘load∘save is the identity");
}

#[test]
fn queued_events_are_dropped_on_adopt() {
    let mut server = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).unwrap();
    let hdl = server
        .checkin("CPU", "HDL_model", "d", b"m1".to_vec())
        .unwrap();
    server.process_all().unwrap();
    let image = persist::save_project(server.db(), server.workspace());

    // Queue an event, then adopt: the event's address belongs to the old
    // database and must not fire against the new one.
    server
        .post_line(&format!("postEvent hdl_sim up {hdl} \"good\""), "sim")
        .unwrap();
    assert_eq!(server.pending_events(), 1);
    let (db, ws) = persist::load_project(&image).unwrap();
    server.adopt_project(db, ws);
    assert_eq!(server.pending_events(), 0);
    let report = server.process_all().unwrap();
    assert_eq!(report.events, 0);
    assert_eq!(server.prop(&hdl, "sim_result").unwrap().as_atom(), "bad");
}

/// `save <path>` over TCP streams the image to the file in chunks: a
/// project whose image spans several 64 KiB chunks is saved as exactly
/// the bytes of `persist::save_project`.
#[test]
fn save_over_tcp_writes_the_bytes_of_save_project() {
    use damocles::core::engine::api::{Request, Response};
    use damocles::core::engine::service::{serve_listener, spawn_project_loop, ProjectService};
    use damocles::tools::remote::RemoteWrapper;

    let mut service: ProjectService = ProjectService::new();
    let init = service.call(Request::Init {
        source: AUTOMATED.into(),
    });
    assert!(!init.is_error(), "{init:?}");
    for i in 0..96 {
        let checkin = Request::Checkin {
            block: format!("blk{i}"),
            view: "HDL_model".into(),
            user: "yves".into(),
            payload: format!("módulo {i}\t%\r\n").repeat(100).into_bytes(),
        };
        assert!(matches!(service.call(checkin), Response::Created { .. }));
    }
    let server = service.server().unwrap();
    let expected = persist::save_project(server.db(), server.workspace());
    assert!(expected.len() > 3 * 64 * 1024, "{} bytes", expected.len());

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let (handle, _join) = spawn_project_loop(service);
    std::thread::spawn(move || {
        let _ = serve_listener(listener, &handle);
    });
    let dir = std::env::temp_dir().join(format!("damocles-save-tcp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("saved.ddb");
    // Over nothing, then over the file it wrote.
    for _ in 0..2 {
        let mut client = RemoteWrapper::connect(addr, "saver").expect("connect");
        let request = Request::SaveProject {
            path: path.display().to_string(),
        };
        assert_eq!(client.request(&request).unwrap(), Response::Ok);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        assert!(!dir.join("saved.ddb.tmp").exists(), "no temporary sibling");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

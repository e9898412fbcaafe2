//! Multi-project fleet end to end (ISSUE 8): a `ProjectRegistry` routes
//! thousands of tenants over a bounded engine-worker pool, idle projects
//! are LRU-evicted through the checkpoint path and lazily re-activated
//! from their journals — and none of that machinery may leave a byte of
//! difference against a dedicated single-project server replaying the
//! same stream.

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use damocles::core::engine::api::{ApiError, Request, Response};
use damocles::core::engine::exec::{NullExecutor, ScriptInvocation, ToolCtx};
use damocles::core::engine::fleet::{spawn_fleet, FleetConfig, FleetSession, ProjectRegistry};
use damocles::core::engine::server::{journal_dir_cursor, replay_dir};
use damocles::core::engine::service::{serve_with, ProjectService};
use damocles::prelude::*;
use damocles::tools::remote::RemoteWrapper;

/// The tracked flow every tenant runs: check-ins propagate `outofdate`
/// from HDL models into schematics, exactly the shape the single-node
/// tests use.
const SIMPLE: &str = r#"
    blueprint fleetbp
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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("damocles-fleet-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn checkin(block: &str, payload: String) -> Request {
    Request::Checkin {
        block: block.to_string(),
        view: "HDL_model".to_string(),
        user: "yves".to_string(),
        payload: payload.into_bytes(),
    }
}

/// The per-tenant request stream: each round checks a new HDL version in
/// and drains the queue, so schematics go out of date and propagation
/// waves run — enough machinery that a replay divergence would show.
fn tenant_stream(tenant: usize, rounds: usize) -> Vec<Request> {
    let block = format!("BLK{tenant}");
    let mut stream = vec![
        Request::Checkin {
            block: block.clone(),
            view: "schematic".to_string(),
            user: "synth".to_string(),
            payload: format!("cell {tenant}").into_bytes(),
        },
        Request::ProcessAll,
    ];
    for round in 0..rounds {
        stream.push(checkin(&block, format!("module v{round} of {tenant}")));
        stream.push(Request::ProcessAll);
    }
    stream
}

/// Replays `stream` on a dedicated single-project server (the fleet's
/// ground truth) and returns its saved image.
fn dedicated_image(stream: &[Request], save_to: &std::path::Path) -> String {
    let mut service: ProjectService = ProjectService::new();
    assert!(!service
        .call(Request::Init {
            source: SIMPLE.into()
        })
        .is_error());
    for request in stream {
        let resp = service.call(request.clone());
        assert!(!resp.is_error(), "dedicated replay failed: {resp:?}");
    }
    let resp = service.call(Request::SaveProject {
        path: save_to.display().to_string(),
    });
    assert!(matches!(resp, Response::Ok), "{resp:?}");
    std::fs::read_to_string(save_to).unwrap()
}

fn attach(session: &FleetSession, project: &str, create: bool) -> Response {
    session.call(Request::Attach {
        project: project.to_string(),
        create,
    })
}

// ---------------------------------------------------------------------
// Eviction byte-identity
// ---------------------------------------------------------------------

/// Six tenants round-robin over a two-slot fleet: every request lands on
/// a cold project, so each one is evicted (checkpointed) and re-activated
/// (recovered) many times over — and the final image of every tenant is
/// byte-identical to a never-evicted dedicated server.
#[test]
fn eviction_cycle_is_byte_identical_to_a_dedicated_server() {
    let root = temp_dir("identity");
    let out = temp_dir("identity-out");
    const TENANTS: usize = 6;
    const ROUNDS: usize = 4;
    let config = FleetConfig {
        engine_workers: 2,
        max_active: 2,
        checkpoint_every: 8,
        ..FleetConfig::default()
    };
    let registry = ProjectRegistry::open(&root, SIMPLE, config).unwrap();
    let (fleet, join) = spawn_fleet::<NullExecutor>(registry);
    let counters = fleet.counters();

    let sessions: Vec<FleetSession> = (0..TENANTS)
        .map(|t| {
            let session = fleet.session();
            let resp = attach(&session, &format!("tenant{t}"), true);
            assert!(
                matches!(resp, Response::Attached { created: true, .. }),
                "{resp:?}"
            );
            session
        })
        .collect();

    // Interleave the streams one request at a time: with two slots and
    // six tenants this forces an evict + re-activate on nearly every
    // routed request.
    let streams: Vec<Vec<Request>> = (0..TENANTS).map(|t| tenant_stream(t, ROUNDS)).collect();
    let depth = streams[0].len();
    #[allow(clippy::needless_range_loop)] // step-major interleave is the point
    for step in 0..depth {
        for (t, session) in sessions.iter().enumerate() {
            let resp = session.call(streams[t][step].clone());
            assert!(!resp.is_error(), "tenant{t} step {step}: {resp:?}");
        }
    }

    assert!(
        counters.evictions.load(Ordering::Relaxed) > 0,
        "the LRU cycle never ran"
    );
    assert!(
        counters.activations.load(Ordering::Relaxed) > TENANTS as u64,
        "no tenant was ever re-activated from its journal"
    );

    // Byte-identity, tenant by tenant, through the fleet's own front
    // door (`save` routes like any other command).
    let mut expected = Vec::new();
    for (t, session) in sessions.iter().enumerate() {
        let fleet_path = out.join(format!("fleet-{t}.dpr"));
        let resp = session.call(Request::SaveProject {
            path: fleet_path.display().to_string(),
        });
        assert!(matches!(resp, Response::Ok), "{resp:?}");
        let dedicated = dedicated_image(&streams[t], &out.join(format!("solo-{t}.dpr")));
        let via_fleet = std::fs::read_to_string(&fleet_path).unwrap();
        assert_eq!(via_fleet, dedicated, "tenant{t} image diverged");
        expected.push(dedicated);
    }

    // Shut the fleet down (workers checkpoint their residents on the way
    // out) and verify each tenant directory is a plain single-project
    // durability dir: `damocles_inspect`'s replay path reconstructs the
    // same image from nothing but the files.
    drop(sessions);
    drop(fleet);
    join.join();
    for (t, expected) in expected.iter().enumerate() {
        let dir = root.join(format!("tenant{t}"));
        let (epoch, ops) = journal_dir_cursor(&dir).unwrap();
        let (_, image) = replay_dir(&dir, epoch, ops.len() as u64).unwrap();
        assert_eq!(&image, expected, "tenant{t} replayed image diverged");
    }
}

// ---------------------------------------------------------------------
// Cross-tenant isolation over one TCP listener
// ---------------------------------------------------------------------

/// Two wrappers share one listener but attach to different projects:
/// neither sees the other's objects, version counters are per-tenant,
/// and the protocol errors (`not-attached`, `no-such-project`, fleet
/// policy refusals) come back structured.
#[test]
fn tenants_are_isolated_over_one_listener() {
    let root = temp_dir("isolation");
    let registry = ProjectRegistry::open(&root, SIMPLE, FleetConfig::default()).unwrap();
    let (fleet, _join) = spawn_fleet::<NullExecutor>(registry);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let front = fleet.clone();
    std::thread::spawn(move || {
        let _ = serve_with(listener, || front.session(), None);
    });

    let mut alpha = RemoteWrapper::connect(addr, "alpha-tool").unwrap();
    let mut beta = RemoteWrapper::connect(addr, "beta-tool").unwrap();

    // Before attaching, routable commands are refused.
    let resp = alpha.request(&Request::Stat).unwrap();
    assert!(
        matches!(resp, Response::Error(ApiError::NotAttached)),
        "{resp:?}"
    );
    // Attaching to an unregistered project without `new` is refused.
    let resp = alpha.attach("ghost", false).unwrap();
    assert!(
        matches!(resp, Response::Error(ApiError::NoSuchProject { ref project }) if project == "ghost"),
        "{resp:?}"
    );

    assert!(matches!(
        alpha.attach("alpha", true).unwrap(),
        Response::Attached { created: true, .. }
    ));
    assert!(matches!(
        beta.attach("beta", true).unwrap(),
        Response::Attached { created: true, .. }
    ));

    // Same block name in both tenants: versions are independent (both
    // get v1) because each project has its own database.
    let a1 = alpha
        .request(&checkin("CORE", "alpha's core".into()))
        .unwrap();
    let Response::Created { oid: a_oid } = a1 else {
        panic!("{a1:?}");
    };
    assert_eq!(a_oid.version, 1);
    let b1 = beta
        .request(&checkin("CORE", "beta's core".into()))
        .unwrap();
    let Response::Created { oid: b_oid } = b1 else {
        panic!("{b1:?}");
    };
    assert_eq!(b_oid.version, 1);

    // A second check-in advances only alpha's version chain; beta never
    // grew a v2 of the same block.
    let a2 = alpha
        .request(&checkin("CORE", "alpha's core, revised".into()))
        .unwrap();
    let Response::Created { oid: a_oid2 } = a2 else {
        panic!("{a2:?}");
    };
    assert_eq!(a_oid2.version, 2);
    let resp = beta.request(&Request::Show { oid: a_oid2 }).unwrap();
    assert!(
        matches!(resp, Response::Error(ApiError::UnknownOid { .. })),
        "beta can see alpha's objects: {resp:?}"
    );

    // Drain both queues, then post into alpha only: the event queues are
    // per-tenant too.
    assert!(!alpha.request(&Request::ProcessAll).unwrap().is_error());
    assert!(!beta.request(&Request::ProcessAll).unwrap().is_error());
    let resp = alpha
        .request(&Request::Post {
            message: EventMessage::new("hdl_sim", Direction::Up, a_oid.clone())
                .with_arg("alpha only"),
            user: "alpha-tool".to_string(),
        })
        .unwrap();
    assert!(!resp.is_error(), "{resp:?}");
    let Response::Stat { stat: a_stat } = alpha.request(&Request::Stat).unwrap() else {
        panic!("no stat");
    };
    let Response::Stat { stat: b_stat } = beta.request(&Request::Stat).unwrap() else {
        panic!("no stat");
    };
    assert_eq!(a_stat.pending_events, 1, "alpha's posted event is queued");
    assert_eq!(b_stat.pending_events, 0, "beta saw alpha's event");
    // Fleet gauges ride on every tenant's `stat`.
    assert_eq!(a_stat.resident_projects, 2);
    assert!(a_stat.active_projects >= 1);

    // Re-pointing durability or swapping blueprints is a fleet-root
    // decision — refused per request, not fatal to the session.
    let resp = alpha
        .request(&Request::Init {
            source: SIMPLE.into(),
        })
        .unwrap();
    assert!(
        matches!(resp, Response::Error(ApiError::Policy { .. })),
        "{resp:?}"
    );
    // And the session survives the refusal.
    let resp = alpha.request(&Request::ProcessAll).unwrap();
    assert!(!resp.is_error(), "{resp:?}");

    // `projects` lists both tenants.
    let resp = alpha.request(&Request::ListProjects).unwrap();
    let Response::Projects { entries } = resp else {
        panic!("no projects listing");
    };
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["alpha", "beta"]);
}

// ---------------------------------------------------------------------
// Real parallelism across workers
// ---------------------------------------------------------------------

static SLOW_RUNNING: AtomicUsize = AtomicUsize::new(0);
static SLOW_PEAK: AtomicUsize = AtomicUsize::new(0);

/// Sleeps inside every `slow` invocation while tracking how many run
/// simultaneously — overlap proves two engine workers really execute
/// concurrently.
#[derive(Debug, Default)]
struct SlowExecutor;

impl ScriptExecutor for SlowExecutor {
    fn execute(
        &mut self,
        invocation: &ScriptInvocation,
        _ctx: &mut ToolCtx<'_>,
    ) -> Vec<EventMessage> {
        if invocation.script == "slow" {
            let now = SLOW_RUNNING.fetch_add(1, Ordering::SeqCst) + 1;
            SLOW_PEAK.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(60));
            SLOW_RUNNING.fetch_sub(1, Ordering::SeqCst);
        }
        Vec::new()
    }
}

const SLOW_BP: &str = r#"
    blueprint slowfleet
    view default
        property uptodate default true
    endview
    view HDL_model
        when ckin do exec slow "$oid" done
    endview
    endblueprint
"#;

/// Two clients hammer two different projects: the router pins them to
/// different workers (least-loaded placement), so their wrapper
/// invocations overlap in time. A single-threaded multiplexer would
/// never push the concurrency gauge past 1.
#[test]
fn distinct_projects_execute_in_parallel() {
    let root = temp_dir("parallel");
    let config = FleetConfig {
        engine_workers: 2,
        ..FleetConfig::default()
    };
    let registry = ProjectRegistry::open(&root, SLOW_BP, config).unwrap();
    let (fleet, _join) = spawn_fleet::<SlowExecutor>(registry);

    let workers: Vec<std::thread::JoinHandle<()>> = (0..2)
        .map(|t| {
            let session = fleet.session();
            std::thread::spawn(move || {
                let name = format!("par{t}");
                assert!(!attach(&session, &name, true).is_error());
                for round in 0..5 {
                    let resp = session.call(checkin(&format!("B{t}"), format!("v{round}")));
                    assert!(!resp.is_error(), "{resp:?}");
                    let resp = session.call(Request::ProcessAll);
                    assert!(!resp.is_error(), "{resp:?}");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    assert!(
        SLOW_PEAK.load(Ordering::SeqCst) >= 2,
        "invocations never overlapped: the fleet serialized distinct projects"
    );
}

// ---------------------------------------------------------------------
// Blueprint sharing
// ---------------------------------------------------------------------

/// Every tenant runs the fleet's one compilation: the registry parses,
/// validates and compiles its source once, and two servers built from
/// it, exactly as the fleet's activation path builds them, point at the
/// same `CompiledBlueprint` allocation.
#[test]
fn tenants_share_one_compiled_blueprint() {
    let registry =
        ProjectRegistry::open(temp_dir("shared-bp"), SIMPLE, FleetConfig::default()).unwrap();
    let blueprint = std::sync::Arc::new(parse(SIMPLE).unwrap());
    let server_a = ProjectServer::with_shared(
        std::sync::Arc::clone(&blueprint),
        registry.compiled(),
        NullExecutor,
    );
    let server_b = ProjectServer::with_shared(blueprint, registry.compiled(), NullExecutor);
    assert!(std::sync::Arc::ptr_eq(
        &server_a.compiled_shared(),
        &server_b.compiled_shared()
    ));

    // A source that does not parse, or parses but fails validation, opens
    // no fleet.
    let open = |source: &str| {
        ProjectRegistry::open(temp_dir("bad-bp"), source, FleetConfig::default()).unwrap_err()
    };
    assert!(matches!(
        open("blueprint broken view a"),
        ApiError::BlueprintSyntax { .. }
    ));
    assert!(matches!(
        open("blueprint dup view a endview view a endview endblueprint"),
        ApiError::InvalidBlueprint { .. }
    ));
}

// ---------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------

/// With one slot and a zero park budget, the second tenant's first
/// request is refused with a structured `project-busy` instead of
/// queueing unboundedly.
#[test]
fn park_limit_backpressure_is_a_structured_refusal() {
    let root = temp_dir("busy");
    let config = FleetConfig {
        engine_workers: 1,
        max_active: 1,
        park_limit: 0,
        ..FleetConfig::default()
    };
    let registry = ProjectRegistry::open(&root, SIMPLE, config).unwrap();
    let (fleet, _join) = spawn_fleet::<NullExecutor>(registry);

    let sess_a = fleet.session();
    let sess_b = fleet.session();
    assert!(!attach(&sess_a, "hot", true).is_error());
    assert!(!attach(&sess_b, "cold", true).is_error());
    // Occupy the only slot.
    assert!(!sess_a.call(checkin("A", "warm it up".into())).is_error());
    // The cold tenant cannot park: park_limit is zero.
    let resp = sess_b.call(checkin("B", "no room".into()));
    assert!(
        matches!(resp, Response::Error(ApiError::ProjectBusy { ref project }) if project == "cold"),
        "{resp:?}"
    );
    // The hot tenant is unaffected.
    assert!(!sess_a.call(Request::ProcessAll).is_error());
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

/// Panics inside `boom` invocations — the poisoning fault injector.
#[derive(Debug, Default)]
struct PanicExecutor;

impl ScriptExecutor for PanicExecutor {
    fn execute(
        &mut self,
        invocation: &ScriptInvocation,
        _ctx: &mut ToolCtx<'_>,
    ) -> Vec<EventMessage> {
        assert_ne!(invocation.script, "boom", "injected interpreter panic");
        Vec::new()
    }
}

/// `doc` check-ins are harmless; `HDL_model` check-ins detonate on the
/// next queue drain.
const BOOM_BP: &str = r#"
    blueprint boomfleet
    view default
        property uptodate default true
    endview
    view HDL_model
        when ckin do exec boom "$oid" done
    endview
    view doc endview
    endblueprint
"#;

/// A panicking interpreter poisons exactly one project: the request gets
/// a structured `project-poisoned`, sibling tenants on the same worker
/// keep answering, and the victim itself re-activates from its journal
/// on the next request.
#[test]
fn a_panic_poisons_one_project_not_the_fleet() {
    let root = temp_dir("poison");
    let config = FleetConfig {
        engine_workers: 1,
        ..FleetConfig::default()
    };
    let registry = ProjectRegistry::open(&root, BOOM_BP, config).unwrap();
    let (fleet, _join) = spawn_fleet::<PanicExecutor>(registry);
    let counters = fleet.counters();

    let victim = fleet.session();
    let bystander = fleet.session();
    assert!(!attach(&victim, "victim", true).is_error());
    assert!(!attach(&bystander, "bystander", true).is_error());

    // Seed both tenants with durable, harmless state first.
    let resp = victim.call(Request::Checkin {
        block: "V".into(),
        view: "doc".into(),
        user: "yves".into(),
        payload: b"safe".to_vec(),
    });
    assert!(!resp.is_error(), "{resp:?}");
    assert!(!bystander
        .call(Request::Checkin {
            block: "B".into(),
            view: "doc".into(),
            user: "yves".into(),
            payload: b"safe".to_vec(),
        })
        .is_error());

    // Detonate: the HDL check-in queues a `ckin` event whose rule execs
    // `boom`; the drain panics inside the interpreter.
    assert!(!victim.call(checkin("V", "tick".into())).is_error());
    let resp = victim.call(Request::ProcessAll);
    assert!(
        matches!(resp, Response::Error(ApiError::ProjectPoisoned { ref project }) if project == "victim"),
        "{resp:?}"
    );
    let evictions_after_panic = counters.evictions.load(Ordering::Relaxed);
    assert!(evictions_after_panic >= 1, "poisoning counts as eviction");

    // The bystander on the same worker thread is untouched.
    let resp = bystander.call(Request::ProcessAll);
    assert!(!resp.is_error(), "bystander was poisoned too: {resp:?}");

    // The victim re-activates from its journal on the next request: the
    // durable prefix (the doc check-in) survived the crash.
    let Response::Stat { stat } = victim.call(Request::Stat) else {
        panic!("victim never came back");
    };
    assert!(stat.oids >= 1, "recovered image lost the durable check-in");
    assert!(counters.activations.load(Ordering::Relaxed) >= 3);
}

/// A failed flush fails only that project's acked mutations (the fleet
/// failure table in DESIGN.md): with its journal directory gone, one
/// tenant's check-in gets the journal error while its pipelined read
/// still answers, and a sibling on the same worker commits normally.
#[test]
fn a_failed_flush_fails_only_that_projects_mutations() {
    let root = temp_dir("flush-failure");
    let config = FleetConfig {
        engine_workers: 1,
        // Every flush folds into a checkpoint, which needs the directory.
        checkpoint_every: 1,
        ..FleetConfig::default()
    };
    let registry = ProjectRegistry::open(&root, SIMPLE, config).unwrap();
    let (fleet, _join) = spawn_fleet::<NullExecutor>(registry);
    let a = fleet.session();
    let b = fleet.session();
    assert!(!attach(&a, "a", true).is_error());
    assert!(!attach(&b, "b", true).is_error());
    // Activate both tenants, then take A's journal directory away.
    assert!(matches!(a.call(Request::Stat), Response::Stat { .. }));
    assert!(matches!(b.call(Request::Stat), Response::Stat { .. }));
    std::fs::remove_dir_all(root.join("a")).unwrap();

    let a_checkin = a.submit(checkin("A", "v1".into()));
    let a_stat = a.submit(Request::Stat);
    let b_checkin = b.submit(checkin("B", "v1".into()));
    let resp = a_checkin.recv();
    assert!(
        matches!(resp, Some(Response::Error(ApiError::Journal { .. }))),
        "unflushed mutation was acked: {resp:?}"
    );
    let resp = a_stat.recv();
    assert!(matches!(resp, Some(Response::Stat { .. })), "{resp:?}");
    let resp = b_checkin.recv();
    assert!(matches!(resp, Some(Response::Created { .. })), "{resp:?}");
}

// ---------------------------------------------------------------------
// Acceptance: 100 tenants, 8 slots, one listener
// ---------------------------------------------------------------------

/// The headline scenario: a hundred registered tenants served through
/// eight residency slots over a single TCP listener, client connections
/// interleaving across all of them — every tenant's final image must be
/// byte-identical to a dedicated server, with the LRU cycle provably
/// exercised (counters) along the way.
#[test]
fn hundred_tenants_eight_slots_one_listener() {
    let root = temp_dir("hundred");
    let out = temp_dir("hundred-out");
    const TENANTS: usize = 100;
    const ROUNDS: usize = 2;
    let config = FleetConfig {
        engine_workers: 4,
        max_active: 8,
        ..FleetConfig::default()
    };
    let mut registry = ProjectRegistry::open(&root, SIMPLE, config).unwrap();
    for t in 0..TENANTS {
        assert!(registry.register(&format!("t{t:03}")).unwrap());
    }
    let (fleet, _join) = spawn_fleet::<NullExecutor>(registry);
    let counters = fleet.counters();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let front = fleet.clone();
    std::thread::spawn(move || {
        let _ = serve_with(listener, || front.session(), None);
    });

    let streams: Vec<Vec<Request>> = (0..TENANTS).map(|t| tenant_stream(t, ROUNDS)).collect();
    let depth = streams[0].len();

    // Four connections, each owning a quarter of the tenant roster and
    // re-attaching as it walks its share — all four run concurrently, so
    // the listener multiplexes live traffic for the whole fleet at once.
    let clients: Vec<std::thread::JoinHandle<()>> = (0..4)
        .map(|c| {
            let streams = streams.clone();
            std::thread::spawn(move || {
                let mut wire = RemoteWrapper::connect(addr, format!("client-{c}")).unwrap();
                #[allow(clippy::needless_range_loop)] // step-major interleave
                for step in 0..depth {
                    for t in (0..TENANTS).filter(|t| t % 4 == c) {
                        let resp = wire.attach(format!("t{t:03}"), false).unwrap();
                        assert!(!resp.is_error(), "{resp:?}");
                        let resp = wire.request(&streams[t][step]).unwrap();
                        assert!(!resp.is_error(), "tenant {t} step {step}: {resp:?}");
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    // The LRU cycle ran hard: far more activations than the roster size
    // means tenants were evicted and brought back repeatedly.
    let activations = counters.activations.load(Ordering::Relaxed);
    let evictions = counters.evictions.load(Ordering::Relaxed);
    assert!(
        activations >= TENANTS as u64 + 50,
        "only {activations} activations across {TENANTS} tenants"
    );
    assert!(
        evictions >= 50,
        "only {evictions} evictions with 8 slots for {TENANTS} tenants"
    );

    // The fleet gauges agree with the config.
    let session = fleet.session();
    assert!(!attach(&session, "t000", false).is_error());
    let Response::Stat { stat } = session.call(Request::Stat) else {
        panic!("no stat");
    };
    assert_eq!(stat.resident_projects, TENANTS as u64);
    assert!(stat.active_projects <= 8);
    let Response::Projects { entries } = session.call(Request::ListProjects) else {
        panic!("no listing");
    };
    assert_eq!(entries.len(), TENANTS);
    assert!(entries.iter().filter(|e| e.active).count() <= 8);

    // Byte-identity for every tenant against a dedicated server.
    #[allow(clippy::needless_range_loop)] // `t` names the tenant, not just an index
    for t in 0..TENANTS {
        let name = format!("t{t:03}");
        assert!(!attach(&session, &name, false).is_error());
        let fleet_path = out.join(format!("fleet-{name}.dpr"));
        let resp = session.call(Request::SaveProject {
            path: fleet_path.display().to_string(),
        });
        assert!(matches!(resp, Response::Ok), "{resp:?}");
        let dedicated = dedicated_image(&streams[t], &out.join(format!("solo-{name}.dpr")));
        let via_fleet = std::fs::read_to_string(&fleet_path).unwrap();
        assert_eq!(via_fleet, dedicated, "tenant {name} image diverged");
    }
}

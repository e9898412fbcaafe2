//! Wave lanes through the public server/service surface: the waves of
//! queued events run ahead on shard-disjoint lanes, and the drain loop
//! lands each one before dispatching its wrappers.
//!
//! * worker count never changes results — servers at 1, 2, 4 and 8
//!   workers fed the same activity stream end with byte-identical
//!   persist images and audit counters; with database-writing inline
//!   wrappers, also the same project image, retained audit sequence,
//!   journal bytes and queue (the worker-count differential tests below);
//! * a wrapper dispatch that changes nothing a wave reads keeps the lane
//!   results ahead of it;
//! * a mid-session link that bridges two previously-disjoint components
//!   invalidates the shard map (the generation moves with the database's
//!   topology stamp), merges the groups, and propagation crosses the
//!   bridge correctly on the very next drain;
//! * servers start with every wave inline unless `DAMOCLES_WAVE_WORKERS`
//!   asks for lanes, and `stat` reports the count in force.

use blueprint_core::engine::api::{Request, Response};
use blueprint_core::engine::exec::ToolCtx;
use blueprint_core::engine::service::ProjectService;
use damocles::prelude::*;

/// Two link-disjoint view families (`a_*`, `b_*`) under the usual
/// ckin/outofdate tracking rules: every instance chain is its own shard
/// group, so their waves can run on different lanes.
const TWO_FAMILIES: &str = r#"
    blueprint families
    view default
        property uptodate default true
        when ckin do uptodate = true; post outofdate down done
        when outofdate do uptodate = false done
    endview
    view a_src endview
    view a_der
        link_from a_src move propagates outofdate type derived
    endview
    view b_src endview
    view b_der
        link_from b_src move propagates outofdate type derived
    endview
    endblueprint
"#;

/// Builds the two-family design: `n` independent chains per family.
fn populate(server: &mut ProjectServer<impl ScriptExecutor>, n: usize) -> Vec<(Oid, Oid)> {
    let mut pairs = Vec::new();
    for fam in ["a", "b"] {
        for i in 0..n {
            let src = server
                .checkin(
                    &format!("{fam}{i}"),
                    &format!("{fam}_src"),
                    "t",
                    b"s".to_vec(),
                )
                .unwrap();
            let der = server
                .checkin(
                    &format!("{fam}{i}"),
                    &format!("{fam}_der"),
                    "t",
                    b"d".to_vec(),
                )
                .unwrap();
            server.connect_oids(&src, &der).unwrap();
            pairs.push((src, der));
        }
    }
    pairs
}

#[test]
fn worker_count_never_changes_results() {
    let mut images = Vec::new();
    let mut summaries = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut server = ProjectServer::from_source(TWO_FAMILIES).unwrap();
        server.set_wave_workers(workers);
        let pairs = populate(&mut server, 6);
        server.process_all().unwrap();
        // Re-checkin every source: all derived views must go stale, in
        // one batch that spans both families.
        for (src, _) in &pairs {
            if src.view.as_str().ends_with("_src") {
                server
                    .checkin(src.block.as_str(), src.view.as_str(), "t", b"v2".to_vec())
                    .unwrap();
            }
        }
        let report = server.process_all().unwrap();
        assert!(report.events > 0);
        for (_, der) in &pairs {
            assert_eq!(
                server.prop(der, "uptodate").unwrap(),
                Value::Bool(false),
                "derived {der} stale at workers={workers}"
            );
        }
        images.push(damocles_meta::persist::save(server.db()));
        summaries.push(server.audit().summary());
    }
    for i in 1..images.len() {
        assert_eq!(images[0], images[i], "image differs at worker config {i}");
        assert_eq!(summaries[0], summaries[i], "audit differs at config {i}");
    }
}

#[test]
fn every_instance_chain_occupies_its_own_shard_group() {
    let mut server = ProjectServer::from_source(TWO_FAMILIES).unwrap();
    server.set_wave_workers(4);
    let pairs = populate(&mut server, 2);
    server.process_all().unwrap();
    let map = server.shard_map().clone();
    let ids: Vec<(damocles_meta::OidId, damocles_meta::OidId)> = pairs
        .iter()
        .map(|(src, der)| {
            (
                server.db().resolve(src).unwrap(),
                server.db().resolve(der).unwrap(),
            )
        })
        .collect();
    let db = server.db();
    // Chain-mates share a group; each connect link merged two singletons.
    for (src, der) in &ids {
        assert_eq!(map.group_of(db, *src), map.group_of(db, *der));
    }
    assert_eq!(map.merges(), 4, "one union per chain's connect link");
    // The instance-level win: 4 disjoint chains → 4 execution groups,
    // though they instantiate only 2 view families.
    let groups: std::collections::BTreeSet<_> =
        ids.iter().map(|(src, _)| map.group_of(db, *src)).collect();
    assert_eq!(groups.len(), 4, "disjoint same-view chains must separate");
    assert_eq!(map.group_count(), 4);
}

/// A wrapper tool that, when invoked, relates its origin OID to the
/// latest `b_src` version with a PROPAGATE-carrying link — the
/// mid-session raw bridge between two shard groups.
#[derive(Debug, Default)]
struct BridgeBuilder;

impl ScriptExecutor for BridgeBuilder {
    fn execute(
        &mut self,
        inv: &blueprint_core::engine::exec::ScriptInvocation,
        ctx: &mut ToolCtx<'_>,
    ) -> Vec<EventMessage> {
        let from: Oid = inv.args[0].parse().unwrap();
        let from = ctx.db.resolve(&from).unwrap();
        let to = ctx.latest("b0", "b_src").unwrap();
        ctx.db
            .add_link_with(
                from,
                to,
                damocles_meta::LinkClass::Derive,
                damocles_meta::LinkKind::DeriveFrom,
                ["outofdate"],
            )
            .unwrap();
        Vec::new()
    }
}

#[test]
fn mid_session_bridge_invalidates_shard_map_and_propagates() {
    // The blueprint grows one rule: a `bridge` event makes the tool
    // wire its target into the B family.
    let source = TWO_FAMILIES.replace(
        "view a_der\n        link_from a_src move propagates outofdate type derived\n    endview",
        "view a_der\n        link_from a_src move propagates outofdate type derived\n        when bridge do exec bridger \"$oid\" done\n    endview",
    );
    let bp = parse(&source).unwrap();
    let mut server = ProjectServer::with_executor(bp, BridgeBuilder).unwrap();
    server.set_wave_workers(4);
    populate(&mut server, 2);
    server.process_all().unwrap();
    let gen_before = server.shard_map().generation();
    assert_eq!(
        server.shard_map().group_count(),
        4,
        "4 disjoint chains before the bridge"
    );

    // Mid-session: the tool bridges a0's derived view into b0's source.
    server
        .post_line("postEvent bridge down a0,a_der,1", "t")
        .unwrap();
    server.process_all().unwrap();

    // The raw propagating link must have bumped the shard-map generation
    // and merged the two bridged chains into one execution group —
    // through the incremental delta-log path, not a rebuild.
    let map = server.shard_map().clone();
    assert_ne!(
        map.generation(),
        gen_before,
        "bridge must move the generation"
    );
    assert!(map.merges() >= 5, "bridge must union on top of the chains");
    assert!(
        map.incremental_updates() >= 1,
        "mid-session growth must patch the map in, not rebuild it"
    );
    let a_der = server.db().resolve(&Oid::new("a0", "a_der", 1)).unwrap();
    let b_src = server.db().resolve(&Oid::new("b0", "b_src", 1)).unwrap();
    assert_eq!(
        map.group_of(server.db(), a_der),
        map.group_of(server.db(), b_src),
        "bridged chains share one group"
    );

    // And propagation across the bridge is correct on the next drain: a
    // fresh a0 source version invalidates b0's source+derived chain too.
    server.checkin("a0", "a_src", "t", b"v2".to_vec()).unwrap();
    server.process_all().unwrap();
    for oid in [
        Oid::new("a0", "a_der", 1),
        Oid::new("b0", "b_src", 1),
        Oid::new("b0", "b_der", 1),
    ] {
        assert_eq!(
            server.prop(&oid, "uptodate").unwrap(),
            Value::Bool(false),
            "{oid} must be invalidated through the mid-session bridge"
        );
    }
}

/// Regression (ISSUE 10 satellite): mid-session PROPAGATE growth and a
/// link repoint are absorbed by the **incremental** per-OID union-find —
/// [`ShardMap::try_update`] patches the cached map from the database's
/// topology delta log instead of rebuilding — and a late bridge link
/// still merges groups correctly. Only severing forces a rebuild.
#[test]
fn propagate_growth_and_repoint_update_union_find_incrementally() {
    use blueprint_core::engine::compile::{CompiledBlueprint, ShardMap};
    use damocles_meta::{LinkClass, LinkKind, MetaDb};

    let bp = parse(TWO_FAMILIES).unwrap();
    let compiled = CompiledBlueprint::compile(&bp);
    let mut db = MetaDb::new();
    let a_src = db.create_oid(Oid::new("a0", "a_src", 1)).unwrap();
    let a_der = db.create_oid(Oid::new("a0", "a_der", 1)).unwrap();
    let b_src = db.create_oid(Oid::new("b0", "b_src", 1)).unwrap();
    let b_der = db.create_oid(Oid::new("b0", "b_der", 1)).unwrap();
    db.add_link_with(
        a_src,
        a_der,
        LinkClass::Derive,
        LinkKind::DeriveFrom,
        ["outofdate"],
    )
    .unwrap();
    let b_link = db
        .add_link_with(
            b_src,
            b_der,
            LinkClass::Derive,
            LinkKind::DeriveFrom,
            ["outofdate"],
        )
        .unwrap();
    let mut map = ShardMap::build(&compiled, &db);
    assert_eq!(map.group_count(), 2, "two disjoint chains");
    assert_eq!(map.incremental_updates(), 0);

    // PROPAGATE growth: a quiet link starts carrying an event — the
    // update is an incremental union, not a rebuild.
    let quiet = db
        .add_link(a_der, b_src, LinkClass::Derive, LinkKind::DeriveFrom)
        .unwrap();
    assert!(map.try_update(&compiled, &db));
    assert_eq!(map.incremental_updates(), 1, "quiet link absorbed");
    assert_ne!(
        map.group_of(&db, a_der),
        map.group_of(&db, b_src),
        "a link carrying nothing must not merge"
    );
    db.allow_event(quiet, "outofdate").unwrap();
    assert!(!map.is_current(&compiled, &db));
    assert!(
        map.try_update(&compiled, &db),
        "PROPAGATE growth is a pure union"
    );
    assert_eq!(map.incremental_updates(), 2);
    assert_eq!(
        map.group_of(&db, a_src),
        map.group_of(&db, b_der),
        "the grown link merges the two chains end to end"
    );

    // Link repoint: moving an end is a bridge to the new endpoint (the
    // old attachment is over-approximated as still merged until the next
    // rebuild — never under-approximated, so waves stay safe).
    let late = db.create_oid(Oid::new("c0", "b_der", 1)).unwrap();
    db.move_link_end(b_link, b_der, late).unwrap();
    assert!(map.try_update(&compiled, &db), "repoint patches in");
    assert_eq!(map.incremental_updates(), 3);
    assert_eq!(
        map.group_of(&db, b_src),
        map.group_of(&db, late),
        "the repointed link's new endpoint joins the group"
    );

    // Severing cannot be patched into a union-find: rebuild required.
    db.remove_link(quiet).unwrap();
    assert!(!map.try_update(&compiled, &db), "sever forces a rebuild");
    let rebuilt = ShardMap::build(&compiled, &db);
    assert_eq!(rebuilt.incremental_updates(), 0);
    assert_ne!(
        rebuilt.group_of(&db, a_src),
        rebuilt.group_of(&db, b_src),
        "the rebuilt map separates the un-bridged chains again"
    );
}

/// Lanes are opt-in, and `DAMOCLES_WAVE_WORKERS` is the one way to ask
/// for them: a fresh server, and a fresh service's `stat`, report the
/// variable's count when it parses (floored at 1) and 1, every wave
/// inline, when it does not. CI runs this at `=1` and at `=4`; a bare
/// run pins the inline default on any host, however many cores it has.
#[test]
fn servers_start_at_the_environment_wave_worker_count() {
    let expected = std::env::var("DAMOCLES_WAVE_WORKERS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .map_or(1, |n| n.max(1));
    let server = ProjectServer::from_source(TWO_FAMILIES).unwrap();
    assert_eq!(server.wave_workers(), expected);
    let mut svc: ProjectService = ProjectService::new();
    assert!(matches!(
        svc.call(Request::Init {
            source: TWO_FAMILIES.to_string()
        }),
        Response::Blueprint { .. }
    ));
    match svc.call(Request::Stat) {
        Response::Stat { stat } => assert_eq!(stat.wave_workers, expected as u64),
        other => panic!("{other:?}"),
    }
}

/// Error-path parity with the sequential loop: when a later event in the
/// batch errors, the earlier events' wrapper invocations still dispatch,
/// and the events after the error stay queued.
#[test]
fn batch_error_still_dispatches_prefix_invocations() {
    let source = TWO_FAMILIES.replace(
        "view a_src endview",
        "view a_src\n        when probe do exec checker \"$oid\" done\n    endview",
    );
    let run = |workers: usize| {
        let bp = parse(&source).unwrap();
        let mut server = ProjectServer::with_executor(bp, RecordingExecutor::new()).unwrap();
        server.set_wave_workers(workers);
        populate(&mut server, 2);
        server.process_all().unwrap();
        // Strict policy: an event at an unknown view is a hard error.
        server.policy_mut().unknown_views = blueprint_core::engine::policy::Strictness::Reject;
        server
            .create_object(Oid::new("ghost", "mystery", 1))
            .unwrap();
        // Batch: [exec-producing probe, erroring event, never-reached probe].
        server
            .post_line("postEvent probe up a0,a_src,1", "t")
            .unwrap();
        server
            .post_line("postEvent boom up ghost,mystery,1", "t")
            .unwrap();
        server
            .post_line("postEvent probe up a1,a_src,1", "t")
            .unwrap();
        let err = server.process_all().unwrap_err();
        assert!(
            matches!(err, EngineError::Policy(_)),
            "expected the policy violation, got {err:?}"
        );
        let invoked: Vec<String> = server
            .executor()
            .invocations_of("checker")
            .iter()
            .map(|i| i.args[0].clone())
            .collect();
        // The event the error preceded stays queued, untouched.
        (invoked, server.pending_events())
    };
    let sequential = run(1);
    let sharded = run(4);
    assert_eq!(sequential.0, vec!["a0,a_src,1".to_string()]);
    assert_eq!(sequential, sharded, "error-path divergence between modes");
    assert_eq!(sharded.1, 1, "the unreached event must be requeued");
}

/// The worker counts every differential test below compares.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The automated flow of `tests/tooling.rs`: every checkin drives inline
/// tool runs that write the database and post events back.
const AUTOMATED: &str = r#"
blueprint automated
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
    let state = ($drc_result == good) and ($lvs_result == is_equiv) and ($uptodate == true)
    link_from schematic move propagates lvs, outofdate type equivalence
    when drc do drc_result = $arg done
    when lvs do lvs_result = $arg done
    when ckin do exec drc "$oid"; exec lvs "$oid" done
endview
endblueprint
"#;

/// An [`AUTOMATED`] server with the standard inline tools at `workers`
/// wave workers, after the first flow: the CPU model (with a REG
/// submodule) checked in and drained.
fn automated_after_first_flow(workers: usize, audit: bool) -> ProjectServer<ToolExecutor> {
    let bp = parse(AUTOMATED).unwrap();
    let mut server =
        ProjectServer::with_executor(bp, ToolExecutor::standard(FaultPlan::never())).unwrap();
    if audit {
        server = server.with_audit_retention();
    }
    server.set_wave_workers(workers);
    let hdl = damocles::tools::design_data::hdl_source("CPU", 1, &["REG"], false);
    server.checkin("CPU", "HDL_model", "yves", hdl).unwrap();
    server.process_all().unwrap();
    server
}

/// Checks in a model in a block no link reaches, so the batch spans at
/// least two shard groups and the lanes run.
fn checkin_unlinked_block(server: &mut ProjectServer<ToolExecutor>) {
    let hdl = damocles::tools::design_data::hdl_source("ALU", 1, &[], false);
    server.checkin("ALU", "HDL_model", "yves", hdl).unwrap();
}

/// Asserts every entry equals the one-worker entry.
fn assert_worker_count_invariant<T: PartialEq + std::fmt::Debug>(what: &str, seen: &[T]) {
    for (workers, other) in WORKER_COUNTS.iter().zip(seen).skip(1) {
        assert_eq!(&seen[0], other, "{what} differs at {workers} workers");
    }
}

/// (a) A wrapper that writes the database runs before the next event's
/// wave reads it: the netlister of a schematic checkin moves the netlist
/// link to a new version before a queued `nl_sim` propagates over it.
/// The `nl_sim` wave a lane ran ahead saw the old link, so the dispatch
/// must void it.
#[test]
fn worker_count_never_changes_the_project_image() {
    let images: Vec<String> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let mut server = automated_after_first_flow(workers, false);
            server
                .checkin("CPU", "schematic", "yves", b"cell CPU v2".to_vec())
                .unwrap();
            server
                .post_line("postEvent nl_sim down CPU,schematic,2 \"late\"", "t")
                .unwrap();
            checkin_unlinked_block(&mut server);
            server.process_all().unwrap();
            damocles_meta::persist::save_project(server.db(), server.workspace())
        })
        .collect();
    assert_worker_count_invariant("project image", &images);
}

/// (b) The retained audit sequence: each event's wrappers, and the events
/// they post, land between it and the next event's wave.
#[test]
fn worker_count_never_changes_the_retained_audit_sequence() {
    let trails: Vec<Vec<String>> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let mut server = automated_after_first_flow(workers, true);
            for target in ["CPU,schematic,1", "REG,schematic,1"] {
                server
                    .post_line(&format!("postEvent ckin up {target}"), "t")
                    .unwrap();
            }
            checkin_unlinked_block(&mut server);
            server.process_all().unwrap();
            server
                .audit()
                .records()
                .iter()
                .map(|r| format!("{r:?}"))
                .collect()
        })
        .collect();
    assert!(!trails[0].is_empty());
    assert_worker_count_invariant("audit trail", &trails);
}

/// (c) The journal: each event's `evdone` and wrapper records follow its
/// own property writes, before the next event's.
#[test]
fn worker_count_never_changes_the_journal_bytes() {
    let journals: Vec<String> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let dir = std::env::temp_dir().join(format!("damocles-sharded-journal-{workers}"));
            let _ = std::fs::remove_dir_all(&dir);
            let bp = parse(AUTOMATED).unwrap();
            let mut server = ProjectServer::with_executor(bp, RecordingExecutor::new()).unwrap();
            server.set_wave_workers(workers);
            server.enable_journal(&dir, 1_000_000).unwrap();
            for block in ["CPU", "REG", "ALU", "FPU"] {
                server
                    .checkin(block, "HDL_model", "yves", block.as_bytes().to_vec())
                    .unwrap();
            }
            server.process_all().unwrap();
            drop(server);
            let journal = std::fs::read_to_string(dir.join("journal.djl")).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            journal
        })
        .collect();
    assert_worker_count_invariant("journal", &journals);
}

/// A wrapper that removes the `flag` property of the OID its argument
/// names, and changes nothing else.
#[derive(Debug, Default)]
struct FlagStripper;

impl ScriptExecutor for FlagStripper {
    fn execute(
        &mut self,
        inv: &blueprint_core::engine::exec::ScriptInvocation,
        ctx: &mut ToolCtx<'_>,
    ) -> Vec<EventMessage> {
        let target: Oid = inv.args[0].parse().unwrap();
        let id = ctx.db.resolve(&target).unwrap();
        ctx.db.remove_prop(id, "flag").unwrap();
        Vec::new()
    }
}

/// (d) A property removal is a change a later wave reads: the lane that
/// ran the reading event ahead saw the property, so its result must not
/// land.
#[test]
fn a_wrapper_removing_a_property_voids_the_lanes_ahead() {
    const STRIP: &str = r#"
        blueprint strip
        view v
            property flag default raised
            when strip do exec stripper "$arg" done
            when read do seen = $flag done
        endview
        endblueprint
    "#;
    let images: Vec<String> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let bp = parse(STRIP).unwrap();
            let mut server = ProjectServer::with_executor(bp, FlagStripper).unwrap();
            server.set_wave_workers(workers);
            for block in ["a", "b"] {
                server.create_object(Oid::new(block, "v", 1)).unwrap();
            }
            server
                .post_line("postEvent strip up a,v,1 \"b,v,1\"", "t")
                .unwrap();
            server.post_line("postEvent read up b,v,1", "t").unwrap();
            server.process_all().unwrap();
            let (a, b) = (Oid::new("a", "v", 1), Oid::new("b", "v", 1));
            assert_eq!(server.prop(&b, "flag"), None, "workers={workers}");
            assert_ne!(
                server.prop(&b, "seen"),
                server.prop(&a, "flag"),
                "the read ran before the removal at workers={workers}"
            );
            damocles_meta::persist::save(server.db())
        })
        .collect();
    assert_worker_count_invariant("image", &images);
}

/// (e) With [`NullExecutor`](blueprint_core::engine::exec::NullExecutor)
/// a dispatch changes nothing, so an exec storm keeps every lane result:
/// each wave of the storm's drain ran on a lane.
#[test]
fn dispatches_that_change_nothing_keep_the_lanes() {
    use blueprint_core::engine::trace::TraceRecord;
    let source = TWO_FAMILIES.replace(
        "view a_src endview",
        "view a_src\n        when probe do exec checker \"$oid\"; exec linter \"$oid\" done\n    endview",
    );
    for workers in [2usize, 4, 8] {
        let mut server = ProjectServer::from_source(&source).unwrap();
        server.set_wave_workers(workers);
        populate(&mut server, 6);
        server.process_all().unwrap();
        server.set_trace_retention(true);
        for i in 0..6 {
            server
                .post_line(&format!("postEvent probe up a{i},a_src,1"), "t")
                .unwrap();
        }
        let report = server.process_all().unwrap();
        assert_eq!((report.events, report.scripts), (6, 12));
        let lanes: Vec<Option<u64>> = server
            .take_trace()
            .into_iter()
            .filter_map(|record| match record {
                TraceRecord::Begin { lane, .. } => Some(lane),
                _ => None,
            })
            .collect();
        assert_eq!(lanes.len(), 6);
        assert!(
            lanes.iter().all(Option::is_some),
            "an inline wave at workers={workers}: {lanes:?}"
        );
    }
}

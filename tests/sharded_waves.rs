//! The drain loop and the shard-map analysis through the public server
//! surface:
//!
//! * a wave error ends the drain: the wrappers of the events before it
//!   have dispatched, and the events after it stay queued;
//! * a wrapper dispatch lands before the next event's wave, which sees
//!   what the wrapper changed (here, a property it removed);
//! * [`ShardMap`](blueprint_core::engine::compile::ShardMap) puts every
//!   disjoint instance chain of the same views in its own group;
//! * a mid-session link that bridges two previously-disjoint components
//!   moves the shard-map generation and merges the groups through the
//!   incremental union-find, and propagation crosses the bridge on the
//!   very next drain; PROPAGATE growth and link repoints patch in, and
//!   only severing forces a rebuild.

use blueprint_core::engine::exec::ToolCtx;
use damocles::prelude::*;

/// Two link-disjoint view families (`a_*`, `b_*`) under the usual
/// ckin/outofdate tracking rules: every instance chain is its own shard
/// group.
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
fn every_instance_chain_occupies_its_own_shard_group() {
    let mut server = ProjectServer::from_source(TWO_FAMILIES).unwrap();
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

/// When a queued event's wave errors, the events before it have already
/// dispatched their wrappers, and the events after it stay queued.
#[test]
fn a_wave_error_keeps_earlier_dispatches_and_later_events_queued() {
    let source = TWO_FAMILIES.replace(
        "view a_src endview",
        "view a_src\n        when probe do exec checker \"$oid\" done\n    endview",
    );
    let bp = parse(&source).unwrap();
    let mut server = ProjectServer::with_executor(bp, RecordingExecutor::new()).unwrap();
    populate(&mut server, 2);
    server.process_all().unwrap();
    // Strict policy: an event at an unknown view is a hard error.
    server.policy_mut().unknown_views = blueprint_core::engine::policy::Strictness::Reject;
    server
        .create_object(Oid::new("ghost", "mystery", 1))
        .unwrap();
    // Queue: [exec-producing probe, erroring event, never-reached probe].
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
    assert_eq!(invoked, vec!["a0,a_src,1".to_string()]);
    assert_eq!(
        server.pending_events(),
        1,
        "the unreached event stays queued"
    );
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

/// A wrapper's property removal lands before the next queued event's
/// wave, which reads the property.
#[test]
fn the_next_wave_sees_a_wrappers_property_removal() {
    const STRIP: &str = r#"
        blueprint strip
        view v
            property flag default raised
            when strip do exec stripper "$arg" done
            when read do seen = $flag done
        endview
        endblueprint
    "#;
    let bp = parse(STRIP).unwrap();
    let mut server = ProjectServer::with_executor(bp, FlagStripper).unwrap();
    for block in ["a", "b"] {
        server.create_object(Oid::new(block, "v", 1)).unwrap();
    }
    server
        .post_line("postEvent strip up a,v,1 \"b,v,1\"", "t")
        .unwrap();
    server.post_line("postEvent read up b,v,1", "t").unwrap();
    server.process_all().unwrap();
    let (a, b) = (Oid::new("a", "v", 1), Oid::new("b", "v", 1));
    assert_eq!(server.prop(&b, "flag"), None);
    assert_ne!(
        server.prop(&b, "seen"),
        server.prop(&a, "flag"),
        "the read ran before the removal"
    );
}

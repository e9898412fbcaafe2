//! Differential property tests of the engine's execution modes.
//!
//! 1. The compiled dispatch path must be observationally identical to the
//!    seed's AST-walking path.
//! 2. Waves run ahead on lanes ([`RuntimeEngine::run_lanes`]) and landed
//!    in batch order ([`RuntimeEngine::apply_lane_run`]) must be
//!    observationally identical to sequential compiled execution at
//!    **every** worker count (`n ∈ {1, 2, 4, 8}`).
//!
//! For randomized blueprints, design graphs and event streams, the paths
//! are run side by side on cloned databases and held to the same
//! [`ProcessOutcome`] (delivered count and script invocations), the same
//! retained audit-record sequence, the same journal bytes (the batch
//! [`MetaDb::drain_journal`] hands the writer), the same final
//! database image (`damocles_meta::persist::save`) and, on the lane
//! cases, the same [`MetaDb::stats`] and secondary index (which the
//! image does not hold). The random graphs link OIDs of any views with
//! raw links, and a dedicated case runs disjoint instance chains of one
//! view family, some welded by raw bridge links, so both merged and
//! split [`ShardMap`] groups are exercised.

use blueprint_core::engine::audit::AuditLog;
use blueprint_core::engine::compile::{CompiledBlueprint, ShardMap};
use blueprint_core::engine::event::QueuedEvent;
use blueprint_core::engine::policy::Policy;
use blueprint_core::engine::runtime::RuntimeEngine;
use blueprint_core::engine::trace::TraceLog;
use blueprint_core::lang::ast::{
    Action, Blueprint, Expr, LetDef, LinkDef, LinkSource, PropertyDef, RuleDef, Template, Transfer,
    ViewDef,
};
use blueprint_core::lang::diag::Span;
use damocles_meta::{persist, Direction, LinkClass, LinkKind, MetaDb, Oid, OidId, Value};
use proptest::prelude::*;

const VIEWS: &[&str] = &["alpha", "beta", "gamma", "delta"];
const EVENTS: &[&str] = &["ckin", "ev0", "ev1", "ev2", "mystery"];
const PROPS: &[&str] = &["p0", "p1", "state"];

fn view_name() -> impl Strategy<Value = String> {
    (0usize..VIEWS.len()).prop_map(|i| VIEWS[i].to_string())
}

fn event_name() -> impl Strategy<Value = String> {
    (0usize..EVENTS.len()).prop_map(|i| EVENTS[i].to_string())
}

fn prop_name() -> impl Strategy<Value = String> {
    (0usize..PROPS.len()).prop_map(|i| PROPS[i].to_string())
}

fn direction() -> impl Strategy<Value = Direction> {
    prop_oneof![Just(Direction::Up), Just(Direction::Down)]
}

fn template() -> impl Strategy<Value = Template> {
    prop_oneof![
        "[a-z]{1,6}".prop_map(Template::lit),
        prop_name().prop_map(Template::var),
        Just(Template::var("arg")),
        Just(Template::var("oid")),
        Just(Template::parse_interpolated("$event by $user")),
    ]
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (prop_name(), template()).prop_map(|(prop, value)| Action::Assign { prop, value }),
        (template(), proptest::collection::vec(template(), 0..2))
            .prop_map(|(script, args)| Action::Exec { script, args }),
        template().prop_map(|message| Action::Notify { message }),
        (
            event_name(),
            direction(),
            proptest::option::of(view_name()),
            proptest::collection::vec(template(), 0..2),
        )
            .prop_map(|(event, direction, to_view, args)| Action::Post {
                event,
                direction,
                to_view,
                args,
            }),
    ]
}

fn rule() -> impl Strategy<Value = RuleDef> {
    (event_name(), proptest::collection::vec(action(), 1..4)).prop_map(|(event, actions)| RuleDef {
        event,
        actions,
        span: Span::default(),
    })
}

fn view_def(name: String) -> impl Strategy<Value = ViewDef> {
    (
        proptest::collection::vec(rule(), 0..3),
        proptest::collection::vec((prop_name(), "[a-z]{1,4}"), 0..2),
        proptest::option::of(prop_name()),
    )
        .prop_map(move |(rules, props, let_prop)| {
            let mut v = ViewDef::empty(name.clone());
            for (pname, default) in props {
                if v.properties.iter().all(|p| p.name != pname) {
                    v.properties.push(PropertyDef {
                        name: pname,
                        default,
                        transfer: Transfer::Create,
                        span: Span::default(),
                    });
                }
            }
            if let Some(p) = let_prop {
                v.lets.push(LetDef {
                    name: "derived".to_string(),
                    expr: Expr::Eq(
                        Box::new(Expr::Var(p)),
                        Box::new(Expr::Atom("true".to_string())),
                    ),
                    span: Span::default(),
                });
            }
            v.rules = rules;
            v
        })
}

/// A blueprint over a random subset of the view pool, optionally with a
/// `default` view, plus link templates (unused by the engines directly but
/// realistic for compilation).
fn blueprint() -> impl Strategy<Value = Blueprint> {
    (any::<bool>(), 2usize..5)
        .prop_flat_map(|(with_default, n_views)| {
            let mut names: Vec<String> = VIEWS[..n_views.min(VIEWS.len())]
                .iter()
                .map(|s| s.to_string())
                .collect();
            if with_default {
                names.insert(0, "default".to_string());
            }
            names.into_iter().map(view_def).collect::<Vec<_>>()
        })
        .prop_map(|mut views| {
            // Give one view a link template so compilation sees PROPAGATE sets.
            if views.len() > 1 {
                let link = LinkDef {
                    source: LinkSource::View(views[0].name.clone()),
                    transfer: Transfer::Move,
                    propagates: vec!["ev0".to_string(), "ckin".to_string()],
                    kind: Some("derived".to_string()),
                    span: Span::default(),
                };
                let last = views.len() - 1;
                views[last].links.push(link);
            }
            Blueprint {
                name: "difftest".to_string(),
                views,
                span: Span::default(),
            }
        })
}

/// A design graph: OIDs spread over the view pool (plus an undeclared
/// "ghost" view), and links with random PROPAGATE subsets.
#[derive(Debug, Clone)]
struct GraphSpec {
    oids: Vec<usize>,                  // index into VIEWS + ghost slot
    links: Vec<(usize, usize, usize)>, // from, to, propagate mask
}

fn graph() -> impl Strategy<Value = GraphSpec> {
    (
        proptest::collection::vec(0usize..VIEWS.len() + 1, 2..8),
        proptest::collection::vec((0usize..8, 0usize..8, 0usize..32), 0..12),
    )
        .prop_map(|(oids, links)| GraphSpec { oids, links })
}

fn build_db(spec: &GraphSpec) -> (MetaDb, Vec<OidId>) {
    let mut db = MetaDb::new();
    let mut ids = Vec::new();
    for (i, &view_idx) in spec.oids.iter().enumerate() {
        let view = if view_idx < VIEWS.len() {
            VIEWS[view_idx]
        } else {
            "ghost"
        };
        let id = db
            .create_oid(Oid::new(format!("blk{i}"), view, 1))
            .expect("fresh oid");
        ids.push(id);
    }
    for &(from, to, mask) in &spec.links {
        let (from, to) = (from % ids.len(), to % ids.len());
        if from == to {
            continue;
        }
        let propagates: Vec<String> = EVENTS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, e)| e.to_string())
            .collect();
        db.add_link_with(
            ids[from],
            ids[to],
            LinkClass::Derive,
            LinkKind::DeriveFrom,
            propagates,
        )
        .expect("link endpoints live");
    }
    (db, ids)
}

/// One queued event: (event index, direction, target oid index, arg).
type EventSpec = (usize, bool, usize, String);

fn events() -> impl Strategy<Value = Vec<EventSpec>> {
    proptest::collection::vec(
        (0usize..EVENTS.len(), any::<bool>(), 0usize..8, "[a-z]{0,4}"),
        1..6,
    )
}

/// A fixed two-view blueprint for the instance-chain cases: both chain
/// views carry write-heavy rules so every delivery produces prop writes
/// that landing a lane run must replay exactly like sequential.
fn chain_blueprint() -> Blueprint {
    let mut alpha = ViewDef::empty("alpha".to_string());
    alpha.rules.push(RuleDef {
        event: "ev0".to_string(),
        actions: vec![
            Action::Assign {
                prop: "p0".to_string(),
                value: Template::var("arg"),
            },
            Action::Assign {
                prop: "state".to_string(),
                value: Template::parse_interpolated("$event by $user"),
            },
        ],
        span: Span::default(),
    });
    alpha.rules.push(RuleDef {
        event: "ckin".to_string(),
        actions: vec![Action::Assign {
            prop: "state".to_string(),
            value: Template::lit("fresh"),
        }],
        span: Span::default(),
    });
    let mut beta = ViewDef::empty("beta".to_string());
    beta.rules.push(RuleDef {
        event: "ev0".to_string(),
        actions: vec![
            Action::Assign {
                prop: "p1".to_string(),
                value: Template::var("arg"),
            },
            Action::Notify {
                message: Template::parse_interpolated("chain hit $oid"),
            },
        ],
        span: Span::default(),
    });
    Blueprint {
        name: "chaintest".to_string(),
        views: vec![alpha, beta],
        span: Span::default(),
    }
}

/// Builds `chains` disjoint instance chains of `length` OIDs each, all
/// drawn from the same alpha/beta view family, linked along the chain
/// with PROPAGATE ev0+ckin, plus raw bridge links (tail of chain `a` to
/// head of chain `b`) for each requested bridge pair.
fn build_chains(
    chains: usize,
    length: usize,
    bridges: &[(usize, usize)],
) -> (MetaDb, Vec<OidId>, Vec<Vec<OidId>>) {
    let mut db = MetaDb::new();
    let mut all = Vec::new();
    let mut per_chain = Vec::new();
    for c in 0..chains {
        let mut ids = Vec::new();
        for i in 0..length {
            let view = if i % 2 == 0 { "alpha" } else { "beta" };
            let id = db
                .create_oid(Oid::new(format!("c{c}n{i}"), view, 1))
                .expect("fresh oid");
            ids.push(id);
            all.push(id);
        }
        for pair in ids.windows(2) {
            db.add_link_with(
                pair[0],
                pair[1],
                LinkClass::Derive,
                LinkKind::DeriveFrom,
                vec!["ev0".to_string(), "ckin".to_string()],
            )
            .expect("chain endpoints live");
        }
        per_chain.push(ids);
    }
    for &(a, b) in bridges {
        let (a, b) = (a % chains, b % chains);
        if a == b {
            continue;
        }
        db.add_link_with(
            per_chain[a][length - 1],
            per_chain[b][0],
            LinkClass::Derive,
            LinkKind::DeriveFrom,
            vec!["ev0".to_string()],
        )
        .expect("bridge endpoints live");
    }
    (db, all, per_chain)
}

/// Per-event observation: delivered count and debug-rendered invocations.
type Observation = (u64, Vec<String>);
/// Full-stream observation: per-event outcomes, final db image, audit trail.
type StreamObservation = (Vec<Observation>, String, Vec<String>);

/// `db`'s secondary index probed at every `(prop, value)` pair the
/// `reference` image holds: `where_prop_eq`'s answer for each. The index
/// is not in the persisted image, so the image check cannot see it.
fn index_view(reference: &MetaDb, db: &MetaDb) -> Vec<(String, Value, Vec<OidId>)> {
    let pairs: std::collections::BTreeSet<(String, Value)> = reference
        .iter_oids()
        .flat_map(|(_, entry)| entry.props.iter())
        .map(|(name, value)| (name.to_string(), value.clone()))
        .collect();
    pairs
        .into_iter()
        .map(|(name, value)| {
            let ids = db.where_prop_eq(&name, &value);
            (name, value, ids)
        })
        .collect()
}

/// Runs `events` as the drain loop does above one worker: the lanes run
/// every wave ahead, then each event in order lands its lane run, or runs
/// inline when it has none. Checks that the lanes ran every event when the
/// batch spans two or more shard groups.
fn run_batch(
    engine: &mut RuntimeEngine,
    compiled: &CompiledBlueprint,
    db: &mut MetaDb,
    audit: &mut AuditLog,
    events: Vec<QueuedEvent>,
    workers: usize,
) -> Vec<Observation> {
    let shards = ShardMap::build(compiled, db);
    let groups: std::collections::BTreeSet<_> = events
        .iter()
        .map(|ev| shards.group_of(db, ev.delivery.anchor()))
        .collect();
    let mut trace = TraceLog::disabled();
    let runs = engine.run_lanes(compiled, &shards, db, audit, &trace, &events, workers);
    assert_eq!(runs.len(), events.len());
    if workers > 1 && groups.len() > 1 {
        assert!(
            runs.iter().all(Option::is_some),
            "lenient policy: every wave ran ahead"
        );
    }
    events
        .into_iter()
        .zip(runs)
        .map(|(ev, run)| {
            let out = match run {
                Some(run) => engine.apply_lane_run(db, audit, &mut trace, run),
                None => engine.process_compiled(compiled, db, audit, ev),
            }
            .expect("lenient policy");
            (
                out.delivered,
                out.invocations.iter().map(|i| format!("{i:?}")).collect(),
            )
        })
        .collect()
}

fn run_stream(
    process: impl Fn(&mut RuntimeEngine, &mut MetaDb, &mut AuditLog, QueuedEvent) -> Observation,
    db: &mut MetaDb,
    ids: &[OidId],
    stream: &[EventSpec],
    policy: &Policy,
) -> StreamObservation {
    let mut engine = RuntimeEngine::new(policy.clone());
    let mut audit = AuditLog::retaining();
    let mut outcomes = Vec::new();
    for (event_idx, up, target, arg) in stream {
        let dir = if *up { Direction::Up } else { Direction::Down };
        let id = ids[target % ids.len()];
        let ev = QueuedEvent::target(EVENTS[*event_idx], dir, id, "difftest").with_arg(arg.clone());
        outcomes.push(process(&mut engine, db, &mut audit, ev));
    }
    let records: Vec<String> = audit.records().iter().map(|r| format!("{r:?}")).collect();
    (outcomes, persist::save(db), records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both dispatch paths produce identical outcomes, audit sequences and
    /// database state on randomized blueprints, graphs and event streams.
    #[test]
    fn compiled_path_matches_ast_path(
        bp in blueprint(),
        spec in graph(),
        stream in events(),
        shallow in any::<bool>(),
    ) {
        let policy = Policy {
            // Exercise depth truncation on some cases.
            max_post_depth: if shallow { 1 } else { 64 },
            ..Policy::default()
        };

        let (mut db_ast, ids) = build_db(&spec);
        let mut db_compiled = db_ast.clone();
        let compiled = CompiledBlueprint::compile(&bp);

        let (ast_outcomes, ast_image, ast_records) = run_stream(
            |engine, db, audit, ev| {
                let out = engine.process(&bp, db, audit, ev).expect("lenient policy");
                (
                    out.delivered,
                    out.invocations.iter().map(|i| format!("{i:?}")).collect(),
                )
            },
            &mut db_ast,
            &ids,
            &stream,
            &policy,
        );
        let (compiled_outcomes, compiled_image, compiled_records) = run_stream(
            |engine, db, audit, ev| {
                let out = engine
                    .process_compiled(&compiled, db, audit, ev)
                    .expect("lenient policy");
                (
                    out.delivered,
                    out.invocations.iter().map(|i| format!("{i:?}")).collect(),
                )
            },
            &mut db_compiled,
            &ids,
            &stream,
            &policy,
        );

        prop_assert_eq!(ast_outcomes, compiled_outcomes);
        prop_assert_eq!(ast_records, compiled_records);
        prop_assert_eq!(ast_image, compiled_image);
    }

    /// Waves run ahead on lanes and landed in batch order match
    /// sequential compiled execution — outcomes, merged audit-record
    /// sequence, journal bytes, persisted database image, counters and
    /// secondary index — at every worker count.
    #[test]
    fn sharded_batches_match_sequential_at_any_worker_count(
        bp in blueprint(),
        spec in graph(),
        stream in events(),
        shallow in any::<bool>(),
    ) {
        let policy = Policy {
            max_post_depth: if shallow { 1 } else { 64 },
            ..Policy::default()
        };
        let compiled = CompiledBlueprint::compile(&bp);
        let (mut db_seq, ids) = build_db(&spec);
        db_seq.attach_journal(0);

        // Sequential reference: one process_compiled call per event.
        let (seq_outcomes, seq_image, seq_records) = run_stream(
            |engine, db, audit, ev| {
                let out = engine
                    .process_compiled(&compiled, db, audit, ev)
                    .expect("lenient policy");
                (
                    out.delivered,
                    out.invocations.iter().map(|i| format!("{i:?}")).collect(),
                )
            },
            &mut db_seq,
            &ids,
            &stream,
            &policy,
        );
        let seq_journal = db_seq.drain_journal();
        let seq_index = index_view(&db_seq, &db_seq);

        for workers in [1usize, 2, 4, 8] {
            let (mut db, ids) = build_db(&spec);
            db.attach_journal(0);
            let mut engine = RuntimeEngine::new(policy.clone());
            let mut audit = AuditLog::retaining();
            let events: Vec<QueuedEvent> = stream
                .iter()
                .map(|(event_idx, up, target, arg)| {
                    let dir = if *up { Direction::Up } else { Direction::Down };
                    let id = ids[target % ids.len()];
                    QueuedEvent::target(EVENTS[*event_idx], dir, id, "difftest")
                        .with_arg(arg.clone())
                })
                .collect();
            let outcomes =
                run_batch(&mut engine, &compiled, &mut db, &mut audit, events, workers);
            let records: Vec<String> =
                audit.records().iter().map(|r| format!("{r:?}")).collect();
            let journal = db.drain_journal();
            prop_assert_eq!(&outcomes, &seq_outcomes, "workers={}", workers);
            prop_assert_eq!(&records, &seq_records, "workers={}", workers);
            prop_assert_eq!(journal.as_str(), seq_journal.as_str(), "workers={}", workers);
            prop_assert_eq!(db.stats(), db_seq.stats(), "workers={}", workers);
            prop_assert_eq!(&index_view(&db_seq, &db), &seq_index, "workers={}", workers);
            prop_assert_eq!(&persist::save(&db), &seq_image, "workers={}", workers);
        }
    }

    /// Disjoint instance chains of a *single* view family must land in
    /// distinct per-OID shard groups, and — with random raw bridge links
    /// welding some chains together — the lanes must still match
    /// sequential execution byte-for-byte at every worker count,
    /// including the journal bytes, counters and secondary index.
    #[test]
    fn same_view_instance_chains_shard_apart_and_match_sequential(
        chains in 2usize..5,
        length in 2usize..5,
        bridges in proptest::collection::vec((0usize..4, 0usize..4), 0..3),
        stream in events(),
    ) {
        let bp = chain_blueprint();
        let policy = Policy::default();
        let compiled = CompiledBlueprint::compile(&bp);

        let (db_probe, _, per_chain) = build_chains(chains, length, &bridges);
        let effective: Vec<(usize, usize)> = bridges
            .iter()
            .map(|&(a, b)| (a % chains, b % chains))
            .filter(|(a, b)| a != b)
            .collect();
        let shards = ShardMap::build(&compiled, &db_probe);
        if effective.is_empty() {
            // No bridges: every chain is its own group, and per-view-
            // component sharding (which keyed on the shared view family)
            // could never have told them apart.
            let heads: Vec<_> = per_chain
                .iter()
                .map(|chain| shards.group_of(&db_probe, chain[0]))
                .collect();
            for (ci, chain) in per_chain.iter().enumerate() {
                for id in chain {
                    prop_assert_eq!(
                        shards.group_of(&db_probe, *id),
                        heads[ci],
                        "chain {} is internally split", ci
                    );
                }
            }
            let distinct: std::collections::BTreeSet<_> = heads.iter().collect();
            prop_assert_eq!(distinct.len(), chains);
        } else {
            // Bridged chains must share a group.
            for &(a, b) in &effective {
                prop_assert_eq!(
                    shards.group_of(&db_probe, per_chain[a][length - 1]),
                    shards.group_of(&db_probe, per_chain[b][0]),
                    "bridge {}->{} not merged", a, b
                );
            }
        }

        let (mut db_seq, ids, _) = build_chains(chains, length, &bridges);
        db_seq.attach_journal(0);
        let (seq_outcomes, seq_image, seq_records) = run_stream(
            |engine, db, audit, ev| {
                let out = engine
                    .process_compiled(&compiled, db, audit, ev)
                    .expect("lenient policy");
                (
                    out.delivered,
                    out.invocations.iter().map(|i| format!("{i:?}")).collect(),
                )
            },
            &mut db_seq,
            &ids,
            &stream,
            &policy,
        );
        let seq_journal = db_seq.drain_journal();
        let seq_index = index_view(&db_seq, &db_seq);

        for workers in [1usize, 2, 4, 8] {
            let (mut db, ids, _) = build_chains(chains, length, &bridges);
            db.attach_journal(0);
            let mut engine = RuntimeEngine::new(policy.clone());
            let mut audit = AuditLog::retaining();
            let events: Vec<QueuedEvent> = stream
                .iter()
                .map(|(event_idx, up, target, arg)| {
                    let dir = if *up { Direction::Up } else { Direction::Down };
                    let id = ids[target % ids.len()];
                    QueuedEvent::target(EVENTS[*event_idx], dir, id, "difftest")
                        .with_arg(arg.clone())
                })
                .collect();
            let outcomes =
                run_batch(&mut engine, &compiled, &mut db, &mut audit, events, workers);
            let records: Vec<String> =
                audit.records().iter().map(|r| format!("{r:?}")).collect();
            let journal = db.drain_journal();
            prop_assert_eq!(&outcomes, &seq_outcomes, "workers={}", workers);
            prop_assert_eq!(&records, &seq_records, "workers={}", workers);
            prop_assert_eq!(journal.as_str(), seq_journal.as_str(), "workers={}", workers);
            prop_assert_eq!(db.stats(), db_seq.stats(), "workers={}", workers);
            prop_assert_eq!(&index_view(&db_seq, &db), &seq_index, "workers={}", workers);
            prop_assert_eq!(&persist::save(&db), &seq_image, "workers={}", workers);
        }
    }
}

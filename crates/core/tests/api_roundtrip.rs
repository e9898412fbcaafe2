//! Property tests for the command-protocol text codec (ISSUE 3): every
//! [`Request`] / [`Response`] variant — including every [`ApiError`]
//! variant carried inside [`Response::Error`] — round-trips through the
//! line codec byte-identically: `decode(encode(x)) == x` and the encoding
//! is a fixed point (`encode(decode(encode(x))) == encode(x)`).

use proptest::prelude::*;

use blueprint_core::engine::api::{
    ApiError, AuditCounters, NodeRole, ProjectEntry, Request, Response, ServerStat, SnapshotInfo,
    SummaryRow, TraceMode, WorkLeftItem,
};
use damocles_meta::{Direction, EventMessage, Oid, Value};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Identifier-shaped names for OID components and views (the wire format
/// reserves `,`/`.` as OID separators, and components are trimmed).
fn ident() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_-]{1,8}"
}

/// Free-form text: printable (incl. spaces, quotes, `%`, latin-1) plus
/// explicit whitespace escapes, so the percent-escaping earns its keep.
fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        "\\PC{0,16}".boxed(),
        "[\\n\\t\"\\\\% ]{0,8}".boxed(),
        "[a-z ]{0,12}".boxed(),
        // Unicode whitespace that is NOT a codec separator: must pass
        // through unescaped without splitting words.
        "[\u{0B}\u{0C}\u{85}\u{A0}\u{2028}x]{0,6}".boxed(),
    ]
}

fn oid() -> impl Strategy<Value = Oid> {
    (ident(), ident(), any::<u32>()).prop_map(|(b, v, n)| Oid::new(b, v, n))
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool).boxed(),
        any::<i64>().prop_map(Value::Int).boxed(),
        text().prop_map(Value::Str).boxed(),
    ]
}

fn message() -> impl Strategy<Value = EventMessage> {
    (
        ident(),
        any::<bool>(),
        oid(),
        proptest::collection::vec(text(), 0..3),
    )
        .prop_map(|(event, up, target, args)| {
            let dir = if up { Direction::Up } else { Direction::Down };
            let mut m = EventMessage::new(event, dir, target);
            for a in args {
                m = m.with_arg(a);
            }
            m
        })
}

fn payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..24)
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        text().prop_map(|source| Request::Init { source }).boxed(),
        text().prop_map(|source| Request::Reinit { source }).boxed(),
        (ident(), ident(), text(), payload())
            .prop_map(|(block, view, user, payload)| Request::Checkin {
                block,
                view,
                user,
                payload
            })
            .boxed(),
        (ident(), ident(), text())
            .prop_map(|(block, view, user)| Request::Checkout { block, view, user })
            .boxed(),
        oid().prop_map(|oid| Request::CreateObject { oid }).boxed(),
        (oid(), oid())
            .prop_map(|(from, to)| Request::Connect { from, to })
            .boxed(),
        (message(), text())
            .prop_map(|(message, user)| Request::Post { message, user })
            .boxed(),
        Just(Request::ProcessAll).boxed(),
        Just(Request::RefreshLets).boxed(),
        text().prop_map(|terms| Request::Query { terms }).boxed(),
        oid().prop_map(|oid| Request::Show { oid }).boxed(),
        (oid(), text())
            .prop_map(|(oid, prop)| Request::WorkLeft { oid, prop })
            .boxed(),
        text().prop_map(|prop| Request::Summary { prop }).boxed(),
        (text(), oid())
            .prop_map(|(name, root)| Request::Snapshot { name, root })
            .boxed(),
        Just(Request::ListSnapshots).boxed(),
        text().prop_map(|view| Request::Freeze { view }).boxed(),
        text().prop_map(|view| Request::Thaw { view }).boxed(),
        (text(), any::<u64>())
            .prop_map(|(dir, every)| Request::EnableJournal { dir, every })
            .boxed(),
        Just(Request::Checkpoint).boxed(),
        (text(), any::<u64>())
            .prop_map(|(dir, every)| Request::Recover { dir, every })
            .boxed(),
        text()
            .prop_map(|path| Request::SaveProject { path })
            .boxed(),
        text()
            .prop_map(|path| Request::LoadProject { path })
            .boxed(),
        Just(Request::Dump).boxed(),
        Just(Request::Dot).boxed(),
        Just(Request::Audit).boxed(),
        Just(Request::Stat).boxed(),
        (
            opt_text(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(
                |(script, max_retries, base_delay_ms, multiplier, timeout_ms)| {
                    Request::SetRetryPolicy {
                        script,
                        max_retries: u64::from(max_retries),
                        base_delay_ms: u64::from(base_delay_ms),
                        multiplier: u64::from(multiplier),
                        timeout_ms: u64::from(timeout_ms),
                    }
                }
            )
            .boxed(),
        Just(Request::PumpInvocations).boxed(),
        (any::<u64>(), any::<u64>())
            .prop_map(|(epoch, seq)| Request::TailFrom { epoch, seq })
            .boxed(),
        (any::<u64>(), any::<u64>())
            .prop_map(|(epoch, seq)| Request::Replay { epoch, seq })
            .boxed(),
        prop_oneof![
            Just(TraceMode::On),
            Just(TraceMode::Off),
            Just(TraceMode::Get)
        ]
        .prop_map(|mode| Request::Trace { mode })
        .boxed(),
        (text(), any::<bool>())
            .prop_map(|(project, create)| Request::Attach { project, create })
            .boxed(),
        Just(Request::ListProjects).boxed(),
        (text(), any::<u64>(), any::<u64>())
            .prop_map(|(dir, every, term)| Request::Promote { dir, every, term })
            .boxed(),
        any::<u64>()
            .prop_map(|term| Request::Fence { term })
            .boxed(),
    ]
}

fn opt_text() -> impl Strategy<Value = Option<String>> {
    proptest::option::of(text())
}

fn api_error() -> impl Strategy<Value = ApiError> {
    prop_oneof![
        (any::<u16>(), text(), text())
            .prop_map(|(at, found, expected)| ApiError::Parse {
                at: u64::from(at),
                found,
                expected
            })
            .boxed(),
        (any::<u16>(), text())
            .prop_map(|(at, found)| ApiError::UnknownCommand {
                at: u64::from(at),
                found
            })
            .boxed(),
        Just(ApiError::NoProject).boxed(),
        oid().prop_map(|oid| ApiError::UnknownOid { oid }).boxed(),
        oid().prop_map(|oid| ApiError::DuplicateOid { oid }).boxed(),
        (oid(), opt_text())
            .prop_map(|(oid, holder)| ApiError::CheckoutConflict { oid, holder })
            .boxed(),
        text()
            .prop_map(|view| ApiError::FrozenView { view })
            .boxed(),
        text()
            .prop_map(|detail| ApiError::Policy { detail })
            .boxed(),
        proptest::collection::vec(text(), 0..3)
            .prop_map(|issues| ApiError::InvalidBlueprint { issues })
            .boxed(),
        text()
            .prop_map(|message| ApiError::BlueprintSyntax { message })
            .boxed(),
        any::<u64>()
            .prop_map(|processed| ApiError::Runaway { processed })
            .boxed(),
        text()
            .prop_map(|reason| ApiError::Journal { reason })
            .boxed(),
        (text(), any::<u32>(), text())
            .prop_map(|(script, attempts, reason)| ApiError::InvocationFailed {
                script,
                attempts: u64::from(attempts),
                reason,
            })
            .boxed(),
        text().prop_map(|reason| ApiError::Meta { reason }).boxed(),
        text().prop_map(|reason| ApiError::Io { reason }).boxed(),
        text()
            .prop_map(|leader| ApiError::ReadOnly { leader })
            .boxed(),
        (any::<u64>(), any::<u64>())
            .prop_map(|(epoch, seq)| ApiError::Lagging { epoch, seq })
            .boxed(),
        Just(ApiError::NotAttached).boxed(),
        text()
            .prop_map(|project| ApiError::NoSuchProject { project })
            .boxed(),
        text()
            .prop_map(|project| ApiError::ProjectBusy { project })
            .boxed(),
        text()
            .prop_map(|project| ApiError::ProjectPoisoned { project })
            .boxed(),
        Just(ApiError::NoFleet).boxed(),
        (any::<u64>(), any::<u64>())
            .prop_map(|(term, current)| ApiError::StaleTerm { term, current })
            .boxed(),
    ]
}

fn node_role() -> impl Strategy<Value = NodeRole> {
    prop_oneof![Just(NodeRole::Leader), Just(NodeRole::Follower)]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok).boxed(),
        text().prop_map(|name| Response::Blueprint { name }).boxed(),
        oid().prop_map(|oid| Response::Created { oid }).boxed(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(
                |(events, deliveries, scripts, emitted)| Response::Processed {
                    events,
                    deliveries,
                    scripts,
                    emitted
                }
            )
            .boxed(),
        any::<u64>()
            .prop_map(|written| Response::Refreshed { written })
            .boxed(),
        (oid(), proptest::collection::vec((text(), value()), 0..4))
            .prop_map(|(oid, props)| Response::Props { oid, props })
            .boxed(),
        proptest::collection::vec(oid(), 0..4)
            .prop_map(|oids| Response::Hits { oids })
            .boxed(),
        (
            oid(),
            proptest::collection::vec(
                (oid(), text(), proptest::option::of(value()))
                    .prop_map(|(oid, prop, current)| WorkLeftItem { oid, prop, current }),
                0..4
            )
        )
            .prop_map(|(target, items)| Response::Work { target, items })
            .boxed(),
        proptest::collection::vec(
            (text(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
                |(view, total, satisfied, untracked)| SummaryRow {
                    view,
                    total: u64::from(total),
                    satisfied: u64::from(satisfied),
                    untracked: u64::from(untracked),
                }
            ),
            0..4
        )
        .prop_map(|rows| Response::ViewSummary { rows })
        .boxed(),
        (text(), any::<u64>())
            .prop_map(|(name, oids)| Response::Snapped { name, oids })
            .boxed(),
        proptest::collection::vec(
            (text(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
                |(name, oids, links, dangling)| SnapshotInfo {
                    name,
                    oids: u64::from(oids),
                    links: u64::from(links),
                    dangling: u64::from(dangling),
                }
            ),
            0..3
        )
        .prop_map(|entries| Response::SnapshotList { entries })
        .boxed(),
        any::<u64>()
            .prop_map(|epoch| Response::Epoch { epoch })
            .boxed(),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            opt_text(),
            any::<bool>()
        )
            .prop_map(
                |(epoch, snapshot_oids, replayed_ops, torn_tail, stale_journal)| {
                    Response::Recovered {
                        epoch,
                        snapshot_oids: u64::from(snapshot_oids),
                        replayed_ops: u64::from(replayed_ops),
                        torn_tail,
                        stale_journal,
                    }
                }
            )
            .boxed(),
        any::<u64>()
            .prop_map(|oids| Response::Loaded { oids })
            .boxed(),
        text().prop_map(|text| Response::Text { text }).boxed(),
        proptest::collection::vec(any::<u64>(), 12..13)
            .prop_map(|ns| Response::Audit {
                counters: AuditCounters {
                    deliveries: ns[0],
                    assignments: ns[1],
                    reevaluations: ns[2],
                    scripts: ns[3],
                    posts: ns[4],
                    propagations: ns[5],
                    cycle_skips: ns[6],
                    depth_truncations: ns[7],
                    templates: ns[8],
                    invoke_retries: ns[9],
                    invoke_timeouts: ns[10],
                    invoke_exhaustions: ns[11],
                },
            })
            .boxed(),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            proptest::option::of(any::<u32>()),
            proptest::option::of(any::<u32>()),
            (
                any::<u32>(),
                proptest::collection::vec(any::<u32>(), 4..5),
                any::<u32>(),
                any::<u32>(),
                proptest::collection::vec(any::<u32>(), 4..5),
                (any::<u64>(), node_role())
            )
        )
            .prop_map(
                |(
                    oids,
                    links,
                    pending,
                    epoch,
                    records,
                    (workers, inv, cur_e, cur_s, fleet, (term, role)),
                )| {
                    Response::Stat {
                        stat: ServerStat {
                            oids: u64::from(oids),
                            links: u64::from(links),
                            pending_events: u64::from(pending),
                            journal_epoch: epoch.map(u64::from),
                            journal_records: records.map(u64::from),
                            wave_workers: u64::from(workers),
                            pending_invocations: u64::from(inv[0]),
                            running_invocations: u64::from(inv[1]),
                            retrying_invocations: u64::from(inv[2]),
                            failed_invocations: u64::from(inv[3]),
                            cursor_epoch: u64::from(cur_e),
                            cursor_seq: u64::from(cur_s),
                            active_projects: u64::from(fleet[0]),
                            resident_projects: u64::from(fleet[1]),
                            activations: u64::from(fleet[2]),
                            evictions: u64::from(fleet[3]),
                            term,
                            role,
                        },
                    }
                }
            )
            .boxed(),
        (any::<u64>(), any::<u64>())
            .prop_map(|(epoch, seq)| Response::Tailing { epoch, seq })
            .boxed(),
        (any::<u64>(), any::<u64>())
            .prop_map(|(epoch, term)| Response::Promoted { epoch, term })
            .boxed(),
        (any::<u64>(), any::<u64>(), any::<u64>(), text())
            .prop_map(|(epoch, seq, oids, image)| Response::Replayed {
                epoch,
                seq,
                oids,
                image
            })
            .boxed(),
        proptest::collection::vec(text(), 0..4)
            .prop_map(|records| Response::Trace { records })
            .boxed(),
        (text(), any::<bool>())
            .prop_map(|(project, created)| Response::Attached { project, created })
            .boxed(),
        proptest::collection::vec(
            (text(), any::<bool>()).prop_map(|(name, active)| ProjectEntry { name, active }),
            0..4
        )
        .prop_map(|entries| Response::Projects { entries })
        .boxed(),
        api_error().prop_map(Response::Error).boxed(),
    ]
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn request_roundtrips_byte_identically(req in request()) {
        let line = req.encode();
        prop_assert!(
            !line.contains('\n'),
            "encoding must be line-framed: {line:?}"
        );
        let back = match Request::decode(&line) {
            Ok(back) => back,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("decode of `{line}` failed: {e} (from {req:?})"),
            )),
        };
        prop_assert_eq!(&back, &req, "value roundtrip of `{}`", line);
        prop_assert_eq!(back.encode(), line, "encoding is a fixed point");
    }

    #[test]
    fn response_roundtrips_byte_identically(resp in response()) {
        let line = resp.encode();
        prop_assert!(
            !line.contains('\n'),
            "encoding must be line-framed: {line:?}"
        );
        let back = match Response::decode(&line) {
            Ok(back) => back,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("decode of `{line}` failed: {e} (from {resp:?})"),
            )),
        };
        prop_assert_eq!(&back, &resp, "value roundtrip of `{}`", line);
        prop_assert_eq!(back.encode(), line.clone(), "encoding is a fixed point");
        // The connection writer's form appends after what the buffer holds.
        let mut appended = String::from("prev\n");
        resp.encode_into(&mut appended);
        prop_assert_eq!(appended, format!("prev\n{line}"), "encode_into == encode");
    }
}

//! Experiment THROUGHPUT — durable requests/sec through the command loop:
//! fsync-per-op vs group commit (ISSUE 3).
//!
//! The claim under measurement: the journal fsync (~0.2 ms, flat in db
//! size — BENCH_pr2) dominates per-request durability cost, so letting
//! the session command loop execute a *batch* of queued requests and
//! journal them with **one** append+fsync multiplies durable request
//! throughput by roughly the batch size, while keeping the same crash
//! contract (a reply in hand means the effect is on disk).
//!
//! Series (128 `checkin` requests per iteration, each creating an OID,
//! applying templates and journaling its payload), all through the
//! production loop and its adaptive window (a batch is the backlog queued
//! when it forms):
//!
//! * `throughput/checkin_fsync_per_op/128` — one request in flight at a
//!   time, so every window holds one request and pays its own fsync: the
//!   idle-client case.
//! * `throughput/checkin_group_commit_adaptive/128` — all 128 pipelined:
//!   the windows take the backlog, one fsync each.
//! * `throughput/checkin_no_journal/128` — pipelined with durability off:
//!   the engine + protocol ceiling the group commit converges towards.
//!
//! `BENCH_pr3.json` also holds `checkin_group_commit_{16,64}`, measured
//! with fixed windows that the loop no longer forms.
//!
//! Smoke mode for CI: set `BENCH_SMOKE=1` to shrink measurement windows;
//! set `BENCH_JSON=<file>` to append results as JSON lines — that is how
//! `BENCH_pr3.json` is produced.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use blueprint_core::engine::api::{Request, Response};
use blueprint_core::engine::server::ProjectServer;
use blueprint_core::engine::service::{spawn_project_loop, ClientSession, ProjectService};
use damocles_bench::{bench_dir, config};
use damocles_meta::{persist, MetaDb, Workspace};

/// Pipelined requests per measured iteration.
const BURST: usize = 128;

fn edtc_service() -> ProjectService {
    let server = ProjectServer::from_source(damocles_flows::EDTC_SOURCE).expect("EDTC parses");
    ProjectService::with_server(server)
}

/// An empty project image; `LoadProject`ing it resets database, journal
/// and workspace, so every measured iteration sees the same steady
/// state instead of an ever-growing database.
fn empty_image_path() -> std::path::PathBuf {
    let path = bench_dir("throughput-reset").join("empty.ddb");
    let image = persist::save_project(&MetaDb::new(), &Workspace::new("bench"));
    std::fs::write(&path, image).unwrap();
    path
}

/// Spawns a command loop over an EDTC service, optionally journaled.
fn spawn(tag: &str, journaled: bool) -> ClientSession {
    let mut service = edtc_service();
    if journaled {
        let dir = bench_dir(&format!("throughput-{tag}"));
        let resp = service.call(Request::EnableJournal {
            dir: dir.display().to_string(),
            // Never fold during a burst: measure append+fsync, not
            // checkpoint writes (the per-iteration reset folds anyway).
            every: u64::MAX,
        });
        assert!(matches!(resp, Response::Epoch { .. }), "{resp:?}");
    }
    let (handle, _join) = spawn_project_loop(service);
    handle.session()
}

fn checkin(n: usize) -> Request {
    Request::Checkin {
        block: format!("b{n}"),
        view: "HDL_model".to_string(),
        user: "bench".to_string(),
        payload: b"module m;".to_vec(),
    }
}

/// One measured iteration: reset to the empty project (identical cost in
/// every series), then send BURST check-ins — all pipelined, or each
/// waiting for its reply — and drain every reply. Each reply implies the
/// request is journaled+fsynced when durability is on.
fn burst(session: &ClientSession, reset: &str, pipelined: bool) -> usize {
    match session.call(Request::LoadProject {
        path: reset.to_string(),
    }) {
        Response::Loaded { .. } => {}
        other => panic!("reset failed: {other:?}"),
    }
    let mut created = 0usize;
    let mut count = |reply: Option<Response>| match reply {
        Some(Response::Created { .. }) => created += 1,
        other => panic!("unexpected reply {other:?}"),
    };
    if pipelined {
        let pending: Vec<_> = (0..BURST).map(|n| session.submit(checkin(n))).collect();
        for rx in pending {
            count(rx.recv());
        }
    } else {
        for n in 0..BURST {
            count(session.submit(checkin(n)).recv());
        }
    }
    created
}

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput");
    group.throughput(Throughput::Elements(BURST as u64));
    let reset = empty_image_path();
    let reset = reset.display().to_string();

    // (series, journaled, pipelined)
    let configs: &[(&str, bool, bool)] = &[
        ("checkin_fsync_per_op", true, false),
        ("checkin_group_commit_adaptive", true, true),
        ("checkin_no_journal", false, true),
    ];
    for &(name, journaled, pipelined) in configs {
        let session = spawn(name, journaled);
        group.bench_with_input(BenchmarkId::new(name, BURST), &(), |b, ()| {
            b.iter(|| black_box(burst(&session, &reset, pipelined)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_throughput
}
criterion_main!(benches);

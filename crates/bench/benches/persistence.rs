//! Experiment PERSIST — durability cost: full text-image snapshots vs the
//! append-only op journal (ISSUE 2).
//!
//! The claim under measurement: incremental checkpointing cost scales with
//! the number of ops since the last checkpoint (the *dirty set*), not with
//! database size — so at 10k+ OIDs a small mutation batch is folded into
//! the journal orders of magnitude faster than `persist::save` can write
//! the full image.
//!
//! Series:
//! * `persist/full_save/{oids}` — the full image streamed to a file by
//!   `journal::write_image_atomic` (tmp + fsync + rename), the seed's
//!   only durability path.
//! * `persist/checkpoint/{oids}` — `ProjectServer::checkpoint()` of a
//!   journaled server holding the same databases: the snapshot streamed
//!   to disk through the same writer, then a fresh journal.
//! * `persist/incremental_checkpoint/{oids}` — journal a 16-op dirty set:
//!   mutate (recording each record), drain, append, fsync. Same database
//!   sizes; near-constant.
//! * `persist/journal_append/{ops}` — buffered append throughput of the
//!   production path: record at mutation time, drain, append.
//! * `persist/recover/{oids}` — `journal::recover` of snapshot + a 64-op
//!   tail (cold-start latency after a crash).
//! * `persist/growing_project/4000` — one group-commit window of a
//!   project that only grows, through a journaled `ProjectServer`:
//!   16 new-version check-ins, a `process`, the flush and any checkpoint
//!   the fold policy calls for. The stream is 4,000 check-ins of 64-byte
//!   payloads across 512 blocks, the one
//!   `tests/durability.rs::a_growing_project_checkpoints_within_twice_its_journal`
//!   runs; after its last window it starts over on a fresh server.
//!
//! Smoke mode for CI: set `BENCH_SMOKE=1` to shrink measurement windows;
//! set `BENCH_JSON=<file>` (vendored-criterion feature) to append results
//! as JSON lines — that is how `BENCH_pr2.json` is produced.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::cell::Cell;
use std::hint::black_box;

use blueprint_core::engine::api::DEFAULT_CHECKPOINT_EVERY;
use blueprint_core::engine::server::ProjectServer;
use damocles_bench::{bench_dir, config};
use damocles_meta::journal::{self, JournalWriter};
use damocles_meta::{LinkClass, LinkKind, MetaDb, Oid, OidId, Value, Workspace};

const DIRTY_SET: usize = 16;

fn sizes() -> Vec<usize> {
    vec![1_000, 10_000]
}

/// A design-shaped database: one netlist chain per block, two properties
/// per OID, links carrying a PROPAGATE set.
fn build_db(oids: usize) -> (MetaDb, Vec<OidId>) {
    let mut db = MetaDb::with_capacity(oids);
    let mut ids = Vec::with_capacity(oids);
    let mut prev: Option<OidId> = None;
    for i in 0..oids {
        let id = db
            .create_oid(Oid::new(format!("blk{i}"), "netlist", 1))
            .unwrap();
        db.set_prop(id, "uptodate", Value::Bool(i % 2 == 0))
            .unwrap();
        db.set_prop(id, "owner", Value::Str(format!("user{}", i % 7)))
            .unwrap();
        if let Some(p) = prev {
            db.add_link_with(
                p,
                id,
                LinkClass::Derive,
                LinkKind::DeriveFrom,
                ["outofdate"],
            )
            .unwrap();
        }
        prev = Some(id);
        ids.push(id);
    }
    (db, ids)
}

/// The seed durability path: full image + file write + fsync.
fn bench_full_save(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/full_save");
    let dir = bench_dir("persist");
    let workspace = Workspace::new("bench");
    for oids in sizes() {
        let (db, _) = build_db(oids);
        let path = dir.join(format!("full-{oids}.ddb"));
        group.throughput(Throughput::Elements(oids as u64));
        group.bench_with_input(BenchmarkId::from_parameter(oids), &db, |b, db| {
            b.iter(|| {
                let written =
                    journal::write_image_atomic(&path, black_box(db), &workspace, None).unwrap();
                black_box(written)
            });
        });
    }
    group.finish();
}

/// The checkpoint a journaling server runs on the same databases: each
/// iteration folds into a new epoch, streaming the whole snapshot.
fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/checkpoint");
    let dir = bench_dir("persist-checkpoint");
    for oids in sizes() {
        let (db, _) = build_db(oids);
        let mut server = ProjectServer::from_source(GROWING).unwrap();
        server.adopt_project(db, Workspace::new("bench"));
        server
            .enable_journal(dir.join(oids.to_string()), DEFAULT_CHECKPOINT_EVERY)
            .unwrap();
        group.throughput(Throughput::Elements(oids as u64));
        group.bench_function(BenchmarkId::from_parameter(oids), |b| {
            b.iter(|| black_box(server.checkpoint().unwrap()));
        });
    }
    group.finish();
}

/// The journal durability path for the same databases: a 16-op dirty set
/// is mutated, drained and fsynced. Cost tracks the dirty set, not `oids`.
fn bench_incremental_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/incremental_checkpoint");
    let dir = bench_dir("persist");
    for oids in sizes() {
        let (mut db, ids) = build_db(oids);
        let mut writer = JournalWriter::create(dir.join(format!("incr-{oids}.djl")), 1, 1).unwrap();
        db.attach_journal(writer.record_count());
        let mut cursor = 0usize;
        group.throughput(Throughput::Elements(DIRTY_SET as u64));
        group.bench_with_input(BenchmarkId::from_parameter(oids), &(), |b, ()| {
            b.iter(|| {
                for k in 0..DIRTY_SET {
                    let id = ids[(cursor + k * 37) % ids.len()];
                    db.set_prop(id, "uptodate", Value::Bool(k % 2 == 0))
                        .unwrap();
                }
                cursor += 1;
                let batch = db.drain_journal();
                writer.append(&batch).unwrap();
                writer.sync().unwrap();
                black_box(batch.len())
            });
        });
    }
    group.finish();
}

/// Buffered append throughput (no fsync): the per-op journal tax, from
/// mutation to the file.
fn bench_journal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/journal_append");
    let dir = bench_dir("persist");
    for ops in [64usize, 512] {
        let (mut db, ids) = build_db(256);
        let mut writer = JournalWriter::create(dir.join(format!("app-{ops}.djl")), 1, 1).unwrap();
        db.attach_journal(writer.record_count());
        group.throughput(Throughput::Elements(ops as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ops), &(), |b, ()| {
            b.iter(|| {
                for k in 0..ops {
                    let id = ids[k % ids.len()];
                    db.set_prop(id, "drc", Value::Int(k as i64)).unwrap();
                }
                let batch = db.drain_journal();
                writer.append(&batch).unwrap();
                black_box(batch.len())
            });
        });
    }
    group.finish();
}

/// Crash-recovery latency: load snapshot + replay a 64-op tail.
fn bench_recover(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/recover");
    for oids in sizes() {
        let (mut db, ids) = build_db(oids);
        let ws = Workspace::new("bench");
        let snapshot = journal::write_snapshot(&db, &ws, 1, 1);
        db.attach_journal(0);
        for k in 0..64usize {
            let id = ids[(k * 131) % ids.len()];
            db.set_prop(id, "uptodate", Value::Bool(k % 3 == 0))
                .unwrap();
        }
        let mut tail = journal::encode_header(1, 1).into_bytes();
        tail.extend_from_slice(db.drain_journal().as_str().as_bytes());
        group.throughput(Throughput::Elements(oids as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(oids),
            &(snapshot, tail),
            |b, (snapshot, tail)| {
                b.iter(|| {
                    let recovered = journal::recover(black_box(snapshot), black_box(tail)).unwrap();
                    black_box(recovered.report.replayed_ops)
                });
            },
        );
    }
    group.finish();
}

const GROWING: &str = r#"
    blueprint growing
    view default
        property uptodate default false
        when ckin do uptodate = true done
    endview
    view HDL_model endview
    endblueprint
"#;

/// Check-ins in the growing project's stream, 16 to a window.
const CHECKINS: usize = 4_000;
const WINDOW: usize = 16;

/// One window of the growing project's stream per iteration; the server
/// and its position in the stream carry over between iterations.
fn bench_growing_project(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/growing_project");
    let dir = bench_dir("persist-growing");
    let start = || {
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = ProjectServer::from_source(GROWING).unwrap();
        server
            .enable_journal(&dir, DEFAULT_CHECKPOINT_EVERY)
            .unwrap();
        server.set_group_commit(true).unwrap();
        (server, 0)
    };
    let slot = Cell::new(None);
    group.throughput(Throughput::Elements(WINDOW as u64));
    group.bench_function(BenchmarkId::from_parameter(CHECKINS), |b| {
        b.iter_batched(
            || match slot.take() {
                Some((server, next)) if next < CHECKINS => (server, next),
                _ => start(),
            },
            |(mut server, next): (ProjectServer, usize)| {
                for i in next..next + WINDOW {
                    let block = format!("blk{}", i % 512);
                    let payload = format!("{i:064}").into_bytes();
                    server
                        .checkin(&block, "HDL_model", "yves", payload)
                        .unwrap();
                }
                server.process_all().unwrap();
                server.flush_journal().unwrap();
                slot.set(Some((server, next + WINDOW)));
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_full_save, bench_checkpoint, bench_incremental_checkpoint, bench_journal_append,
        bench_recover, bench_growing_project
}
criterion_main!(benches);

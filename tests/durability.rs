//! End-to-end durability: journal + checkpoint + crash recovery through
//! the public façade, including the property index being rebuilt by
//! replay (not loaded from the snapshot).

use damocles::prelude::*;
use damocles_meta::qlang::Query;
use damocles_meta::{persist, Value};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("damocles-e2e-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn journaled_session_survives_crash_and_keeps_tracking() {
    let dir = temp_dir("crash");
    let image_before;
    {
        // Session 1: a tracked design flow with durability on, checkpoint
        // every 32 ops so the run crosses several fold points.
        let mut server = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).unwrap();
        server.enable_journal(&dir, 32).unwrap();
        for v in 0..5 {
            server
                .checkin(
                    "CPU",
                    "HDL_model",
                    "yves",
                    format!("module cpu v{v}").into_bytes(),
                )
                .unwrap();
            server.process_all().unwrap();
        }
        let hdl = Oid::new("CPU", "HDL_model", 5);
        let sch = server
            .checkin("CPU", "schematic", "synth", b"cell".to_vec())
            .unwrap();
        server.connect_oids(&hdl, &sch).unwrap();
        server.process_all().unwrap();
        assert!(server.journal_epoch().unwrap() > 1, "auto-checkpoints ran");
        image_before = persist::save(server.db());
        // Session 1 "crashes" here: the server is dropped without a final
        // checkpoint; whatever reached the journal is the durable state.
    }

    // Session 2: recover and verify the database image is exact.
    let mut server = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).unwrap();
    let report = server.recover_journal(&dir, 32).unwrap();
    assert_eq!(persist::save(server.db()), image_before);
    assert!(report.snapshot_oids > 0);

    // The secondary index was rebuilt by replaying through set_prop: the
    // indexed fast path and a full scan agree on the recovered database.
    let q: Query = "prop.uptodate=true".parse().unwrap();
    let indexed = q.run(server.db());
    let scanned: Vec<_> = server
        .query()
        .where_prop("uptodate", |v| v.loose_eq(&Value::Bool(true)));
    assert_eq!(indexed, scanned);
    assert!(!indexed.is_empty(), "recovered flow has fresh objects");

    // Payloads recovered too (workspace data travels as journal records).
    let id = server.resolve(&Oid::new("CPU", "HDL_model", 5)).unwrap();
    assert_eq!(
        server.workspace().datum(id).unwrap().content,
        b"module cpu v4".to_vec()
    );

    // Tracking continues seamlessly: a new HDL version invalidates the
    // recovered schematic.
    server
        .checkin("CPU", "HDL_model", "yves", b"module cpu v6".to_vec())
        .unwrap();
    server.process_all().unwrap();
    assert_eq!(
        server
            .prop(&Oid::new("CPU", "schematic", 1), "uptodate")
            .unwrap(),
        Value::Bool(false)
    );

    // Session 3: even after more work, a fresh recover matches the live
    // image again — checkpoint → recover → persist::save is stable.
    let image_live = persist::save(server.db());
    server.checkpoint().unwrap();
    let mut server3 = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).unwrap();
    server3.recover_journal(&dir, 32).unwrap();
    assert_eq!(persist::save(server3.db()), image_live);
}

#[test]
fn truncated_journal_recovers_a_prefix_not_garbage() {
    let dir = temp_dir("truncate");
    let mut server = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).unwrap();
    server.enable_journal(&dir, 100_000).unwrap();
    for v in 0..4 {
        server
            .checkin("REG", "HDL_model", "yves", format!("reg v{v}").into_bytes())
            .unwrap();
        server.process_all().unwrap();
    }
    drop(server);

    let jpath = dir.join("journal.djl");
    let spath = dir.join("snapshot.ddb");
    let full = std::fs::read(&jpath).unwrap();
    let snapshot = std::fs::read(&spath).unwrap();
    // Recover from a spread of truncation points; each must yield a valid
    // database (a prefix of the real history), never an error or panic.
    // recover_journal itself re-checkpoints the directory, so both files
    // are restored before every round.
    let mut seen_counts = std::collections::BTreeSet::new();
    for cut in (0..=full.len()).step_by(37).chain([full.len()]) {
        std::fs::write(&spath, &snapshot).unwrap();
        std::fs::write(&jpath, &full[..cut]).unwrap();
        let mut s = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).unwrap();
        let report = s.recover_journal(&dir, 100_000).unwrap();
        seen_counts.insert(report.replayed_ops);
        // Recovered state is internally consistent: every OID resolves,
        // every link's endpoints are live.
        for (id, entry) in s.db().iter_oids() {
            assert_eq!(s.db().resolve(&entry.oid), Some(id));
        }
        for (_, link) in s.db().iter_links() {
            assert!(s.db().is_live(link.from) && s.db().is_live(link.to));
        }
    }
    assert!(seen_counts.len() > 2, "several distinct prefixes exercised");
}

// ---------------------------------------------------------------------
// Group commit (ISSUE 3): crash semantics of the batched-fsync window
// ---------------------------------------------------------------------

/// A crash between batch execution and the batched fsync must lose the
/// whole un-acked batch and nothing else: recovery replays a valid prefix
/// ending exactly at the previous batch boundary.
#[test]
fn group_commit_crash_between_execution_and_fsync_recovers_batch_boundary() {
    let dir = temp_dir("group-commit-crash");
    let mut server = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).unwrap();
    server.enable_journal(&dir, 1_000_000).unwrap();
    server.set_group_commit(true).unwrap();

    // Batch A: executed AND flushed — the durable boundary.
    for v in 0..4 {
        server
            .checkin("CPU", "HDL_model", "yves", format!("a{v}").into_bytes())
            .unwrap();
    }
    server.process_all().unwrap();
    server.flush_journal().unwrap();
    let records_after_a = server.journal_records().unwrap();
    let image_at_boundary = persist::save(server.db());

    // Batch B: executed, fsync never reached (the crash window). The
    // in-memory database has batch B; the on-disk journal must not.
    for v in 0..3 {
        server
            .checkin("CPU", "schematic", "synth", format!("b{v}").into_bytes())
            .unwrap();
    }
    server.process_all().unwrap();
    assert_eq!(server.db().oid_count(), 7, "batch B executed in memory");
    assert_eq!(
        server.journal_records().unwrap(),
        records_after_a,
        "batch B's ops are buffered, not on disk"
    );
    drop(server); // crash: the buffered batch evaporates

    let mut crashed = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).unwrap();
    let report = crashed.recover_journal(&dir, 1_000_000).unwrap();
    assert!(report.torn_tail.is_none(), "{report:?}");
    assert_eq!(
        persist::save(crashed.db()),
        image_at_boundary,
        "recovery lands exactly on the last flushed batch boundary"
    );
    assert_eq!(crashed.db().oid_count(), 4, "batch A only");
}

/// A crash DURING the batched fsync leaves a torn final record; recovery
/// still replays a valid record prefix of the batch, never garbage.
#[test]
fn group_commit_crash_mid_flush_recovers_record_prefix() {
    let dir = temp_dir("group-commit-torn");
    let mut server = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).unwrap();
    server.enable_journal(&dir, 1_000_000).unwrap();
    server.set_group_commit(true).unwrap();
    for v in 0..4 {
        server
            .checkin("blk", "HDL_model", "yves", format!("v{v}").into_bytes())
            .unwrap();
    }
    server.process_all().unwrap();
    server.flush_journal().unwrap();
    drop(server);

    // Tear the flushed batch mid-record, as an interrupted write would.
    let jpath = dir.join("journal.djl");
    let bytes = std::fs::read(&jpath).unwrap();
    std::fs::write(&jpath, &bytes[..bytes.len() - 9]).unwrap();

    let mut crashed = ProjectServer::from_source(damocles::flows::EDTC_SOURCE).unwrap();
    let report = crashed.recover_journal(&dir, 1_000_000).unwrap();
    assert!(report.torn_tail.is_some(), "{report:?}");
    // Whatever replayed is a valid prefix: the recovered image must match
    // a replay of the first `replayed_ops` records of the untorn journal.
    let tail = damocles_meta::journal::parse_journal(&bytes).unwrap();
    let (prefix_db, _ws) =
        damocles_meta::journal::replay_ops(&tail.ops[..report.replayed_ops]).unwrap();
    assert_eq!(persist::save(crashed.db()), persist::save(&prefix_db));
}

// ---------------------------------------------------------------------
// Checkpoint cost on a growing project
// ---------------------------------------------------------------------

const GROWING: &str = r#"
    blueprint growing
    view default
        property uptodate default false
        when ckin do uptodate = true done
    endview
    view HDL_model endview
    endblueprint
"#;

/// A project that only grows: 4,000 new-version check-ins of 64-byte
/// payloads across 512 blocks, group-committed 16 at a time with a
/// `process` each, at the default record floor. The snapshots the folds
/// write stay within twice the record bytes the flushes wrote; a fold
/// every 1,024 records rewrites the growing image 25 times, 5.6 times
/// the record bytes.
#[test]
fn a_growing_project_checkpoints_within_twice_its_journal() {
    use std::fs::File;

    let dir = temp_dir("growing");
    let mut server = ProjectServer::from_source(GROWING).unwrap();
    let every = damocles::core::engine::api::DEFAULT_CHECKPOINT_EVERY;
    server.enable_journal(&dir, every).unwrap();
    server.set_group_commit(true).unwrap();
    let snapshot_len = || std::fs::metadata(dir.join("snapshot.ddb")).unwrap().len();
    // A handle opened after each fold keeps reading that epoch's journal
    // after the next fold renames a fresh one into place.
    let open_journal = || File::open(dir.join("journal.djl")).unwrap();
    let mut journal = open_journal();
    let mut snapshot_bytes = snapshot_len();
    let mut record_bytes = 0;
    let mut folds = 0;
    for window in 0..250 {
        for k in 0..16 {
            let i = window * 16 + k;
            let payload = format!("{i:064}").into_bytes();
            server
                .checkin(&format!("blk{}", i % 512), "HDL_model", "yves", payload)
                .unwrap();
        }
        server.process_all().unwrap();
        let epoch = server.journal_epoch();
        let before = journal.metadata().unwrap().len();
        server.flush_journal().unwrap();
        record_bytes += journal.metadata().unwrap().len() - before;
        if server.journal_epoch() != epoch {
            folds += 1;
            snapshot_bytes += snapshot_len();
            journal = open_journal();
        }
    }
    assert!(folds > 1, "{folds} folds");
    assert!(
        snapshot_bytes <= 2 * record_bytes,
        "{folds} folds wrote {snapshot_bytes} snapshot bytes for {record_bytes} record bytes"
    );

    let image = server.project_image();
    drop(server);
    let mut recovered = ProjectServer::from_source(GROWING).unwrap();
    recovered.recover_journal(&dir, every).unwrap();
    assert_eq!(recovered.project_image(), image);
    assert_eq!(recovered.db().oid_count(), 4000);
}

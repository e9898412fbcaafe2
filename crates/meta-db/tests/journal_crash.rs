//! Crash-injection property tests for the durability subsystem.
//!
//! The contract under test (ISSUE 2 acceptance): recovery from **any**
//! truncation of the journal — every byte boundary, which subsumes every
//! record boundary — yields exactly the database image of a valid op
//! prefix, or a clean structured error. Never a panic, never a database
//! that disagrees with every prefix.

use proptest::prelude::*;

use damocles_meta::journal::{self, encode_header, encode_record, JournalOp};
use damocles_meta::persist;
use damocles_meta::{LinkClass, LinkKind, MetaDb, Oid, OidId, Value, Workspace};

/// One abstract mutation; indices are taken modulo the live population so
/// every generated command is *attemptable* on any state.
#[derive(Debug, Clone)]
enum Cmd {
    Create(u8, u8, u8),
    Delete(u8),
    SetProp(u8, u8, u8),
    RemoveProp(u8, u8),
    Link(u8, u8, u8),
    Unlink(u8),
    Allow(u8, u8),
    LinkProp(u8, u8, u8),
    MoveEnd(u8, u8),
}

fn cmds() -> impl Strategy<Value = Vec<Cmd>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| Cmd::Create(a, b, c)),
            any::<u8>().prop_map(Cmd::Delete),
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| Cmd::SetProp(a, b, c)),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Cmd::RemoveProp(a, b)),
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| Cmd::Link(a, b, c)),
            any::<u8>().prop_map(Cmd::Unlink),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Cmd::Allow(a, b)),
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| Cmd::LinkProp(a, b, c)),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Cmd::MoveEnd(a, b)),
        ],
        0..28,
    )
}

/// Property names cycle through a tiny alphabet (collisions exercise
/// overwrite paths); values include multi-byte unicode so byte-level
/// truncation can land inside a character.
fn prop_name(i: u8) -> String {
    format!("p{}", i % 4)
}

fn prop_value(i: u8) -> Value {
    match i % 4 {
        0 => Value::Bool(i.is_multiple_of(2)),
        1 => Value::Int(i64::from(i) - 128),
        2 => Value::Str(format!("v{} ✓ värde", i % 8)),
        _ => Value::Str(format!("{}", i % 8)),
    }
}

/// Applies commands to a journal-attached database, ignoring per-command
/// errors (duplicate OIDs, self-links, empty populations) — only
/// successful mutations journal ops, which is itself part of the contract.
/// `version_base` offsets created versions so a second run on the same
/// database does not only collide with the first.
fn apply_cmds(db: &mut MetaDb, cmds: &[Cmd], version_base: u32) {
    for cmd in cmds {
        let oids: Vec<OidId> = db.iter_oids().map(|(id, _)| id).collect();
        let links: Vec<_> = db.iter_links().map(|(id, _)| id).collect();
        let pick = |xs: &[OidId], i: u8| xs[usize::from(i) % xs.len()];
        match cmd {
            Cmd::Create(b, v, n) => {
                let oid = Oid::new(
                    format!("blk{}", b % 5),
                    format!("view{}", v % 3),
                    version_base + u32::from(n % 6),
                );
                let _ = db.create_oid(oid);
            }
            Cmd::Delete(i) if !oids.is_empty() => {
                let _ = db.delete_oid(pick(&oids, *i));
            }
            Cmd::SetProp(i, name, value) if !oids.is_empty() => {
                let _ = db.set_prop(pick(&oids, *i), &prop_name(*name), prop_value(*value));
            }
            Cmd::RemoveProp(i, name) if !oids.is_empty() => {
                let _ = db.remove_prop(pick(&oids, *i), &prop_name(*name));
            }
            Cmd::Link(i, j, k) if !oids.is_empty() => {
                let class = if k % 2 == 0 {
                    LinkClass::Use
                } else {
                    LinkClass::Derive
                };
                let kind = if k % 3 == 0 {
                    LinkKind::Composition
                } else {
                    LinkKind::DeriveFrom
                };
                let events: Vec<String> = (0..k % 3).map(|e| format!("ev{e}")).collect();
                let _ = db.add_link_with(pick(&oids, *i), pick(&oids, *j), class, kind, events);
            }
            Cmd::Unlink(i) if !links.is_empty() => {
                let _ = db.remove_link(links[usize::from(*i) % links.len()]);
            }
            Cmd::Allow(i, e) if !links.is_empty() => {
                let _ = db.allow_event(
                    links[usize::from(*i) % links.len()],
                    &format!("ev{}", e % 4),
                );
            }
            Cmd::LinkProp(i, name, value) if !links.is_empty() => {
                let _ = db.set_link_prop(
                    links[usize::from(*i) % links.len()],
                    &prop_name(*name),
                    prop_value(*value),
                );
            }
            Cmd::MoveEnd(i, j) if !links.is_empty() && !oids.is_empty() => {
                let link_id = links[usize::from(*i) % links.len()];
                let to = db.link(link_id).unwrap().to;
                let _ = db.move_link_end(link_id, to, pick(&oids, *j));
            }
            _ => {}
        }
    }
}

fn journal_bytes(epoch: u64, term: u64, ops: &[JournalOp]) -> Vec<u8> {
    let mut bytes = encode_header(epoch, term).into_bytes();
    for (seq, op) in ops.iter().enumerate() {
        bytes.extend_from_slice(encode_record(seq as u64, op).as_bytes());
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For a random op stream journaled from an empty snapshot, recovery
    /// from EVERY byte-boundary truncation of the journal reproduces the
    /// image of the replayed op prefix exactly.
    #[test]
    fn recovery_from_any_truncation_is_a_valid_prefix(cmds in cmds()) {
        let mut db = MetaDb::new();
        db.attach_journal(0);
        apply_cmds(&mut db, &cmds, 0);
        let ops: Vec<JournalOp> = db.drain_journal_ops();

        // Expected image after each op prefix.
        let images: Vec<String> = (0..=ops.len())
            .map(|k| {
                let (prefix_db, _ws) = journal::replay_ops(&ops[..k]).expect("valid prefix replays");
                persist::save(&prefix_db)
            })
            .collect();
        prop_assert_eq!(
            images.last().unwrap(),
            &persist::save(&db),
            "full replay must equal the live database"
        );

        let epoch = 3;
        let term = 2;
        let snapshot = journal::write_snapshot(&MetaDb::new(), &Workspace::new("w"), epoch, term);
        let bytes = journal_bytes(epoch, term, &ops);
        // Byte offsets at which the file consists of whole records only:
        // end of header, then after each record. A cut exactly on a
        // boundary is indistinguishable from a journal with fewer records,
        // so only cuts OFF a boundary must raise the torn-tail flag.
        let mut boundaries = vec![encode_header(epoch, term).len()];
        for (seq, op) in ops.iter().enumerate() {
            boundaries.push(boundaries[seq] + encode_record(seq as u64, op).len());
        }

        for cut in 0..=bytes.len() {
            // Clean structured results only: Ok with a prefix image, or a
            // JournalError. A panic fails the whole test.
            match journal::recover(&snapshot, &bytes[..cut]) {
                Ok(recovered) => {
                    let replayed = recovered.report.replayed_ops;
                    // Exactly the fully-contained records replay. A record
                    // whose trailing newline was cut is still complete
                    // content-wise (its checksum passes), so both
                    // `boundaries[k]` and `boundaries[k] - 1` replay k
                    // records; the header, by contrast, needs its newline.
                    let expected = if cut < boundaries[0] {
                        0
                    } else {
                        (1..boundaries.len())
                            .filter(|&k| boundaries[k] - 1 <= cut)
                            .count()
                    };
                    prop_assert_eq!(
                        replayed, expected,
                        "truncation at byte {} of {:?}", cut, boundaries
                    );
                    prop_assert_eq!(
                        &persist::save(&recovered.db),
                        &images[replayed],
                        "truncation at byte {} replayed {} ops but image disagrees",
                        cut,
                        replayed
                    );
                    let clean_cut = boundaries.contains(&cut)
                        || (cut >= boundaries[0] && boundaries.contains(&(cut + 1)));
                    prop_assert_eq!(
                        recovered.report.torn_tail.is_none(),
                        clean_cut,
                        "torn-tail flag wrong at byte {}",
                        cut
                    );
                }
                Err(e) => {
                    // Accepted by the contract: a structured error (not
                    // reachable for pure truncation today, but allowed).
                    let _ = e.to_string();
                }
            }
        }
    }

    /// `checkpoint → recover` equals `persist::save` byte-for-byte, with
    /// and without a journal tail on top of the snapshot.
    #[test]
    fn checkpoint_recover_matches_persist_save(setup in cmds(), tail in cmds()) {
        // State A: the checkpoint.
        let mut db = MetaDb::new();
        db.attach_journal(0);
        apply_cmds(&mut db, &setup, 0);
        let _ = db.drain_journal_ops();
        let ws = Workspace::new("w");
        let snapshot = journal::write_snapshot(&db, &ws, 9, 4);

        // Recovery of the bare snapshot is exact.
        let recovered = journal::recover(&snapshot, b"").expect("bare snapshot recovers");
        prop_assert_eq!(persist::save(&recovered.db), persist::save(&db));

        // State B: more work lands in the journal tail. Re-attaching the
        // journal re-bases link tags in image order, exactly like the
        // server's checkpoint does after writing the snapshot.
        db.attach_journal(0);
        apply_cmds(&mut db, &tail, 6);
        let ops = db.drain_journal_ops();
        let bytes = journal_bytes(9, 4, &ops);
        let recovered = journal::recover(&snapshot, &bytes).expect("snapshot + tail recovers");
        prop_assert_eq!(
            persist::save(&recovered.db),
            persist::save(&db),
            "tail of {} ops replays exactly",
            ops.len()
        );
    }

    /// A journal whose epoch does not match the snapshot (the crash window
    /// between "snapshot renamed" and "journal reset") is ignored, not
    /// replayed into corruption.
    #[test]
    fn stale_epoch_journal_is_ignored(setup in cmds()) {
        let mut db = MetaDb::new();
        db.attach_journal(0);
        apply_cmds(&mut db, &setup, 0);
        let ops = db.drain_journal_ops();
        // Snapshot at epoch 5 already CONTAINS the ops' effects; the
        // journal still claims epoch 4.
        let snapshot = journal::write_snapshot(&db, &Workspace::new("w"), 5, 1);
        let bytes = journal_bytes(4, 1, &ops);
        let recovered = journal::recover(&snapshot, &bytes).expect("stale journal tolerated");
        prop_assert!(recovered.report.stale_journal);
        prop_assert_eq!(recovered.report.replayed_ops, 0);
        prop_assert_eq!(persist::save(&recovered.db), persist::save(&db));
    }

    /// The fencing property at the durability layer (ISSUE 9): a journal
    /// written under any OTHER leadership term than the snapshot's — a
    /// deposed leader's tail left behind a promotion, or a failed
    /// promotion's orphan — is never replayed into the image, at every
    /// (snapshot term, journal term) interleaving.
    #[test]
    fn mismatched_term_journal_is_never_replayed(
        setup in cmds(),
        tail in cmds(),
        snap_term in 1u64..6,
        delta in 1u64..4,
        journal_newer in any::<bool>(),
    ) {
        let mut db = MetaDb::new();
        db.attach_journal(0);
        apply_cmds(&mut db, &setup, 0);
        let _ = db.drain_journal_ops();
        let snapshot = journal::write_snapshot(&db, &Workspace::new("w"), 7, snap_term);
        prop_assert_eq!(journal::snapshot_term(&snapshot), snap_term);

        db.attach_journal(0);
        apply_cmds(&mut db, &tail, 9);
        let ops = db.drain_journal_ops();
        // Same epoch, different term: the one disagreement epochs can't
        // catch. Stale terms model the deposed leader; newer terms an
        // orphaned promotion whose snapshot never landed.
        let journal_term = if journal_newer {
            snap_term + delta
        } else {
            snap_term.saturating_sub(delta).max(1)
        };
        let bytes = journal_bytes(7, journal_term, &ops);
        let recovered = journal::recover(&snapshot, &bytes).expect("fenced journal tolerated");
        if journal_term == snap_term {
            // delta could collapse to equality at the floor; then it IS
            // the matching reign and must replay.
            prop_assert_eq!(recovered.report.replayed_ops, ops.len());
        } else {
            prop_assert!(recovered.report.stale_journal);
            prop_assert_eq!(recovered.report.replayed_ops, 0);
            prop_assert_eq!(recovered.report.term, snap_term);
        }
    }

    /// The term grammar round-trips through snapshot + recovery at every
    /// (epoch, term) — and a legacy (pre-term) journal header means term
    /// 1, so it only ever replays into a term-1 snapshot.
    #[test]
    fn term_grammar_roundtrips_through_recovery(
        epoch in 1u64..1_000_000,
        term in 1u64..1_000_000,
    ) {
        let snapshot = journal::write_snapshot(&MetaDb::new(), &Workspace::new("w"), epoch, term);
        prop_assert_eq!(journal::snapshot_epoch(&snapshot), epoch);
        prop_assert_eq!(journal::snapshot_term(&snapshot), term);
        let bytes = journal::encode_header(epoch, term).into_bytes();
        let recovered = journal::recover(&snapshot, &bytes).expect("matching reign recovers");
        prop_assert!(!recovered.report.stale_journal);
        prop_assert_eq!(recovered.report.term, term);
        // A journal written before terms existed carries no ` term=`
        // field and belongs to reign 1 by definition.
        let legacy = format!("damocles-journal v1 epoch={epoch}\n").into_bytes();
        let recovered = journal::recover(&snapshot, &legacy).expect("legacy header tolerated");
        prop_assert_eq!(recovered.report.stale_journal, term != 1);
    }

    /// Group commit (ISSUE 3): ops land in multi-record batches with one
    /// sync per batch. A crash before a batch's first byte reaches the
    /// file must recover the exact image of the previous batch boundary
    /// (no torn tail); a crash inside the batch's write still recovers a
    /// valid record prefix extending that boundary.
    #[test]
    fn group_committed_batches_recover_at_batch_boundaries(
        batches in proptest::collection::vec(cmds(), 1..4)
    ) {
        let mut db = MetaDb::new();
        db.attach_journal(0);
        let epoch = 2;
        let snapshot = journal::write_snapshot(&MetaDb::new(), &Workspace::new("w"), epoch, 1);
        let mut bytes = encode_header(epoch, 1).into_bytes();
        // Byte length of the journal and the database image at each
        // flushed batch boundary. Each drained batch is appended as the
        // recorder rendered it: its numbering continues across drains.
        let mut boundary_images = vec![(bytes.len(), persist::save(&MetaDb::new()))];
        for (i, batch) in batches.iter().enumerate() {
            apply_cmds(&mut db, batch, i as u32 * 7);
            bytes.extend_from_slice(db.drain_journal().as_str().as_bytes());
            boundary_images.push((bytes.len(), persist::save(&db)));
        }

        for (cut, image) in &boundary_images {
            // Crash between batch execution and the batched fsync: the
            // file simply ends at the previous boundary.
            let recovered = journal::recover(&snapshot, &bytes[..*cut])
                .expect("batch boundary recovers");
            prop_assert!(recovered.report.torn_tail.is_none());
            prop_assert_eq!(&persist::save(&recovered.db), image);
        }
        // Crash mid-way through writing the final batch: a valid record
        // prefix that extends the second-to-last boundary.
        let (last_boundary, _) = boundary_images[boundary_images.len() - 1];
        let (prev_boundary, _) = boundary_images[boundary_images.len() - 2];
        if last_boundary > prev_boundary {
            let cut = prev_boundary + (last_boundary - prev_boundary) / 2;
            let recovered = journal::recover(&snapshot, &bytes[..cut])
                .expect("mid-batch truncation recovers");
            let tail = journal::parse_journal(&bytes).expect("full journal parses");
            let (prefix_db, _ws) =
                journal::replay_ops(&tail.ops[..recovered.report.replayed_ops])
                    .expect("prefix replays");
            prop_assert_eq!(persist::save(&recovered.db), persist::save(&prefix_db));
        }
    }
}

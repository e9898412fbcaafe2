//! Byte-pinned encoder output. Round-trip tests cannot catch a format
//! drift that the decoder drifts along with; these committed strings can.
//! They pin one journal record per `JournalOp` variant and the
//! `save_project` image of a small database, covering escapes (space,
//! `%`, newline, tab, non-ASCII), empty and multi-event PROPAGATE sets,
//! `data` hex, and work-queue records with arguments. The same lines are
//! what the `MetaDb` mutators record as they run.
//!
//! A deliberate format change must update these strings, and with them
//! the version in the journal and image headers.

use damocles_meta::journal::{
    decode_record, encode_header, encode_record, encode_record_into, parse_journal, JournalOp,
    JournalWriter, MovedEnd, RecordBatch,
};
use damocles_meta::{persist, LinkClass, LinkKind, MetaDb, Oid, OidId, Value, Workspace};

/// One op per variant, in the order the pinned records below number them.
fn ops() -> Vec<JournalOp> {
    let cpu = || Oid::new("cpu", "HDL_model", 12);
    let sch = || Oid::new("cpu", "schematic", 3);
    vec![
        JournalOp::CreateOid { oid: cpu() },
        JournalOp::DeleteOid { oid: sch() },
        JournalOp::SetProp {
            oid: cpu(),
            name: "sim result".into(),
            value: Value::Str("4 errors\n100% \tdone, naïve µ\u{a0}x".into()),
        },
        JournalOp::SetProp {
            oid: cpu(),
            name: "drc".into(),
            value: Value::Int(-42),
        },
        JournalOp::SetProp {
            oid: cpu(),
            name: "uptodate".into(),
            value: Value::Bool(false),
        },
        JournalOp::RemoveProp {
            oid: cpu(),
            name: "sim result".into(),
        },
        JournalOp::AddLink {
            tag: 7,
            from: cpu(),
            to: sch(),
            class: LinkClass::Derive,
            kind: LinkKind::DeriveFrom,
            propagates: vec!["outofdate".into(), "nl sim".into(), "100%".into()],
        },
        JournalOp::AddLink {
            tag: 8,
            from: sch(),
            to: cpu(),
            class: LinkClass::Use,
            kind: LinkKind::Other("my kind".into()),
            propagates: vec![],
        },
        JournalOp::RemoveLink { tag: 8 },
        JournalOp::AllowEvent {
            tag: 7,
            event: "lvs\tcheck".into(),
        },
        JournalOp::SetLinkProp {
            tag: 7,
            name: "weight".into(),
            value: Value::Int(3),
        },
        JournalOp::RemoveLinkProp {
            tag: 7,
            name: "weight".into(),
        },
        JournalOp::MoveLinkEnd {
            tag: 7,
            end: MovedEnd::From,
            new: Oid::new("alu", "HDL_model", 1),
        },
        JournalOp::MoveLinkEnd {
            tag: 7,
            end: MovedEnd::To,
            new: sch(),
        },
        JournalOp::Data {
            oid: cpu(),
            payload: b"\x00\x0f\xf0\xffmodule cpu;\n".to_vec(),
        },
        JournalOp::EventQueued {
            seq: 5,
            event: "hdl sim".into(),
            direction: "up".into(),
            propagate: true,
            target: cpu(),
            args: vec!["logic sim passed".into(), String::new(), "50%".into()],
            user: "net 3".into(),
        },
        JournalOp::EventQueued {
            seq: 6,
            event: "ckin".into(),
            direction: "down".into(),
            propagate: false,
            target: sch(),
            args: vec![],
            user: "yves".into(),
        },
        JournalOp::EventDone { seq: 5 },
        JournalOp::InvokeQueued {
            id: 12,
            script: "simulator".into(),
            args: vec!["cpu,netlist,1".into(), "-fast mode".into()],
            notify: false,
            origin: "cpu,netlist,1".into(),
            event: "ckin".into(),
        },
        JournalOp::InvokeQueued {
            id: 13,
            script: "notify".into(),
            args: vec![],
            notify: true,
            origin: "cpu,layout,2".into(),
            event: "lvs".into(),
        },
        JournalOp::InvokeCompleted { id: 12 },
        JournalOp::InvokeFailed {
            id: 13,
            attempts: 5,
            reason: "simulation crashed\n(timeout)".into(),
        },
    ]
}

/// `encode_record(seq, &ops()[seq])`, byte for byte.
const RECORDS: [&str; 22] = [
    "1bb951c95ebedb9c 0 create cpu,HDL_model,12\n",
    "b76edd58a06bb059 1 delete cpu,schematic,3\n",
    "0896aa935d271fc2 2 prop cpu,HDL_model,12 sim%20result s:4%20errors%0A100%25%20%09done,%20naïve%20µ\u{a0}x\n",
    "6365054e2f98e581 3 prop cpu,HDL_model,12 drc i:-42\n",
    "bd99835fbad1bc42 4 prop cpu,HDL_model,12 uptodate b:false\n",
    "a464f828b330fbb6 5 unprop cpu,HDL_model,12 sim%20result\n",
    "eb30c23f4ffc104a 6 link 7 cpu,HDL_model,12 cpu,schematic,3 derive derive_from outofdate,nl%20sim,100%25\n",
    "44f454795e0ed93e 7 link 8 cpu,schematic,3 cpu,HDL_model,12 use my%20kind -\n",
    "686d7309feecb48a 8 unlink 8\n",
    "ff88e8052829213b 9 allow 7 lvs%09check\n",
    "65d5a000fc119d94 10 lprop 7 weight i:3\n",
    "92f7da5f05693f0e 11 unlprop 7 weight\n",
    "8a40f5a78e6d30c7 12 move 7 from alu,HDL_model,1\n",
    "e132ed7c3c09ad22 13 move 7 to cpu,schematic,3\n",
    "9f6b594c613d2b17 14 data cpu,HDL_model,12 000ff0ff6d6f64756c65206370753b0a\n",
    "592803d848da9dad 15 evq 5 hdl%20sim up fan cpu,HDL_model,12 3 logic%20sim%20passed  50%25 net%203\n",
    "d31191a9062a890f 16 evq 6 ckin down at cpu,schematic,3 0 yves\n",
    "1dbc8de1bd74c8e3 17 evdone 5\n",
    "71903bbaef710b4f 18 invq 12 simulator 2 cpu,netlist,1 -fast%20mode 0 cpu,netlist,1 ckin\n",
    "407974c76dae1882 19 invq 13 notify 0 1 cpu,layout,2 lvs\n",
    "904c1e7cd8e761c3 20 invdone 12\n",
    "22ca6363eff4d46a 21 invfail 13 5 simulation%20crashed%0A(timeout)\n",
];

/// Three objects, two links (one with an empty PROPAGATE set), escaped
/// and typed properties, a link property, and two payloads (one empty).
fn small_project() -> (MetaDb, Workspace) {
    let mut db = MetaDb::new();
    let mut ws = Workspace::new("golden");
    let hdl = db.create_oid(Oid::new("cpu", "HDL_model", 2)).unwrap();
    let sch = db.create_oid(Oid::new("cpu", "schematic", 1)).unwrap();
    let alu = db.create_oid(Oid::new("alu", "layout", 10)).unwrap();
    db.set_prop(hdl, "uptodate", Value::Bool(true)).unwrap();
    db.set_prop(
        hdl,
        "sim result",
        Value::Str("4 errors\n100% \tdone, naïve".into()),
    )
    .unwrap();
    db.set_prop(sch, "drc", Value::Int(-7)).unwrap();
    let derive = db
        .add_link_with(
            hdl,
            sch,
            LinkClass::Derive,
            LinkKind::DeriveFrom,
            ["outofdate", "nl sim"],
        )
        .unwrap();
    db.set_link_prop(derive, "weight", Value::Int(3)).unwrap();
    db.add_link_with(
        alu,
        sch,
        LinkClass::Use,
        LinkKind::Composition,
        Vec::<String>::new(),
    )
    .unwrap();
    ws.store(hdl, b"module cpu;\n\xff".to_vec());
    ws.store(alu, Vec::new());
    (db, ws)
}

/// `persist::save_project(small_project())`, byte for byte.
const IMAGE: &str = "damocles-db v1\n\
oid alu,layout,10\n\
oid cpu,HDL_model,2\n\
prop sim%20result s:4%20errors%0A100%25%20%09done,%20naïve\n\
prop uptodate b:true\n\
oid cpu,schematic,1\n\
prop drc i:-7\n\
link alu,layout,10 cpu,schematic,1 use composition -\n\
link cpu,HDL_model,2 cpu,schematic,1 derive derive_from nl%20sim,outofdate\n\
lprop weight i:3\n\
data alu,layout,10 \n\
data cpu,HDL_model,2 6d6f64756c65206370753b0aff\n";

#[test]
fn every_record_variant_is_byte_pinned() {
    for (seq, (op, expected)) in ops().iter().zip(RECORDS).enumerate() {
        let line = encode_record(seq as u64, op);
        assert_eq!(line, expected, "record {seq}");
        assert_eq!(decode_record(&line, seq as u64).as_ref(), Ok(op));
    }
}

#[test]
fn appending_encoders_match_the_returning_ones() {
    // The `_into` forms append after whatever the buffer already holds.
    let mut out = String::from("prefix|");
    for (seq, op) in ops().iter().enumerate() {
        encode_record_into(&mut out, seq as u64, op);
    }
    assert_eq!(out, format!("prefix|{}", RECORDS.concat()));

    // A recorder renders the same lines and splits its batch at them.
    let mut db = MetaDb::new();
    db.attach_journal(0);
    for op in &ops() {
        db.record_extra(op);
    }
    let batch = db.drain_journal();
    assert_eq!(batch.as_str(), RECORDS.concat());
    assert_eq!(batch.len(), RECORDS.len());
    for (i, expected) in RECORDS.iter().enumerate() {
        assert_eq!(batch.line(i), expected.trim_end_matches('\n'));
    }
    assert_eq!(batch.first_seq(), Some(0));
    assert_eq!(batch.decode(), Ok(ops()));
    assert_eq!(RecordBatch::from_lines(RECORDS.concat()), batch);
}

/// Every mutator records its line as it runs. Driven in the order of
/// records 0–13, with recorders attached at the sequence number of the
/// next pinned record, and followed by a `record_extra` of each
/// server-level op (14–21), the drained batches are the pinned lines with
/// dense sequence numbers — except that a live database keeps a
/// PROPAGATE set sorted, so record 6 lists its pinned events in sorted
/// order.
#[test]
fn mutators_record_the_pinned_lines() {
    let cpu = Oid::new("cpu", "HDL_model", 12);
    let sch = Oid::new("cpu", "schematic", 3);
    let mut db = MetaDb::new();
    // Seven links older than the recorders: the next new link is tag 7.
    let pads: Vec<OidId> = (1..=8)
        .map(|v| db.create_oid(Oid::new("pad", "v", v)).unwrap())
        .collect();
    for pair in pads.windows(2) {
        db.add_link(pair[0], pair[1], LinkClass::Use, LinkKind::Composition)
            .unwrap();
    }
    let alu = db.create_oid(Oid::new("alu", "HDL_model", 1)).unwrap();
    let old_sch = db.create_oid(sch.clone()).unwrap();

    db.attach_journal(0);
    let c = db.create_oid(cpu).unwrap();
    db.delete_oid(old_sch).unwrap();
    let text = Value::Str("4 errors\n100% \tdone, naïve µ\u{a0}x".into());
    db.set_prop(c, "sim result", text).unwrap();
    db.set_prop(c, "drc", Value::Int(-42)).unwrap();
    db.set_prop(c, "uptodate", Value::Bool(false)).unwrap();
    db.remove_prop(c, "sim result").unwrap();
    let mut journal = db.drain_journal().as_str().to_string();

    // Attaching at 6 drops the re-created schematic's `create` record and
    // re-tags the seven links 0–6.
    let s = db.create_oid(sch).unwrap();
    db.attach_journal(6);
    let derive = db
        .add_link_with(
            c,
            s,
            LinkClass::Derive,
            LinkKind::DeriveFrom,
            ["outofdate", "nl sim", "100%"],
        )
        .unwrap();
    let kind = LinkKind::Other("my kind".into());
    let used = db
        .add_link_with(s, c, LinkClass::Use, kind, Vec::<String>::new())
        .unwrap();
    db.remove_link(used).unwrap();
    db.allow_event(derive, "lvs\tcheck").unwrap();
    db.set_link_prop(derive, "weight", Value::Int(3)).unwrap();
    db.remove_link_prop(derive, "weight").unwrap();
    db.move_link_end(derive, c, alu).unwrap();
    db.move_link_end(derive, s, s).unwrap();
    for op in &ops()[14..] {
        db.record_extra(op);
    }
    journal.push_str(db.drain_journal().as_str());

    let mut expected: Vec<String> = RECORDS.iter().map(|r| r.to_string()).collect();
    let mut sorted = decode_record(RECORDS[6], 6).unwrap();
    if let JournalOp::AddLink { propagates, .. } = &mut sorted {
        propagates.sort();
    }
    expected[6] = encode_record(6, &sorted);
    assert_eq!(journal, expected.concat());
}

#[test]
fn batched_appends_write_the_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("damocles-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.djl");
    let ops = ops();
    let mut writer = JournalWriter::create(&path, 3, 2).unwrap();
    let mut db = MetaDb::new();
    db.attach_journal(writer.record_count());
    for op in &ops[..10] {
        db.record_extra(op);
    }
    writer.append(&db.drain_journal()).unwrap();
    // An empty batch writes nothing; the numbering continues across drains.
    writer.append(&db.drain_journal()).unwrap();
    for op in &ops[10..] {
        db.record_extra(op);
    }
    writer.append(&db.drain_journal()).unwrap();
    writer.sync().unwrap();
    assert_eq!(writer.record_count(), ops.len() as u64);

    let bytes = std::fs::read_to_string(&path).unwrap();
    assert_eq!(bytes, encode_header(3, 2) + &RECORDS.concat());
    assert_eq!(parse_journal(bytes.as_bytes()).unwrap().ops, ops);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn project_image_is_byte_pinned() {
    let (db, ws) = small_project();
    let image = persist::save_project(&db, &ws);
    assert_eq!(image, IMAGE);
    let (db2, ws2) = persist::load_project(&image).unwrap();
    assert_eq!(persist::save_project(&db2, &ws2), IMAGE);
}

//! Mutation properties for the decoders a socket, a follower's tail
//! stream or a disk file reaches: `Request::decode`, `Response::decode`,
//! the batching `TailReader` (a whole tail stream, and each of its lines
//! as a stream of one), `JournalOp::decode`, `journal::decode_record`,
//! `TraceRecord::decode` (clients and `damocles_inspect --trace` read
//! trace lines), `EventMessage::parse_wire` (a raw `postEvent` line on a
//! connection), and the file decoders: `persist::load_project` (a saved
//! or checkpoint image), `journal::parse_journal` (the whole journal file
//! recovery reads), `RecordBatch::decode` and `init`'s parse, validate
//! and compile of a blueprint source.
//!
//! The seeds are real encodings: the requests and replies of a journaled
//! session driven through [`ProjectService`], the bytes the tail hub
//! writes a subscriber of that session, and the journal records and op
//! bodies those bytes carry (plus the invocation ops, which a session
//! without detached tools never writes, rendered by the same encoder),
//! the trace records of the session's `trace get` reply and its posted
//! event messages, and the files it leaves: its saved image and
//! checkpoint snapshots, every state of its journal file, and its
//! blueprint. A small
//! seeded mutator stacks one to three edits on a seed — a bit flip, a
//! truncation, a splice with another seed's suffix, an inserted hostile
//! byte, a number swapped for an out-of-range or signed one, a deleted
//! byte — and the property is:
//!
//! * the decoder never panics;
//! * when it returns `Ok(v)`, decoding the encoding of `v` returns
//!   `Ok(v)` again. A project image encodes through `save_project`, a
//!   journal through its header and record framing, a blueprint through
//!   the printer.
//!
//! Record mutants, alone or in a journal file, are re-checksummed
//! (FNV-1a-64 over `"<seq> <body>"`), so they get past the checksum and
//! reach the op decoder. The case budget is fixed ([`CASES`] per line
//! decoder, [`FILE_CASES`] per file decoder), and the seed of every run
//! is the same.

use std::fmt::Debug;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Duration;

use blueprint_core::engine::api::{Request, Response, TraceMode};
use blueprint_core::engine::compile::CompiledBlueprint;
use blueprint_core::engine::service::ProjectService;
use blueprint_core::engine::tail::{TailCursor, TailItem, TailReader};
use blueprint_core::engine::trace::TraceRecord;
use blueprint_core::lang::{parser, printer, validate};
use damocles_meta::journal::{
    decode_record, encode_header, encode_record, parse_journal, JournalOp, RecordBatch,
};
use damocles_meta::{persist, Direction, EventMessage, Oid};

/// Mutants per line decoder.
const CASES: usize = 50_000;

/// Mutants per file decoder: a file is tens of lines, so each case costs
/// tens of line decodes.
const FILE_CASES: usize = 20_000;

/// Bytes a hostile peer likes: codec separators, signs, escapes, a line
/// break and a two-byte UTF-8 character.
const HOSTILE: [&str; 9] = [" ", "+", "-", "%", ",", ":", "#", "\n", "é"];

/// Numbers the codecs must refuse or read exactly: one past `u64::MAX`,
/// a negative and an explicitly signed one.
const NUMBERS: [&str; 3] = ["18446744073709551616", "-1", "+5"];

const BLUEPRINT: &str = r#"
    blueprint hostile
    view default
        property uptodate default true
        when ckin do uptodate = true; post outofdate down done
        when outofdate do uptodate = false done
    endview
    view src endview
    view der
        link_from src move propagates outofdate type derived
    endview
    endblueprint
"#;

/// SplitMix64: a fixed seed gives the same mutants on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One to three stacked edits of `seed`; `seeds` supplies splice tails.
/// Invalid UTF-8 left by a flip or a cut becomes U+FFFD, as a lossy
/// line reader would hand it over.
fn mutate(rng: &mut Rng, seed: &str, seeds: &[String]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        match rng.below(6) {
            0 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            2 => {
                let other = seeds[rng.below(seeds.len())].as_bytes();
                let from = rng.below(other.len() + 1);
                bytes.truncate(rng.below(bytes.len() + 1));
                bytes.extend_from_slice(&other[from..]);
            }
            3 => {
                let at = rng.below(bytes.len() + 1);
                let insert = HOSTILE[rng.below(HOSTILE.len())].as_bytes();
                bytes.splice(at..at, insert.iter().copied());
            }
            4 => {
                let runs = digit_runs(&bytes);
                let number = NUMBERS[rng.below(NUMBERS.len())].as_bytes();
                let (start, end) = if runs.is_empty() {
                    let at = rng.below(bytes.len() + 1);
                    (at, at)
                } else {
                    runs[rng.below(runs.len())]
                };
                bytes.splice(start..end, number.iter().copied());
            }
            _ if !bytes.is_empty() => {
                bytes.remove(rng.below(bytes.len()));
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `(start, end)` of every maximal run of ASCII digits.
fn digit_runs(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        if bytes[at].is_ascii_digit() {
            let start = at;
            while at < bytes.len() && bytes[at].is_ascii_digit() {
                at += 1;
            }
            runs.push((start, at));
        } else {
            at += 1;
        }
    }
    runs
}

/// Checks the property over `cases` mutants of `seeds`. Each seed must
/// itself decode and round-trip, which proves it is a real encoding.
fn holds<T: PartialEq + Debug, E: Debug>(
    name: &str,
    rng_seed: u64,
    cases: usize,
    seeds: &[String],
    decode: impl Fn(&str) -> Result<T, E>,
    encode: impl Fn(&T) -> String,
) {
    assert!(!seeds.is_empty(), "{name}: no seeds");
    let roundtrips = |line: &str, v: T| {
        let again = encode(&v);
        match decode(&again) {
            Ok(w) if w == v => {}
            other => panic!(
                "{name}: {line:?} decoded to {v:?}, whose encoding {again:?} decodes to {other:?}"
            ),
        }
    };
    for seed in seeds {
        match decode(seed) {
            Ok(v) => roundtrips(seed, v),
            Err(e) => panic!("{name}: seed {seed:?} does not decode: {e:?}"),
        }
    }
    let mut rng = Rng(rng_seed);
    let mut accepted = 0usize;
    for _ in 0..cases {
        let seed = &seeds[rng.below(seeds.len())];
        let line = mutate(&mut rng, seed, seeds);
        match catch_unwind(AssertUnwindSafe(|| decode(&line))) {
            Err(_) => panic!("{name} panicked on {line:?}"),
            Ok(Ok(v)) => {
                accepted += 1;
                roundtrips(&line, v);
            }
            Ok(Err(_)) => {}
        }
    }
    // Some mutants (a flipped letter inside a name, say) are still valid
    // encodings; when none are, the roundtrip half checked nothing.
    assert!(accepted > 0, "{name}: every mutant was refused");
}

/// FNV-1a-64, the journal's per-record checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// `text` with every line from the `from`-th on framed as a journal
/// record, its FNV-1a-64 checksum in front; a final line without its
/// newline keeps none.
fn frame_records(text: &str, from: usize) -> String {
    let mut framed = String::with_capacity(text.len() + 17 * text.lines().count());
    for (i, line) in text.split_inclusive('\n').enumerate() {
        if i >= from {
            let payload = line.strip_suffix('\n').unwrap_or(line);
            framed.push_str(&format!("{:016x} ", fnv1a(payload.as_bytes())));
        }
        framed.push_str(line);
    }
    framed
}

/// `ops` as unframed record lines `"<seq> <body>"`, numbered from `first`.
fn record_payloads(first: u64, ops: &[JournalOp]) -> String {
    ops.iter()
        .zip(first..)
        .map(|(op, seq)| format!("{seq} {}\n", op.encode()))
        .collect()
}

/// Real encodings of one journaled session.
struct Seeds {
    requests: Vec<String>,
    responses: Vec<String>,
    /// Every distinct line of the tail streams.
    tail_lines: Vec<String>,
    /// What the subscriber read after each request, as one stream.
    tail_streams: Vec<String>,
    /// The op bodies of the streamed records, plus the invocation ops.
    op_bodies: Vec<String>,
    /// The records of the `trace get` reply, plus a `begin` line with a
    /// lane and a shard.
    trace_records: Vec<String>,
    /// The posted event messages in `postEvent` wire form, plus one with
    /// quoted, escaped and empty arguments.
    wire_messages: Vec<String>,
    /// The saved project image and every checkpoint snapshot written.
    images: Vec<String>,
    /// Every state of the journal file, with each record's checksum
    /// stripped (`"<seq> <body>"` lines after the header).
    journals: Vec<String>,
}

/// The session runs once; every test mutates its own share of it.
fn session() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(record_session)
}

fn record_session() -> Seeds {
    let dir = std::env::temp_dir().join(format!("damocles-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal").to_string_lossy().into_owned();
    let saved_path = dir.join("project.img");
    let saved = saved_path.to_string_lossy().into_owned();
    let oid = |block: &str, view: &str, n: u32| Oid::new(block, view, n);
    let post = |event: &str, dir: Direction, target: Oid, arg: Option<&str>| {
        let mut message = EventMessage::new(event, dir, target);
        if let Some(arg) = arg {
            message = message.with_arg(arg);
        }
        Request::Post {
            message,
            user: "sim wrapper".into(),
        }
    };
    let requests = vec![
        Request::Stat,
        Request::Init {
            source: "blueprint broken view a".into(),
        },
        Request::Init {
            source: BLUEPRINT.into(),
        },
        Request::TailFrom { epoch: 0, seq: 0 },
        Request::EnableJournal {
            dir: journal.clone(),
            every: 4096,
        },
        Request::TailFrom { epoch: 0, seq: 0 },
        Request::Checkin {
            block: "cpu".into(),
            view: "src".into(),
            user: "yves".into(),
            payload: b"module cpu;\n".to_vec(),
        },
        Request::Checkin {
            block: "cpu".into(),
            view: "der".into(),
            user: "yves".into(),
            payload: Vec::new(),
        },
        Request::Connect {
            from: oid("cpu", "src", 1),
            to: oid("cpu", "der", 1),
        },
        Request::CreateObject {
            oid: oid("alu", "src", 1),
        },
        Request::CreateObject {
            oid: oid("alu", "src", 1),
        },
        Request::Trace {
            mode: TraceMode::On,
        },
        Request::Checkin {
            block: "cpu".into(),
            view: "src".into(),
            user: "ann lee".into(),
            payload: vec![0, 255, b'%', b' '],
        },
        post(
            "ckin",
            Direction::Up,
            oid("alu", "src", 1),
            Some("50% done"),
        ),
        Request::ProcessAll,
        Request::Checkpoint,
        Request::Trace {
            mode: TraceMode::Get,
        },
        Request::Trace {
            mode: TraceMode::Off,
        },
        Request::RefreshLets,
        Request::Show {
            oid: oid("cpu", "der", 1),
        },
        Request::Show {
            oid: oid("gpu", "der", 9),
        },
        Request::Query {
            terms: "view=der stale.uptodate latest".into(),
        },
        Request::WorkLeft {
            oid: oid("cpu", "der", 1),
            prop: "uptodate".into(),
        },
        Request::Summary {
            prop: "uptodate".into(),
        },
        Request::Snapshot {
            name: "tape out".into(),
            root: oid("cpu", "der", 1),
        },
        Request::ListSnapshots,
        Request::Freeze { view: "src".into() },
        Request::Checkin {
            block: "cpu".into(),
            view: "src".into(),
            user: "yves".into(),
            payload: b"late".to_vec(),
        },
        Request::Thaw { view: "src".into() },
        Request::Checkout {
            block: "cpu".into(),
            view: "src".into(),
            user: "yves".into(),
        },
        Request::Checkout {
            block: "cpu".into(),
            view: "src".into(),
            user: "ann".into(),
        },
        Request::SetRetryPolicy {
            script: Some("hdl sim".into()),
            max_retries: 3,
            base_delay_ms: 10,
            multiplier: 2,
            timeout_ms: 30_000,
        },
        Request::PumpInvocations,
        Request::Stat,
        Request::Audit,
        Request::Dump,
        Request::Dot,
        Request::Replay { epoch: 0, seq: 3 },
        Request::SaveProject {
            path: saved.clone(),
        },
        Request::LoadProject { path: saved },
        Request::Attach {
            project: "t1".into(),
            create: true,
        },
        Request::ListProjects,
        Request::Fence { term: 5 },
        Request::ProcessAll,
        Request::Promote {
            dir: journal.clone(),
            every: 4096,
            term: 6,
        },
        post("outofdate", Direction::Down, oid("cpu", "src", 2), None),
        Request::ProcessAll,
        Request::Recover {
            dir: dir.join("missing").to_string_lossy().into_owned(),
            every: 64,
        },
    ];
    // A subscriber follows the tail stream as the session runs: resets,
    // records, checkpoint epochs and keep-alives, the bytes a tail
    // connection writes.
    let mut svc: ProjectService = ProjectService::new();
    let hub = svc.tail_hub();
    let mut cursor = TailCursor { epoch: 0, seq: 0 };
    let mut chunk = String::new();
    let mut tail_lines = Vec::new();
    let mut tail_streams = Vec::new();
    let mut responses = Vec::new();
    let mut request_lines = Vec::new();
    let mut trace_records = vec!["begin ckin cpu,src,2 ann%20lee 9 +1 +3".to_string()];
    let mut images = Vec::new();
    let mut journals = Vec::new();
    let mut wire_messages = vec![
        EventMessage::new("sim", Direction::Down, oid("cpu", "der", 1))
            .with_arg("say \"hi\" \\ now")
            .with_arg("")
            .to_string(),
    ];
    for request in requests {
        request_lines.push(request.encode());
        if let Request::Post { message, .. } = &request {
            wire_messages.push(message.to_string());
        }
        let response = svc.call(request);
        if let Response::Trace { records } = &response {
            trace_records.extend(records.iter().cloned());
        }
        responses.push(response.encode());
        let mut wire = Vec::new();
        while let Ok(owed) = hub.next_owed(&mut cursor, Duration::from_millis(1)) {
            let start = wire.len();
            owed.write_wire(&mut wire, &mut chunk).unwrap();
            if wire[start..] == *b"tail-ping\n" {
                break;
            }
        }
        let wire = String::from_utf8(wire).unwrap();
        tail_lines.extend(wire.lines().map(str::to_string));
        if wire != "tail-ping\n" {
            tail_streams.push(wire);
        }
        let on_disk = |file: &str| std::fs::read_to_string(dir.join("journal").join(file));
        images.extend(on_disk("snapshot.ddb"));
        if let Ok(text) = on_disk("journal.djl") {
            let mut lines = text.lines();
            let header = lines.next().unwrap_or_default();
            let records = lines.map(|line| line.split_once(' ').unwrap().1.to_string() + "\n");
            journals.push(format!("{header}\n{}", records.collect::<String>()));
        }
    }
    tail_lines.sort();
    tail_lines.dedup();
    images.push(std::fs::read_to_string(&saved_path).unwrap());
    for files in [&mut images, &mut journals] {
        files.sort();
        files.dedup();
    }
    for line in ["frobnicate", "show cpu", "checkin a b c zz"] {
        responses.push(Response::Error(Request::decode(line).unwrap_err()).encode());
    }
    let invoke_ops = [
        JournalOp::InvokeQueued {
            id: 7,
            script: "hdl sim".into(),
            args: vec!["cpu,src,2".into(), String::new()],
            notify: true,
            origin: "cpu,src,2".into(),
            event: "ckin".into(),
        },
        JournalOp::InvokeCompleted { id: 7 },
        JournalOp::InvokeFailed {
            id: 7,
            attempts: 4,
            reason: "timed out: 30000 ms".into(),
        },
    ];
    // A record line is `<checksum> <seq> <body>`.
    let op_bodies = tail_lines
        .iter()
        .filter_map(|line| match read_stream(line).ok()?.pop()? {
            TailItem::Records { batch, .. } => {
                batch.line(0).splitn(3, ' ').nth(2).map(str::to_string)
            }
            _ => None,
        })
        .chain(invoke_ops.iter().map(JournalOp::encode))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    Seeds {
        requests: request_lines,
        responses,
        tail_lines,
        tail_streams,
        op_bodies,
        trace_records,
        wire_messages,
        images,
        journals,
    }
}

#[test]
fn request_decode_survives_mutants() {
    let seeds = &session().requests;
    holds(
        "Request::decode",
        1,
        CASES,
        seeds,
        Request::decode,
        Request::encode,
    );
}

#[test]
fn response_decode_survives_mutants() {
    let seeds = &session().responses;
    assert!(seeds.iter().any(|s| s.starts_with("err ")), "{seeds:?}");
    holds(
        "Response::decode",
        2,
        CASES,
        seeds,
        Response::decode,
        Response::encode,
    );
}

/// A whole stream through a [`TailReader`]: every item, when the stream
/// ends cleanly at its end.
fn read_stream(wire: &str) -> Result<Vec<TailItem>, String> {
    let mut reader = TailReader::new(wire.as_bytes());
    let mut items = Vec::new();
    loop {
        match reader.next_item() {
            Ok(item) => items.push(item),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(items),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Each tail line as a stream of one, and the streams the subscriber
/// read, through a [`TailReader`].
#[test]
fn tail_reader_survives_mutants() {
    let seeds = session();
    let lines: Vec<String> = seeds.tail_lines.iter().map(|l| format!("{l}\n")).collect();
    for kind in ["tail-reset ", "tail-rec ", "tail-epoch ", "tail-ping"] {
        assert!(
            lines.iter().any(|s| s.starts_with(kind)),
            "{kind}: {lines:?}"
        );
    }
    let batched = seeds.tail_streams.iter().any(|stream| {
        read_stream(stream).is_ok_and(|items| {
            items
                .iter()
                .any(|item| matches!(item, TailItem::Records { batch, .. } if batch.len() > 1))
        })
    });
    assert!(batched, "no seed streams a batch: {:?}", seeds.tail_streams);
    let encode = |items: &Vec<TailItem>| -> String { items.iter().map(TailItem::encode).collect() };
    holds(
        "TailReader, one line",
        3,
        CASES,
        &lines,
        read_stream,
        encode,
    );
    holds(
        "TailReader",
        8,
        CASES,
        &seeds.tail_streams,
        read_stream,
        encode,
    );
}

#[test]
fn journal_op_decode_survives_mutants() {
    let seeds = &session().op_bodies;
    holds(
        "JournalOp::decode",
        4,
        CASES,
        seeds,
        JournalOp::decode,
        JournalOp::encode,
    );
}

/// The seeds are the checksummed payloads `"<seq> <body>"` of every op
/// body at one sequence number, so a mutant that leaves the number alone
/// reaches the op decoder; each mutant is framed with its own checksum.
#[test]
fn decode_record_survives_rechecksummed_mutants() {
    const SEQ: u64 = 7;
    let seeds: Vec<String> = session()
        .op_bodies
        .iter()
        .map(|body| format!("{SEQ} {body}"))
        .collect();
    let frame = |payload: &str| format!("{:016x} {payload}", fnv1a(payload.as_bytes()));
    holds(
        "decode_record",
        5,
        CASES,
        &seeds,
        |payload| decode_record(&frame(payload), SEQ),
        |op| {
            let line = encode_record(SEQ, op);
            let payload = line.strip_suffix('\n').unwrap().split_once(' ').unwrap().1;
            payload.to_string()
        },
    );
}

#[test]
fn trace_record_decode_survives_mutants() {
    let seeds = &session().trace_records;
    for kind in ["begin ", "deliver ", "write ", "fire ", "end "] {
        assert!(
            seeds.iter().any(|s| s.starts_with(kind)),
            "{kind}: {seeds:?}"
        );
    }
    holds(
        "TraceRecord::decode",
        6,
        CASES,
        seeds,
        TraceRecord::decode,
        TraceRecord::encode,
    );
}

#[test]
fn event_message_parse_wire_survives_mutants() {
    let seeds = &session().wire_messages;
    assert!(seeds.len() >= 3, "{seeds:?}");
    holds(
        "EventMessage::parse_wire",
        7,
        CASES,
        seeds,
        EventMessage::parse_wire,
        EventMessage::to_string,
    );
}

#[test]
fn load_project_survives_mutants() {
    let seeds = &session().images;
    assert!(seeds.len() >= 2, "{seeds:?}");
    assert!(seeds.iter().any(|s| s.contains("\ndata ")), "{seeds:?}");
    // A loaded project encodes as its saved image.
    holds(
        "persist::load_project",
        9,
        FILE_CASES,
        seeds,
        |image| {
            persist::load_project(image)
                .map(|(db, workspace)| persist::save_project(&db, &workspace))
        },
        String::clone,
    );
}

/// A journal file's records are framed with their own checksums, so a
/// mutant that keeps the numbering reaches the op decoder.
#[test]
fn parse_journal_survives_rechecksummed_mutants() {
    let seeds = &session().journals;
    assert!(
        seeds.iter().any(|s| s.lines().count() > 8),
        "no seed holds a run of records: {seeds:?}"
    );
    holds(
        "parse_journal",
        10,
        FILE_CASES,
        seeds,
        |text| {
            parse_journal(frame_records(text, 1).as_bytes())
                .map(|tail| (tail.epoch, tail.term, tail.ops))
        },
        |(epoch, term, ops)| match (epoch, term) {
            (Some(epoch), Some(term)) => encode_header(*epoch, *term) + &record_payloads(0, ops),
            _ => String::new(),
        },
    );
}

/// The records of every journal state as one batch, each framed with its
/// own checksum.
#[test]
fn record_batch_decode_survives_rechecksummed_mutants() {
    let seeds: Vec<String> = session()
        .journals
        .iter()
        .filter_map(|text| Some(text.split_once('\n')?.1.to_string()))
        .filter(|records| !records.is_empty())
        .collect();
    holds(
        "RecordBatch::decode",
        11,
        FILE_CASES,
        &seeds,
        |text| {
            let batch = RecordBatch::from_lines(frame_records(text, 0));
            batch
                .decode()
                .map(|ops| (batch.first_seq().unwrap_or(0), ops))
        },
        |(first, ops)| record_payloads(*first, ops),
    );
}

/// `init`'s path: parse, validate, compile. A blueprint encodes through
/// the printer, and two blueprints are equal up to their source spans.
#[test]
fn blueprint_init_survives_mutants() {
    let printed = printer::print(&parser::parse(BLUEPRINT).unwrap());
    let seeds = [BLUEPRINT.to_string(), printed];
    holds(
        "init",
        12,
        FILE_CASES,
        &seeds,
        |source| {
            let blueprint = parser::parse(source).map_err(|e| e.to_string())?;
            validate::check(&blueprint).map_err(|issues| format!("{issues:?}"))?;
            CompiledBlueprint::compile(&blueprint);
            Ok::<_, String>(blueprint.normalized())
        },
        printer::print,
    );
}

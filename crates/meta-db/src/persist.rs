//! Save/load of the meta-database as a line-oriented text image.
//!
//! DAMOCLES is a project *database*: it outlives any one session. This
//! module serializes the full database — OIDs, typed properties, links with
//! their PROPAGATE sets and annotations — to a stable text format and loads
//! it back, with a round-trip guarantee (see the property test in
//! `tests/persist_roundtrip.rs`).
//!
//! Format (version 1):
//!
//! ```text
//! damocles-db v1
//! oid cpu,schematic,1
//! prop uptodate b:true
//! prop nl_sim_res s:good
//! link cpu,HDL_model,1 cpu,schematic,1 derive derive_from outofdate,nl_sim
//! lprop weight i:3
//! ```
//!
//! `prop` lines attach to the preceding `oid`; `lprop` lines to the
//! preceding `link`. Values carry a type tag (`b:`/`i:`/`s:`) so `"4"` the
//! string survives distinct from `4` the integer; strings are
//! percent-escaped for whitespace, `%` and newlines.
//!
//! Scope: the image captures the durable project state — meta-data and
//! (via [`save_project`]) design payloads. Session-transient state is
//! deliberately excluded: queued events, check-out holders and the
//! workspace's logical clock all belong to the running server, matching the
//! paper's split between the meta-database and the tracking session.
//!
//! Every encoder here has an `*_into` form that appends to a caller's
//! `String`; the `String`-returning forms are thin wrappers over them.
//! An image is rendered by one routine, [`render_project`], borrowing from
//! the database: into one `String` for [`save`] and [`save_project`], or
//! a chunk at a time through to a file (`journal::write_image_atomic`).

use std::convert::Infallible;

use crate::db::{MetaDb, OidId};
use crate::error::MetaError;
use crate::link::{LinkClass, LinkKind};
use crate::oid::Oid;
use crate::property::Value;
use crate::workspace::Workspace;

const HEADER: &str = "damocles-db v1";

/// Bytes of image text a streamed render gathers before it hands them
/// on: [`render_project`] spills its buffer at the end of the first
/// record that brings it to this size.
pub const IMAGE_CHUNK_BYTES: usize = 64 * 1024;

/// Lower-hex digit of each nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Percent-escapes whitespace, `%` and newlines so `s` survives as one
/// whitespace-delimited word of a line-oriented encoding. Shared by the
/// snapshot image, the journal and the command-protocol codec.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends [`escape`]`(s)` to `out`. Runs of bytes that need no escape
/// are copied whole; every escaped character is ASCII, so byte positions
/// are always character boundaries.
pub fn escape_into(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let code = match b {
            b'%' => "%25",
            b' ' => "%20",
            b'\t' => "%09",
            b'\n' => "%0A",
            b'\r' => "%0D",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        out.push_str(code);
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Appends the decimal digits of `n` (what `{n}` formats).
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

/// Appends an OID in its wire form `block,view,version`.
pub(crate) fn push_oid(out: &mut String, oid: &Oid) {
    out.push_str(oid.block.as_str());
    out.push(',');
    out.push_str(oid.view.as_str());
    out.push(',');
    push_u64(out, u64::from(oid.version));
}

/// Appends the link fields shared by snapshot `link` lines and journal
/// `link` records: `<from> <to> <class> <kind> <events>`, where `events`
/// is the escaped PROPAGATE set joined by commas, or `-` when empty.
pub(crate) fn push_link_fields(
    out: &mut String,
    from: &Oid,
    to: &Oid,
    class: LinkClass,
    kind: &LinkKind,
    events: impl IntoIterator<Item = impl AsRef<str>>,
) {
    push_oid(out, from);
    out.push(' ');
    push_oid(out, to);
    out.push_str(match class {
        LinkClass::Use => " use ",
        LinkClass::Derive => " derive ",
    });
    escape_into(out, kind.as_keyword());
    out.push(' ');
    let mut first = true;
    for event in events {
        if !first {
            out.push(',');
        }
        first = false;
        escape_into(out, event.as_ref());
    }
    if first {
        out.push('-');
    }
}

/// Appends `<keyword><escaped name> <encoded value>\n` — the `prop` and
/// `lprop` lines of an image (`keyword` includes its trailing space).
fn push_prop_line(out: &mut String, keyword: &str, name: &str, value: &Value) {
    out.push_str(keyword);
    escape_into(out, name);
    out.push(' ');
    encode_value_into(out, value);
    out.push('\n');
}

/// Inverse of [`escape`]. Each `%` takes exactly two hex digits
/// (`0-9a-fA-F`, as [`decode_hex`] does), so a sign or any other spelling
/// [`escape`] never writes is refused.
///
/// # Errors
///
/// A human-readable reason on a truncated or malformed escape.
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '%' {
            let hi = chars.next().ok_or("truncated escape")?;
            let lo = chars.next().ok_or("truncated escape")?;
            match (hi.to_digit(16), lo.to_digit(16)) {
                (Some(h), Some(l)) => out.push(char::from((h << 4 | l) as u8)),
                _ => return Err(format!("bad escape %{hi}{lo}")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Lower-hex encoding of an opaque payload, one pre-sized allocation.
pub fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    encode_hex_into(&mut out, bytes);
    out
}

/// Appends [`encode_hex`]`(bytes)` to `out`, two table-looked-up digits
/// per byte.
pub fn encode_hex_into(out: &mut String, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
    }
}

/// The 16 lower-hex digits of `n`, most significant first (what
/// `{n:016x}` formats), as ASCII bytes.
pub(crate) fn hex_digits(n: u64) -> [u8; 16] {
    let mut digits = [0u8; 16];
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit = HEX_DIGITS[((n >> (60 - 4 * i)) & 0xf) as usize];
    }
    digits
}

/// Inverse of [`encode_hex`]. Works on byte pairs and takes only the
/// digits `0-9a-fA-F` (no sign), so any input string, ASCII or not,
/// decodes or fails without panicking.
///
/// # Errors
///
/// A human-readable reason on odd length or non-hex digits.
pub fn decode_hex(hex: &str) -> Result<Vec<u8>, String> {
    if !hex.len().is_multiple_of(2) {
        return Err("odd hex length".to_string());
    }
    let digit = |b: u8| char::from(b).to_digit(16);
    hex.as_bytes()
        .chunks_exact(2)
        .map(|pair| match (digit(pair[0]), digit(pair[1])) {
            (Some(hi), Some(lo)) => Ok((hi << 4 | lo) as u8),
            _ => Err("bad hex payload".to_string()),
        })
        .collect()
}

/// Renders a typed [`Value`] as one word (`b:`/`i:`/`s:` tag + escaped
/// body) — the value encoding every line format of this crate shares.
pub fn encode_value(v: &Value) -> String {
    let mut out = String::new();
    encode_value_into(&mut out, v);
    out
}

/// Appends [`encode_value`]`(v)` to `out`.
pub fn encode_value_into(out: &mut String, v: &Value) {
    match v {
        Value::Bool(b) => out.push_str(if *b { "b:true" } else { "b:false" }),
        Value::Int(n) => {
            out.push_str(if *n < 0 { "i:-" } else { "i:" });
            push_u64(out, n.unsigned_abs());
        }
        Value::Str(s) => {
            out.push_str("s:");
            escape_into(out, s);
        }
    }
}

/// Inverse of [`encode_value`].
///
/// # Errors
///
/// A human-readable reason on a missing tag or malformed body.
pub fn decode_value(s: &str) -> Result<Value, String> {
    let (tag, body) = s.split_once(':').ok_or("value missing type tag")?;
    match tag {
        "b" => body
            .parse::<bool>()
            .map(Value::Bool)
            .map_err(|_| format!("bad bool `{body}`")),
        "i" => body
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("bad int `{body}`")),
        "s" => Ok(Value::Str(unescape(body)?)),
        other => Err(format!("unknown value tag `{other}`")),
    }
}

/// Serializes the database to its text image.
pub fn save(db: &MetaDb) -> String {
    let mut out = String::with_capacity(image_capacity(db));
    let Ok(()) = save_into(&mut out, db, &mut keep);
    out
}

/// The sink of a render into one `String`: it keeps every byte.
fn keep(_: &mut String) -> Result<(), Infallible> {
    Ok(())
}

/// Ends a record of a render: hands `out` to `spill` once it holds
/// [`IMAGE_CHUNK_BYTES`] or more.
fn record_end<E>(
    out: &mut String,
    spill: &mut impl FnMut(&mut String) -> Result<(), E>,
) -> Result<(), E> {
    if out.len() >= IMAGE_CHUNK_BYTES {
        spill(out)?;
    }
    Ok(())
}

/// A starting capacity for the image of `db` — roughly a line per object
/// and per link plus their property lines — so rendering seldom regrows.
fn image_capacity(db: &MetaDb) -> usize {
    HEADER.len() + 1 + 96 * (db.oid_count() + db.link_count())
}

/// Appends the [`save`] image of `db` to `out`, borrowing every OID,
/// link and value in place, and spilling it at record ends (see
/// [`render_project`]).
fn save_into<E>(
    out: &mut String,
    db: &MetaDb,
    spill: &mut impl FnMut(&mut String) -> Result<(), E>,
) -> Result<(), E> {
    out.push_str(HEADER);
    out.push('\n');

    let mut entries: Vec<_> = db.iter_oids().map(|(_, entry)| entry).collect();
    // Triplets are unique, so an unstable sort is still deterministic.
    entries.sort_unstable_by(|a, b| a.oid.cmp(&b.oid));
    for entry in entries {
        out.push_str("oid ");
        push_oid(out, &entry.oid);
        out.push('\n');
        for (name, value) in entry.props.iter() {
            push_prop_line(out, "prop ", name, value);
        }
        record_end(out, spill)?;
    }

    // Image order (sorted by endpoint triplets, ties in arena order) is
    // shared with the journal's link-tag assignment: `MetaDb::attach_journal`
    // and `journal::recover` both enumerate links through
    // `links_in_image_order`, so record order here IS the tag order there.
    for id in db.links_in_image_order() {
        let Ok(link) = db.link(id) else { continue };
        let (Ok(from), Ok(to)) = (db.oid(link.from), db.oid(link.to)) else {
            continue;
        };
        out.push_str("link ");
        let events = db.event_names(link.propagates());
        push_link_fields(out, from, to, link.class, &link.kind, events);
        out.push('\n');
        for (name, value) in link.props.iter() {
            push_prop_line(out, "lprop ", name, value);
        }
        record_end(out, spill)?;
    }
    Ok(())
}

/// Loads a database from its text image.
///
/// # Errors
///
/// Returns [`MetaError::ImageParse`] with the offending line for any format
/// violation, including a record the database refuses (a duplicate OID, a
/// link to an unknown one) and a `data` record ([`load_project`] reads
/// those).
pub fn load(image: &str) -> Result<MetaDb, MetaError> {
    load_image(image, None)
}

/// Loads an image in one pass over its lines, the `data` records into
/// `workspace`; without one they are refused.
fn load_image(image: &str, mut workspace: Option<&mut Workspace>) -> Result<MetaDb, MetaError> {
    let mut lines = image.lines();
    let header = lines.next().unwrap_or("");
    if header.trim() != HEADER {
        return Err(image_error(header, format!("expected header `{HEADER}`")));
    }
    let mut db = MetaDb::new();
    let mut owner = Owner::None;
    for line in lines {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        load_record(&mut db, &mut owner, workspace.as_deref_mut(), line)
            .map_err(|reason| image_error(line, reason))?;
    }
    Ok(db)
}

/// The record a `prop` or `lprop` line of an image belongs to.
enum Owner {
    None,
    Oid(OidId),
    Link(crate::link::LinkId),
}

fn image_error(line: &str, reason: String) -> MetaError {
    MetaError::ImageParse {
        reason,
        line: line.to_string(),
    }
}

/// Applies one image line to `db`, a `data` line to `workspace`; `owner`
/// is the record the last `oid` or `link` line opened.
fn load_record(
    db: &mut MetaDb,
    owner: &mut Owner,
    workspace: Option<&mut Workspace>,
    line: &str,
) -> Result<(), String> {
    let refused = |e: MetaError| e.short_reason();
    let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
    match keyword {
        "oid" => {
            let oid: Oid = rest.trim().parse().map_err(refused)?;
            *owner = Owner::Oid(db.create_oid(oid).map_err(refused)?);
        }
        "prop" => {
            let Owner::Oid(id) = *owner else {
                return Err("prop before any oid".to_string());
            };
            let (name, value) = rest.split_once(' ').ok_or("prop needs name and value")?;
            db.set_prop(id, &unescape(name)?, decode_value(value)?)
                .map_err(refused)?;
        }
        "link" => {
            let words: Vec<&str> = rest.split_whitespace().collect();
            let [from, to, class, kind, propagates] = words.as_slice() else {
                return Err("link needs 5 fields".to_string());
            };
            let from_id = db
                .require(&from.parse().map_err(refused)?)
                .map_err(refused)?;
            let to_id = db.require(&to.parse().map_err(refused)?).map_err(refused)?;
            let class = match *class {
                "use" => LinkClass::Use,
                "derive" => LinkClass::Derive,
                other => return Err(format!("unknown link class `{other}`")),
            };
            let kind: LinkKind = unescape(kind)?
                .parse()
                .expect("LinkKind::from_str is infallible");
            let events: Vec<String> = if *propagates == "-" {
                Vec::new()
            } else {
                propagates
                    .split(',')
                    .map(unescape)
                    .collect::<Result<_, _>>()?
            };
            let link = db
                .add_link_with(from_id, to_id, class, kind, events)
                .map_err(refused)?;
            *owner = Owner::Link(link);
        }
        "lprop" => {
            let Owner::Link(link) = *owner else {
                return Err("lprop before any link".to_string());
            };
            let (name, value) = rest.split_once(' ').ok_or("lprop needs name and value")?;
            db.set_link_prop(link, &unescape(name)?, decode_value(value)?)
                .map_err(refused)?;
        }
        "data" => {
            let Some(workspace) = workspace else {
                return Err("unknown record `data`".to_string());
            };
            let mut words = rest.split_whitespace();
            let oid: Oid = words
                .next()
                .ok_or("missing OID")?
                .parse()
                .map_err(refused)?;
            let payload = decode_hex(words.next().unwrap_or(""))?;
            workspace.store(db.require(&oid).map_err(refused)?, payload);
        }
        other => return Err(format!("unknown record `{other}`")),
    }
    Ok(())
}

/// Serializes database + workspace payloads (hex-encoded `data` records
/// appended to the [`save`] image).
pub fn save_project(db: &MetaDb, workspace: &Workspace) -> String {
    let data_capacity: usize = workspace
        .payloads()
        .map(|(_, datum)| 64 + 2 * datum.content.len())
        .sum();
    let mut out = String::with_capacity(image_capacity(db) + data_capacity);
    let Ok(()) = render_project(db, workspace, &mut out, &mut keep);
    out
}

/// Renders the [`save_project`] image of `db` and `workspace` into `out`,
/// handing `out` to `spill` at the end of each record once it holds
/// [`IMAGE_CHUNK_BYTES`] or more. A sink that writes `out` through and
/// clears it streams the image in chunks of about that size; the
/// `String` sink of [`save_project`] keeps it all. What a render leaves
/// in `out` is the image's last bytes, not yet spilled.
///
/// # Errors
///
/// The first error `spill` returns; the render stops there.
pub fn render_project<E>(
    db: &MetaDb,
    workspace: &Workspace,
    out: &mut String,
    spill: &mut impl FnMut(&mut String) -> Result<(), E>,
) -> Result<(), E> {
    save_into(out, db, spill)?;
    let mut data: Vec<(&Oid, &[u8])> = workspace
        .payloads()
        .filter_map(|(id, datum)| Some((db.oid(id).ok()?, datum.content.as_slice())))
        .collect();
    data.sort_unstable_by(|a, b| a.0.cmp(b.0));
    for (oid, payload) in data {
        out.push_str("data ");
        push_oid(out, oid);
        out.push(' ');
        encode_hex_into(out, payload);
        out.push('\n');
        record_end(out, spill)?;
    }
    Ok(())
}

/// Loads database + workspace from a [`save_project`] image, in one pass:
/// a `data` record names an OID an earlier `oid` record created.
///
/// # Errors
///
/// Returns [`MetaError::ImageParse`] on any format violation.
pub fn load_project(image: &str) -> Result<(MetaDb, Workspace), MetaError> {
    let mut workspace = Workspace::new("restored");
    let db = load_image(image, Some(&mut workspace))?;
    Ok((db, workspace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetaDb {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap();
        let b = db.create_oid(Oid::new("cpu", "schematic", 1)).unwrap();
        db.set_prop(a, "sim_result", Value::Str("4 errors".into()))
            .unwrap();
        db.set_prop(a, "uptodate", Value::Bool(true)).unwrap();
        db.set_prop(b, "version_count", Value::Int(7)).unwrap();
        let l = db
            .add_link_with(
                a,
                b,
                LinkClass::Derive,
                LinkKind::DeriveFrom,
                ["outofdate", "nl sim"],
            )
            .unwrap();
        db.set_link_prop(l, "weight", Value::Int(3)).unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = sample();
        let image = save(&db);
        let loaded = load(&image).unwrap();
        assert_eq!(save(&loaded), image, "save∘load∘save is stable");
        assert_eq!(loaded.oid_count(), 2);
        assert_eq!(loaded.link_count(), 1);
        let a = loaded.resolve(&Oid::new("cpu", "HDL_model", 1)).unwrap();
        assert_eq!(
            loaded.get_prop(a, "sim_result").unwrap(),
            Some(&Value::Str("4 errors".into()))
        );
        assert_eq!(
            loaded.get_prop(a, "uptodate").unwrap(),
            Some(&Value::Bool(true))
        );
        let (_, link) = loaded.iter_links().next().unwrap();
        assert!(loaded.event_names(link.propagates()).contains(&"outofdate"));
        assert!(loaded.event_names(link.propagates()).contains(&"nl sim"));
        assert_eq!(link.props.get("weight"), Some(&Value::Int(3)));
    }

    #[test]
    fn type_fidelity_for_stringly_numbers() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        db.set_prop(a, "s", Value::Str("42".into())).unwrap();
        db.set_prop(a, "n", Value::Int(42)).unwrap();
        db.set_prop(a, "t", Value::Str("true".into())).unwrap();
        let loaded = load(&save(&db)).unwrap();
        let id = loaded.resolve(&Oid::new("b", "v", 1)).unwrap();
        assert_eq!(
            loaded.get_prop(id, "s").unwrap(),
            Some(&Value::Str("42".into()))
        );
        assert_eq!(loaded.get_prop(id, "n").unwrap(), Some(&Value::Int(42)));
        assert_eq!(
            loaded.get_prop(id, "t").unwrap(),
            Some(&Value::Str("true".into()))
        );
    }

    #[test]
    fn escaping_survives_hostile_content() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        db.set_prop(a, "msg", Value::Str("line one\nline two % done".into()))
            .unwrap();
        let loaded = load(&save(&db)).unwrap();
        let id = loaded.resolve(&Oid::new("b", "v", 1)).unwrap();
        assert_eq!(
            loaded.get_prop(id, "msg").unwrap().unwrap().as_atom(),
            "line one\nline two % done"
        );
    }

    #[test]
    fn rejects_malformed_images() {
        for bad in [
            "",
            "not-a-header",
            "damocles-db v1\nprop orphan s:x",
            "damocles-db v1\nlprop orphan s:x",
            "damocles-db v1\noid b,v,1\nprop broken",
            "damocles-db v1\noid b,v,1\nprop p q:x",
            "damocles-db v1\nlink a,v,1 b,v,1 use composition -",
            "damocles-db v1\nmystery record",
            "damocles-db v1\noid a,v,1\ndata a,v,1 0f",
        ] {
            assert!(load(bad).is_err(), "should reject: {bad:?}");
        }
        // One pass: a `data` record before its `oid` names an unknown OID.
        assert!(load_project("damocles-db v1\ndata a,v,1 0f\noid a,v,1").is_err());
    }

    #[test]
    fn project_image_restores_payloads() {
        let mut db = MetaDb::new();
        let mut ws = crate::workspace::Workspace::new("w");
        let (id, oid) = ws
            .checkin(
                &mut db,
                "cpu",
                "HDL_model",
                "yves",
                b"module cpu; \xffraw".to_vec(),
            )
            .unwrap();
        db.set_prop(id, "uptodate", Value::Bool(true)).unwrap();
        let image = save_project(&db, &ws);
        let (db2, ws2) = load_project(&image).unwrap();
        let id2 = db2.require(&oid).unwrap();
        assert_eq!(
            ws2.datum(id2).unwrap().content,
            b"module cpu; \xffraw".to_vec()
        );
        assert_eq!(
            db2.get_prop(id2, "uptodate").unwrap(),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn project_image_refuses_hostile_hex_payloads() {
        let mut db = MetaDb::new();
        let mut ws = crate::workspace::Workspace::new("w");
        ws.checkin(&mut db, "a", "HDL_model", "yves", vec![0x0f])
            .unwrap();
        let image = save_project(&db, &ws);
        let clean = "data a,HDL_model,1 0f\n";
        assert!(image.ends_with(clean), "{image}");
        for payload in ["0é0", "+f"] {
            let hostile = image.replace(clean, &format!("data a,HDL_model,1 {payload}\n"));
            assert!(load_project(&hostile).is_err(), "{payload}");
        }
    }

    #[test]
    fn unescape_takes_only_hex_digits() {
        assert_eq!(unescape("a%20b%0a%25"), Ok("a b\n%".to_string()));
        for bad in ["%+f", "%-1", "%0x", "%é0", "%2", "%"] {
            assert!(unescape(bad).is_err(), "{bad}");
        }
        // A sign-prefixed escape in a string value is a refused image line.
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        db.set_prop(a, "p", Value::Str("\n".into())).unwrap();
        let image = save_project(&db, &crate::workspace::Workspace::new("w"));
        assert!(image.contains("prop p s:%0A\n"), "{image}");
        assert!(load_project(&image).is_ok());
        let hostile = image.replace("s:%0A", "s:%+f");
        assert!(load_project(&hostile).is_err(), "{hostile}");
    }

    #[test]
    fn a_streamed_render_spills_the_string_image_in_chunks() {
        let mut db = MetaDb::new();
        let mut ws = Workspace::new("w");
        let mut prev = None;
        for i in 0..3_000 {
            let (id, _) = ws
                .checkin(&mut db, &format!("b{i}"), "v", "yves", vec![1; 16])
                .unwrap();
            db.set_prop(id, "msg", Value::Str(format!("{i} é")))
                .unwrap();
            if let Some(p) = prev {
                db.add_link_with(p, id, LinkClass::Use, LinkKind::Composition, ["e"])
                    .unwrap();
            }
            prev = Some(id);
        }
        let image = save_project(&db, &ws);
        assert!(image.len() > 3 * IMAGE_CHUNK_BYTES);
        let mut chunks = Vec::new();
        let mut out = String::new();
        let spilled: Result<(), ()> = render_project(&db, &ws, &mut out, &mut |out| {
            chunks.push(std::mem::take(out));
            Ok(())
        });
        spilled.unwrap();
        chunks.push(out);
        assert_eq!(chunks.concat(), image);
        let longest = image.lines().map(str::len).max().unwrap();
        let (_, full) = chunks.split_last().unwrap();
        assert!(full.len() >= 3);
        for chunk in full {
            assert!(chunk.len() >= IMAGE_CHUNK_BYTES && chunk.ends_with('\n'));
            assert!(chunk.len() < IMAGE_CHUNK_BYTES + 4 * longest);
        }
        // A failed spill stops the render.
        let mut out = String::new();
        let failed = render_project(&db, &ws, &mut out, &mut |_| Err("disk full"));
        assert_eq!(failed, Err("disk full"));
        assert!(out.len() < IMAGE_CHUNK_BYTES + 4 * longest);
    }

    #[test]
    fn empty_db_roundtrips() {
        let db = MetaDb::new();
        let loaded = load(&save(&db)).unwrap();
        assert_eq!(loaded.oid_count(), 0);
    }
}

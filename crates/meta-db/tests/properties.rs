//! Property tests on meta-database invariants: arena address stability,
//! property maps against an ordered-map model, version-chain ordering, link
//! incidence symmetry, wire-format round-trips, hex payload decoding.

use std::collections::{BTreeMap, BTreeSet};

use damocles_meta::persist::{decode_hex, encode_hex, escape, unescape};
use damocles_meta::{
    Arena, Direction, EventMessage, LinkClass, LinkKind, MetaDb, MetaError, Oid, OidId,
    PropertyMap, Value, VersionHistory,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ArenaOp {
    Insert(u16),
    RemoveNth(usize),
    LookupNth(usize),
}

fn arena_ops() -> impl Strategy<Value = Vec<ArenaOp>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u16>().prop_map(ArenaOp::Insert),
            any::<usize>().prop_map(ArenaOp::RemoveNth),
            any::<usize>().prop_map(ArenaOp::LookupNth),
        ],
        0..120,
    )
}

proptest! {
    /// The arena behaves exactly like a map from issued handles to values:
    /// live handles resolve to their value, removed handles never resolve,
    /// and `len` matches the live count.
    #[test]
    fn arena_matches_model(ops in arena_ops()) {
        let mut arena: Arena<u16> = Arena::new();
        let mut live: Vec<(damocles_meta::ArenaIndex<u16>, u16)> = Vec::new();
        let mut dead: Vec<damocles_meta::ArenaIndex<u16>> = Vec::new();
        for op in ops {
            match op {
                ArenaOp::Insert(v) => {
                    let idx = arena.insert(v);
                    live.push((idx, v));
                }
                ArenaOp::RemoveNth(n) => {
                    if !live.is_empty() {
                        let (idx, v) = live.remove(n % live.len());
                        prop_assert_eq!(arena.remove(idx), Some(v));
                        dead.push(idx);
                    }
                }
                ArenaOp::LookupNth(n) => {
                    if !live.is_empty() {
                        let (idx, v) = live[n % live.len()];
                        prop_assert_eq!(arena.get(idx), Some(&v));
                    }
                }
            }
            prop_assert_eq!(arena.len(), live.len());
            for idx in &dead {
                prop_assert_eq!(arena.get(*idx), None);
            }
        }
        let from_iter: BTreeSet<u16> = arena.iter().map(|(_, v)| *v).collect();
        let expected: BTreeSet<u16> = live.iter().map(|(_, v)| *v).collect();
        prop_assert_eq!(from_iter, expected);
    }
}

// ---------------------------------------------------------------------
// Property maps
// ---------------------------------------------------------------------

/// A small name alphabet, so that sets overwrite and removals hit both
/// present and absent names.
const NAMES: [&str; 5] = ["a", "ab", "b", "owner", "uptodate"];

#[derive(Debug, Clone)]
enum MapOp {
    Set(usize, i64),
    Remove(usize),
    Get(usize),
    Contains(usize),
    Extend(Vec<(usize, i64)>),
    Collect(Vec<(usize, i64)>),
}

/// A value of each variant from a drawn number.
fn map_value(n: i64) -> Value {
    match n {
        0 => Value::Bool(true),
        1 => Value::Str("ok".into()),
        _ => Value::Int(n),
    }
}

fn map_pairs(pairs: &[(usize, i64)]) -> Vec<(String, Value)> {
    pairs
        .iter()
        .map(|&(n, v)| (NAMES[n].to_string(), map_value(v)))
        .collect()
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    let name = || 0..NAMES.len();
    let pairs = || proptest::collection::vec((0..NAMES.len(), 0i64..4), 0..6);
    proptest::collection::vec(
        prop_oneof![
            (name(), 0i64..4).prop_map(|(n, v)| MapOp::Set(n, v)),
            name().prop_map(MapOp::Remove),
            name().prop_map(MapOp::Get),
            name().prop_map(MapOp::Contains),
            pairs().prop_map(MapOp::Extend),
            pairs().prop_map(MapOp::Collect),
        ],
        0..80,
    )
}

proptest! {
    /// A property map behaves exactly like an ordered map from names to
    /// values: every call gives the model's result, and iteration runs in
    /// name order.
    #[test]
    fn property_map_matches_model(ops in map_ops()) {
        let mut map = PropertyMap::new();
        let mut model: BTreeMap<String, Value> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Set(n, v) => {
                    prop_assert_eq!(
                        map.set(NAMES[n], map_value(v)),
                        model.insert(NAMES[n].to_string(), map_value(v))
                    );
                }
                MapOp::Remove(n) => prop_assert_eq!(map.remove(NAMES[n]), model.remove(NAMES[n])),
                MapOp::Get(n) => prop_assert_eq!(map.get(NAMES[n]), model.get(NAMES[n])),
                MapOp::Contains(n) => {
                    prop_assert_eq!(map.contains(NAMES[n]), model.contains_key(NAMES[n]));
                }
                MapOp::Extend(pairs) => {
                    map.extend(map_pairs(&pairs));
                    model.extend(map_pairs(&pairs));
                }
                MapOp::Collect(pairs) => {
                    map = map_pairs(&pairs).into_iter().collect();
                    model = map_pairs(&pairs).into_iter().collect();
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            let pairs: Vec<(&str, &Value)> = map.iter().collect();
            let expected: Vec<(&str, &Value)> = model.iter().map(|(k, v)| (k.as_str(), v)).collect();
            prop_assert_eq!(pairs, expected);
            prop_assert!(map.names().eq(model.keys().map(String::as_str)));
        }
    }
}

// ---------------------------------------------------------------------
// Version chains
// ---------------------------------------------------------------------

proptest! {
    /// Whatever order versions are created in, the chain stays sorted, the
    /// latest is the max, and predecessors are the next-lower live version.
    #[test]
    fn version_chains_stay_sorted(mut versions in proptest::collection::btree_set(1u32..60, 1..12)) {
        let versions: Vec<u32> = {
            // Insert in a scrambled (reverse) order.
            let mut v: Vec<u32> = std::mem::take(&mut versions).into_iter().collect();
            v.reverse();
            v
        };
        let mut db = MetaDb::new();
        for &v in &versions {
            db.create_oid(Oid::new("blk", "view", v)).unwrap();
        }
        let mut sorted = versions.clone();
        sorted.sort_unstable();
        prop_assert_eq!(db.versions("blk", "view"), sorted.clone());
        let latest = db.latest_version("blk", "view").unwrap();
        prop_assert_eq!(db.oid(latest).unwrap().version, *sorted.last().unwrap());
        for window in sorted.windows(2) {
            let pred = db.predecessor(&Oid::new("blk", "view", window[1])).unwrap();
            prop_assert_eq!(db.oid(pred).unwrap().version, window[0]);
        }
        prop_assert!(db.predecessor(&Oid::new("blk", "view", sorted[0])).is_none());
    }

    /// Deleting versions keeps every index consistent.
    #[test]
    fn deletion_keeps_indices_consistent(
        n in 2u32..12,
        delete_mask in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let mut db = MetaDb::new();
        let ids: Vec<_> = (1..=n)
            .map(|v| db.create_oid(Oid::new("b", "v", v)).unwrap())
            .collect();
        let mut kept = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if delete_mask[i] {
                db.delete_oid(*id).unwrap();
            } else {
                kept.push(i as u32 + 1);
            }
        }
        prop_assert_eq!(db.versions("b", "v"), kept.clone());
        prop_assert_eq!(db.oid_count(), kept.len());
        match kept.last() {
            Some(&max) => {
                let latest = db.latest_version("b", "v").unwrap();
                prop_assert_eq!(db.oid(latest).unwrap().version, max);
            }
            None => prop_assert!(db.latest_version("b", "v").is_none()),
        }
    }
}

/// One step on a database of three blocks × three views.
#[derive(Debug, Clone)]
enum ChainOp {
    /// Create `(block, view, version)`: refused while that triplet is live.
    Create(usize, usize, u32),
    /// Delete the nth live object.
    DeleteNth(usize),
}

fn chain_ops() -> impl Strategy<Value = Vec<ChainOp>> {
    // Three creates to two deletes, so chains grow and shrink.
    let op =
        (0u8..5, 0usize..3, 0usize..3, 1u32..6, any::<usize>()).prop_map(|(kind, b, v, n, nth)| {
            match kind {
                0..=2 => ChainOp::Create(b, v, n),
                _ => ChainOp::DeleteNth(nth),
            }
        });
    proptest::collection::vec(op, 1..80)
}

const CHAIN_BLOCKS: [&str; 3] = ["cpu", "alu", "reg"];
const CHAIN_VIEWS: [&str; 3] = ["schematic", "layout", "netlist"];

proptest! {
    /// The version-chain index answers every lookup as a map from live
    /// triplets to addresses does, across blocks and views and through
    /// interleaved creates and deletes.
    #[test]
    fn chain_index_matches_model(ops in chain_ops()) {
        let mut db = MetaDb::new();
        let mut model: BTreeMap<Oid, OidId> = BTreeMap::new();
        let mut created: BTreeSet<Oid> = BTreeSet::new();
        for op in ops {
            match op {
                ChainOp::Create(b, v, n) => {
                    let oid = Oid::new(CHAIN_BLOCKS[b], CHAIN_VIEWS[v], n);
                    let result = db.create_oid(oid.clone());
                    if model.contains_key(&oid) {
                        let refused = matches!(result, Err(MetaError::DuplicateOid { .. }));
                        prop_assert!(refused, "{:?}", result);
                    } else {
                        // A new triplet, or one created and deleted before.
                        let id = result.unwrap();
                        prop_assert_eq!(db.oid(id).unwrap(), &oid);
                        model.insert(oid.clone(), id);
                        created.insert(oid);
                    }
                }
                ChainOp::DeleteNth(n) => {
                    if let Some(oid) = model.keys().nth(n % model.len().max(1)).cloned() {
                        let id = model.remove(&oid).unwrap();
                        prop_assert_eq!(&db.delete_oid(id).unwrap().oid, &oid);
                    }
                }
            }
            prop_assert_eq!(db.oid_count(), model.len());
            for oid in &created {
                prop_assert_eq!(db.resolve(oid), model.get(oid).copied());
            }
            for oid in model.keys() {
                let refused = matches!(db.create_oid(oid.clone()), Err(MetaError::DuplicateOid { .. }));
                prop_assert!(refused);
            }
            prop_assert_eq!(db.oid_count(), model.len());
            for block in CHAIN_BLOCKS {
                for view in CHAIN_VIEWS {
                    let chain: Vec<(u32, OidId)> = model
                        .iter()
                        .filter(|(oid, _)| oid.block.as_str() == block && oid.view.as_str() == view)
                        .map(|(oid, &id)| (oid.version, id))
                        .collect();
                    let versions: Vec<u32> = chain.iter().map(|&(v, _)| v).collect();
                    let ids: Vec<OidId> = chain.iter().map(|&(_, id)| id).collect();
                    prop_assert_eq!(db.versions(block, view), versions);
                    prop_assert_eq!(db.latest_version(block, view), ids.last().copied());
                    prop_assert_eq!(VersionHistory::of(&db, block, view).entries(), ids);
                    for n in 1..=6 {
                        let before = chain.iter().rev().find(|&&(v, _)| v < n).map(|&(_, id)| id);
                        prop_assert_eq!(db.predecessor(&Oid::new(block, view, n)), before);
                    }
                }
            }
            for view in CHAIN_VIEWS {
                let mut ids: Vec<OidId> = model
                    .iter()
                    .filter(|(oid, _)| oid.view.as_str() == view)
                    .map(|(_, &id)| id)
                    .collect();
                ids.sort();
                prop_assert_eq!(db.oids_of_view(view), ids);
            }
            let views: BTreeSet<&str> = model.keys().map(|oid| oid.view.as_str()).collect();
            let listed: Vec<String> = db.view_types().iter().map(ToString::to_string).collect();
            prop_assert!(listed.iter().map(String::as_str).eq(views));
        }
    }
}

// ---------------------------------------------------------------------
// Links
// ---------------------------------------------------------------------

proptest! {
    /// Incidence lists stay symmetric under arbitrary add/remove/move
    /// sequences: every live link appears in exactly its two endpoints'
    /// lists.
    #[test]
    fn link_incidence_is_symmetric(ops in proptest::collection::vec((0usize..8, 0usize..8, any::<bool>()), 1..40)) {
        let mut db = MetaDb::new();
        let ids: Vec<_> = (0..8)
            .map(|i| db.create_oid(Oid::new(format!("b{i}"), "v", 1)).unwrap())
            .collect();
        let mut links = Vec::new();
        for (a, b, remove) in ops {
            if remove && !links.is_empty() {
                let link = links.swap_remove(a % links.len());
                let _ = db.remove_link(link);
            } else if a != b {
                let link = db
                    .add_link_with(ids[a], ids[b], LinkClass::Derive, LinkKind::DeriveFrom, ["e"])
                    .unwrap();
                links.push(link);
            }
        }
        // Symmetry check.
        for &id in &ids {
            for link_id in db.entry(id).unwrap().link_ids() {
                let link = db.link(*link_id).unwrap();
                prop_assert!(link.from == id || link.to == id);
            }
        }
        for (link_id, link) in db.iter_links() {
            prop_assert!(db.entry(link.from).unwrap().link_ids().contains(&link_id));
            prop_assert!(db.entry(link.to).unwrap().link_ids().contains(&link_id));
        }
        prop_assert_eq!(db.link_count(), links.len());
    }

    /// `neighbors` is consistent with raw link traversal.
    #[test]
    fn neighbors_matches_manual_traversal(edges in proptest::collection::vec((0usize..6, 0usize..6), 0..15)) {
        let mut db = MetaDb::new();
        let ids: Vec<_> = (0..6)
            .map(|i| db.create_oid(Oid::new(format!("b{i}"), "v", 1)).unwrap())
            .collect();
        for (a, b) in edges {
            if a != b {
                db.add_link_with(ids[a], ids[b], LinkClass::Use, LinkKind::Composition, ["x"])
                    .unwrap();
            }
        }
        for &id in &ids {
            let down: BTreeSet<_> = db.neighbors(id, Direction::Down, Some("x")).unwrap().into_iter().collect();
            let manual: BTreeSet<_> = db
                .iter_links()
                .filter(|(_, l)| l.from == id)
                .map(|(_, l)| l.to)
                .collect();
            prop_assert_eq!(down, manual);
            let up: BTreeSet<_> = db.neighbors(id, Direction::Up, Some("x")).unwrap().into_iter().collect();
            let manual_up: BTreeSet<_> = db
                .iter_links()
                .filter(|(_, l)| l.to == id)
                .map(|(_, l)| l.from)
                .collect();
            prop_assert_eq!(up, manual_up);
        }
    }
}

// ---------------------------------------------------------------------
// Wire format & values
// ---------------------------------------------------------------------

proptest! {
    /// postEvent lines round-trip for arbitrary event names, targets and
    /// argument text (including quotes and backslashes).
    #[test]
    fn wire_roundtrip(
        event in "[a-z][a-z0-9_]{0,10}",
        block in "[A-Za-z][A-Za-z0-9_]{0,6}",
        view in "[A-Za-z][A-Za-z0-9_]{0,6}",
        version in 1u32..100,
        up in any::<bool>(),
        args in proptest::collection::vec("[ -~]{0,15}", 0..3),
    ) {
        let dir = if up { Direction::Up } else { Direction::Down };
        let mut msg = EventMessage::new(event, dir, Oid::new(block, view, version));
        for a in args {
            msg = msg.with_arg(a);
        }
        let parsed: EventMessage = msg.to_string().parse().unwrap();
        prop_assert_eq!(parsed, msg);
    }

    /// Value atoms round-trip through their canonical string form.
    #[test]
    fn value_atom_roundtrip(atom in "[a-zA-Z0-9_ ]{1,20}") {
        let v = Value::from_atom(&atom);
        // from_atom(as_atom(v)) is idempotent (canonical form is stable).
        prop_assert_eq!(Value::from_atom(&v.as_atom()), v);
    }

    /// loose_eq is reflexive and symmetric.
    #[test]
    fn loose_eq_properties(a in "[a-z0-9]{0,6}", b in "[a-z0-9]{0,6}") {
        let va = Value::from_atom(&a);
        let vb = Value::from_atom(&b);
        prop_assert!(va.loose_eq(&va));
        prop_assert_eq!(va.loose_eq(&vb), vb.loose_eq(&va));
    }

    /// `decode_hex` returns, never panics, on any string; it accepts
    /// exactly the even-length words of `0-9a-fA-F` (so a sign, a
    /// multi-byte character or any other spelling `encode_hex` never
    /// writes is refused) and inverts `encode_hex`.
    /// `persist::unescape` returns, never panics, on any string; it
    /// accepts exactly the words whose every `%` is followed by two hex
    /// digits, and inverts `escape`.
    #[test]
    fn unescape_takes_only_hex_digit_escapes(
        word in prop_oneof!["[%0-9a-fA-F+é-]{0,12}", "\\PC{0,12}"],
        text in "\\PC{0,16}",
    ) {
        let mut valid = true;
        let mut rest = word.as_str();
        while let Some(at) = rest.find('%') {
            match rest.as_bytes().get(at + 1..at + 3) {
                Some(digits) if digits.iter().all(u8::is_ascii_hexdigit) => {
                    rest = &rest[at + 3..];
                }
                _ => {
                    valid = false;
                    break;
                }
            }
        }
        prop_assert_eq!(unescape(&word).is_ok(), valid, "{:?}", word);
        prop_assert!(unescape("%+f").is_err());
        prop_assert!(unescape("%-1").is_err());
        prop_assert_eq!(unescape(&escape(&text)), Ok(text));
    }

    #[test]
    fn decode_hex_accepts_only_hex_digit_pairs(
        word in prop_oneof!["[0-9a-fA-F+é€-]{0,12}", "\\PC{0,12}"],
        bytes in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let hex_word = word.len() % 2 == 0 && word.bytes().all(|b| b.is_ascii_hexdigit());
        match decode_hex(&word) {
            Ok(decoded) => {
                prop_assert!(hex_word, "accepted {:?}", word);
                prop_assert_eq!(encode_hex(&decoded), word.to_ascii_lowercase());
            }
            Err(_) => prop_assert!(!hex_word, "refused {:?}", word),
        }
        prop_assert!(decode_hex("+f").is_err());
        prop_assert_eq!(decode_hex(&encode_hex(&bytes)), Ok(bytes));
    }
}

//! Property/value annotation of OIDs and Links.
//!
//! "A Link object can be annotated by property/value pairs" and "the design
//! state of an OID is given by the value of the OID's property" — Sections 2
//! and 3.2. The paper's values are shell-flavoured atoms (`ok`, `bad`,
//! `is_equiv`, `true`, `4 errors`); we parse them into a small typed lattice
//! while keeping string comparison semantics for mixed types.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A property value: a typed atom.
///
/// Atoms are classified on construction: `true`/`false` become [`Value::Bool`],
/// decimal integers become [`Value::Int`], everything else stays a
/// [`Value::Str`]. Comparison between different types falls back to the
/// canonical string form, matching the untyped flavour of the paper's rule
/// language (where `$uptodate == true` compares a stored atom with a bare
/// word).
///
/// # Example
///
/// ```
/// use damocles_meta::Value;
///
/// assert_eq!(Value::from_atom("true"), Value::Bool(true));
/// assert_eq!(Value::from_atom("4"), Value::Int(4));
/// assert_eq!(Value::from_atom("good"), Value::Str("good".into()));
/// // Mixed-type comparison goes through the canonical string form:
/// assert!(Value::Int(4).loose_eq(&Value::Str("4".into())));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Value {
    /// A boolean atom (`true` / `false`).
    Bool(bool),
    /// A signed integer atom.
    Int(i64),
    /// Any other atom or free text.
    Str(String),
}

impl Value {
    /// Classifies a textual atom into a typed value.
    pub fn from_atom(atom: &str) -> Value {
        match atom {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => match atom.parse::<i64>() {
                Ok(n) => Value::Int(n),
                Err(_) => Value::Str(atom.to_string()),
            },
        }
    }

    /// The canonical string form (what a shell wrapper would see).
    pub fn as_atom(&self) -> String {
        match self {
            Value::Bool(b) => b.to_string(),
            Value::Int(n) => n.to_string(),
            Value::Str(s) => s.clone(),
        }
    }

    /// Truthiness for rule conditions: `Bool` is itself, `Int` is non-zero,
    /// `Str` is non-empty and not `"false"`/`"0"`.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(n) => *n != 0,
            Value::Str(s) => !s.is_empty() && s != "false" && s != "0",
        }
    }

    /// Equality with cross-type coercion through the canonical string form.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => self.as_atom() == other.as_atom(),
        }
    }

    /// Whether this value is the boolean `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_atom())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// An ordered property map, as attached to OIDs and Links.
///
/// One vector of `(name, value)` pairs kept sorted by name, so snapshots and
/// audit dumps are deterministic. An object holds a handful of properties,
/// which a binary search over one small allocation serves in less memory
/// than a tree's nodes. Names are shared strings: a [`MetaDb`](crate::MetaDb)
/// gives every map it holds the same copy of each name.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropertyMap {
    entries: Vec<(Arc<str>, Value)>,
}

impl PropertyMap {
    /// Creates an empty property map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`, returning the previous value if any.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        let name: String = name.into();
        self.set_shared(&name, value.into(), |n| Arc::from(n))
    }

    /// [`PropertyMap::set`], where a new entry takes its name from `share`
    /// (the owning database's copy of it).
    pub(crate) fn set_shared(
        &mut self,
        name: &str,
        value: Value,
        share: impl FnOnce(&str) -> Arc<str>,
    ) -> Option<Value> {
        match self.position(name) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (share(name), value));
                None
            }
        }
    }

    /// Where `name` is, or where it would go.
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(n, _)| (**n).cmp(name))
    }

    /// Looks up a property.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).ok().map(|i| &self.entries[i].1)
    }

    /// Removes a property, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.position(name).ok().map(|i| self.entries.remove(i).1)
    }

    /// Whether `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.position(name).is_ok()
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (&**k, v))
    }

    /// Property names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| &**k)
    }
}

impl FromIterator<(String, Value)> for PropertyMap {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut map = PropertyMap::new();
        map.extend(iter);
        map
    }
}

impl Extend<(String, Value)> for PropertyMap {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        for (name, value) in iter {
            self.set(name, value);
        }
    }
}

// ---------------------------------------------------------------------
// The secondary index
// ---------------------------------------------------------------------

/// The `(property, value) → ids` secondary index: `name → value → ids
/// holding exactly that value`.
#[derive(Debug, Clone)]
pub struct PropIndex<Id> {
    by_name: HashMap<String, HashMap<Value, BTreeSet<Id>>>,
}

impl<Id> Default for PropIndex<Id> {
    fn default() -> Self {
        PropIndex {
            by_name: HashMap::new(),
        }
    }
}

impl<Id: Ord + Copy> PropIndex<Id> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `id` now holds `value` for `name`.
    pub fn insert(&mut self, name: &str, value: Value, id: Id) {
        // `get_mut` first so the steady state (an already-indexed property
        // name) performs no String allocation.
        let by_value = match self.by_name.get_mut(name) {
            Some(m) => m,
            None => self.by_name.entry(name.to_string()).or_default(),
        };
        by_value.entry(value).or_default().insert(id);
    }

    /// Drops `(id, value)` for `name`, pruning empty value buckets and
    /// empty name entries so the index never outgrows the live property
    /// set.
    pub fn remove(&mut self, name: &str, value: &Value, id: Id) {
        if let Some(by_value) = self.by_name.get_mut(name) {
            if let Some(set) = by_value.get_mut(value) {
                set.remove(&id);
                if set.is_empty() {
                    by_value.remove(value);
                }
            }
            if by_value.is_empty() {
                self.by_name.remove(name);
            }
        }
    }

    /// The ids holding exactly `value` for `name`, if any.
    pub fn get(&self, name: &str, value: &Value) -> Option<&BTreeSet<Id>> {
        self.by_name
            .get(name)
            .and_then(|by_value| by_value.get(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_classification() {
        assert_eq!(Value::from_atom("true"), Value::Bool(true));
        assert_eq!(Value::from_atom("false"), Value::Bool(false));
        assert_eq!(Value::from_atom("-17"), Value::Int(-17));
        assert_eq!(Value::from_atom("0"), Value::Int(0));
        assert_eq!(Value::from_atom("ok"), Value::Str("ok".into()));
        assert_eq!(Value::from_atom("4 errors"), Value::Str("4 errors".into()));
    }

    #[test]
    fn atom_roundtrip() {
        for atom in ["true", "false", "42", "-1", "good", "not_equiv"] {
            assert_eq!(Value::from_atom(atom).as_atom(), atom);
        }
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Int(3).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Str("ok".into()).is_truthy());
        assert!(!Value::Str("".into()).is_truthy());
        assert!(!Value::Str("false".into()).is_truthy());
    }

    #[test]
    fn loose_eq_coerces_across_types() {
        assert!(Value::Int(4).loose_eq(&Value::Str("4".into())));
        assert!(Value::Bool(true).loose_eq(&Value::Str("true".into())));
        assert!(!Value::Bool(true).loose_eq(&Value::Str("TRUE".into())));
        assert!(Value::Str("ok".into()).loose_eq(&Value::Str("ok".into())));
    }

    #[test]
    fn map_set_get_remove() {
        let mut m = PropertyMap::new();
        assert!(m.set("DRC", Value::from_atom("bad")).is_none());
        assert_eq!(
            m.set("DRC", Value::from_atom("ok")),
            Some(Value::Str("bad".into()))
        );
        assert_eq!(m.get("DRC"), Some(&Value::Str("ok".into())));
        assert_eq!(m.remove("DRC"), Some(Value::Str("ok".into())));
        assert!(m.is_empty());
    }

    #[test]
    fn map_iterates_in_name_order() {
        let mut m = PropertyMap::new();
        m.set("z", 1i64);
        m.set("a", 2i64);
        m.set("m", 3i64);
        let names: Vec<&str> = m.names().collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn map_collect_and_extend() {
        let m: PropertyMap = vec![("a".to_string(), Value::Int(1))].into_iter().collect();
        assert_eq!(m.len(), 1);
        let mut m2 = m.clone();
        m2.extend(vec![("b".to_string(), Value::Int(2))]);
        assert_eq!(m2.len(), 2);
    }

    #[test]
    fn prop_index_tracks_inserts_moves_and_removals() {
        let mut idx: PropIndex<u32> = PropIndex::new();
        idx.insert("drc", Value::from_atom("ok"), 1);
        idx.insert("drc", Value::from_atom("ok"), 2);
        let hits: Vec<u32> = idx
            .get("drc", &Value::from_atom("ok"))
            .unwrap()
            .iter()
            .copied()
            .collect();
        assert_eq!(hits, vec![1, 2]);

        // An overwrite moves the id between buckets: unindex the old
        // value, index the new.
        idx.remove("drc", &Value::from_atom("ok"), 1);
        idx.insert("drc", Value::from_atom("bad"), 1);
        assert_eq!(
            idx.get("drc", &Value::from_atom("ok")).unwrap().len(),
            1,
            "old bucket keeps only the untouched id"
        );
        assert!(idx
            .get("drc", &Value::from_atom("bad"))
            .unwrap()
            .contains(&1));

        // Removal prunes empty buckets all the way up.
        idx.remove("drc", &Value::from_atom("bad"), 1);
        idx.remove("drc", &Value::from_atom("ok"), 2);
        assert!(idx.get("drc", &Value::from_atom("ok")).is_none());
        assert!(idx.get("drc", &Value::from_atom("bad")).is_none());
    }
}

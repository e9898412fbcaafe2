//! String interning shared by the meta-database and the BluePrint compiler.
//!
//! The run-time engine's hot loop — one `(OID, event)` visited-set probe and
//! one rule-table lookup per delivered event — must not hash or clone
//! strings. A [`SymbolTable`] maps each distinct name (event names, view
//! types, property names) to a dense [`Sym`] handle once, at blueprint
//! compile time; everything after that compares and hashes 4-byte `Copy`
//! values. [`SymSet`] is a bitset over the same dense space, used for the
//! PROPAGATE sets of compiled link templates.

use std::collections::HashMap;
use std::fmt;

/// An interned string: a dense index into its [`SymbolTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// A string interner handing out dense [`Sym`] handles.
///
/// # Example
///
/// ```
/// use damocles_meta::intern::SymbolTable;
///
/// let mut table = SymbolTable::new();
/// let ckin = table.intern("ckin");
/// assert_eq!(table.intern("ckin"), ckin); // stable
/// assert_eq!(table.name(ckin), Some("ckin"));
/// assert_eq!(table.lookup("never-seen"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    by_name: HashMap<String, Sym>,
    names: Vec<String>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Interns `name`, returning its stable handle.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&sym) = self.by_name.get(name) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.names.len()).expect("symbol space exhausted"));
        self.by_name.insert(name.to_string(), sym);
        self.names.push(name.to_string());
        sym
    }

    /// The handle of an already-interned name, if any. Never allocates.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.by_name.get(name).copied()
    }

    /// The name behind a handle.
    pub fn name(&self, sym: Sym) -> Option<&str> {
        self.names.get(sym.index()).map(String::as_str)
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(sym, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym(i as u32), n.as_str()))
    }
}

/// A bitset over a [`SymbolTable`]'s dense symbol space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymSet {
    words: Vec<u64>,
}

impl SymSet {
    /// An empty set.
    pub fn new() -> Self {
        SymSet::default()
    }

    /// Inserts a symbol; returns whether it was newly inserted.
    pub fn insert(&mut self, sym: Sym) -> bool {
        let (word, bit) = (sym.index() / 64, sym.index() % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        fresh
    }

    /// Whether the set contains `sym`. Constant-time, never allocates.
    pub fn contains(&self, sym: Sym) -> bool {
        let (word, bit) = (sym.index() / 64, sym.index() % 64);
        self.words.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Number of symbols in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The symbols in the set, in index order.
    pub fn iter(&self) -> impl Iterator<Item = Sym> + '_ {
        (0..self.words.len() * 64)
            .map(|index| Sym(index as u32))
            .filter(|&sym| self.contains(sym))
    }

    /// Removes everything, keeping capacity.
    pub fn clear(&mut self) {
        self.words.clear();
    }
}

impl FromIterator<Sym> for SymSet {
    fn from_iter<I: IntoIterator<Item = Sym>>(iter: I) -> Self {
        let mut set = SymSet::new();
        for sym in iter {
            set.insert(sym);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern("ckin");
        let b = t.intern("outofdate");
        assert_eq!(t.intern("ckin"), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a), Some("ckin"));
        assert_eq!(t.lookup("outofdate"), Some(b));
        assert_eq!(t.lookup("drc"), None);
    }

    #[test]
    fn iteration_follows_intern_order() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        let pairs: Vec<_> = t.iter().map(|(s, n)| (s.index(), n.to_string())).collect();
        assert_eq!(pairs, vec![(0, "a".to_string()), (1, "b".to_string())]);
    }

    #[test]
    fn symset_insert_contains() {
        let mut s = SymSet::new();
        assert!(!s.contains(Sym(70)));
        assert!(s.insert(Sym(70)));
        assert!(!s.insert(Sym(70)));
        assert!(s.contains(Sym(70)));
        assert!(!s.contains(Sym(69)));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn symset_iterates_in_index_order() {
        let s: SymSet = [Sym(70), Sym(3), Sym(64)].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), [Sym(3), Sym(64), Sym(70)]);
        assert_eq!(SymSet::new().iter().count(), 0);
    }

    #[test]
    fn symset_from_iter() {
        let s: SymSet = [Sym(1), Sym(3), Sym(1)].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert!(s.contains(Sym(1)) && s.contains(Sym(3)));
        assert!(!s.contains(Sym(0)));
    }
}

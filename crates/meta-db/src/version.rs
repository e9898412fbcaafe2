//! Version-chain helpers and the inheritance scheme used for version control.
//!
//! "The meta-data model consist\[s\] of a set of properties associated to each
//! view and the inheritance scheme used for version control" — Section 1. The
//! transfer of properties and links from one version to the next is executed
//! by the BluePrint template engine (in `blueprint-core`); this module
//! provides the chain arithmetic and history inspection it builds on.

use crate::db::{MetaDb, OidId};
use crate::error::MetaError;
use crate::property::Value;

/// Read-only view of one `(block, view)` version chain.
///
/// # Example
///
/// ```
/// use damocles_meta::{MetaDb, Oid, VersionHistory};
///
/// # fn main() -> Result<(), damocles_meta::MetaError> {
/// let mut db = MetaDb::new();
/// db.create_oid(Oid::new("cpu", "HDL_model", 1))?;
/// db.create_oid(Oid::new("cpu", "HDL_model", 2))?;
/// let history = VersionHistory::of(&db, "cpu", "HDL_model");
/// assert_eq!(history.versions(), vec![1, 2]);
/// assert_eq!(history.next_version(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VersionHistory<'db> {
    db: &'db MetaDb,
    /// The chain's live `(version, address)` pairs, oldest first.
    chain: &'db [(u32, OidId)],
}

impl<'db> VersionHistory<'db> {
    /// History of `(block, view)` in `db`. An unknown chain is simply empty.
    pub fn of(db: &'db MetaDb, block: &str, view: &str) -> Self {
        VersionHistory {
            db,
            chain: db.chain_of(block, view),
        }
    }

    /// Sorted live version numbers.
    pub fn versions(&self) -> Vec<u32> {
        self.chain.iter().map(|&(v, _)| v).collect()
    }

    /// The version number a freshly checked-in object should receive: one
    /// past the highest live version, or 1 for a new chain (the paper counts
    /// from 1: `<CPU.HDL_model.1>`).
    pub fn next_version(&self) -> u32 {
        self.chain.last().map_or(1, |&(v, _)| v + 1)
    }

    /// Address of the newest version, if the chain is non-empty.
    pub fn latest(&self) -> Option<OidId> {
        self.chain.last().map(|&(_, id)| id)
    }

    /// Addresses of every live version, oldest first.
    pub fn entries(&self) -> Vec<OidId> {
        self.chain.iter().map(|&(_, id)| id).collect()
    }

    /// How a property evolved across the chain: `(version, value)` pairs for
    /// versions where the property is present.
    pub fn property_trail(&self, name: &str) -> Result<Vec<(u32, Value)>, MetaError> {
        let mut trail = Vec::new();
        for id in self.entries() {
            let entry = self.db.entry(id)?;
            if let Some(v) = entry.props.get(name) {
                trail.push((entry.oid.version, v.clone()));
            }
        }
        Ok(trail)
    }

    /// Property names that changed value (or appeared/disappeared) between
    /// the two newest versions. Empty for chains shorter than 2.
    pub fn changed_since_previous(&self) -> Result<Vec<String>, MetaError> {
        let entries = self.entries();
        let [.., prev, last] = entries.as_slice() else {
            return Ok(Vec::new());
        };
        let prev = self.db.entry(*prev)?;
        let last = self.db.entry(*last)?;
        let mut changed = Vec::new();
        for (name, value) in last.props.iter() {
            if prev.props.get(name) != Some(value) {
                changed.push(name.to_string());
            }
        }
        for (name, _) in prev.props.iter() {
            if !last.props.contains(name) {
                changed.push(name.to_string());
            }
        }
        changed.sort();
        changed.dedup();
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::Oid;

    fn db_with_chain() -> MetaDb {
        let mut db = MetaDb::new();
        for v in 1..=3 {
            let id = db.create_oid(Oid::new("cpu", "HDL_model", v)).unwrap();
            db.set_prop(
                id,
                "sim_result",
                Value::from_atom(if v == 3 { "good" } else { "bad" }),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn next_version_counts_from_one() {
        let db = MetaDb::new();
        assert_eq!(
            VersionHistory::of(&db, "cpu", "HDL_model").next_version(),
            1
        );
        let db = db_with_chain();
        assert_eq!(
            VersionHistory::of(&db, "cpu", "HDL_model").next_version(),
            4
        );
    }

    #[test]
    fn entries_oldest_first() {
        let db = db_with_chain();
        let h = VersionHistory::of(&db, "cpu", "HDL_model");
        let versions: Vec<u32> = h
            .entries()
            .iter()
            .map(|&id| db.oid(id).unwrap().version)
            .collect();
        assert_eq!(versions, vec![1, 2, 3]);
    }

    #[test]
    fn property_trail_tracks_evolution() {
        let db = db_with_chain();
        let h = VersionHistory::of(&db, "cpu", "HDL_model");
        let trail = h.property_trail("sim_result").unwrap();
        assert_eq!(
            trail,
            vec![
                (1, Value::Str("bad".into())),
                (2, Value::Str("bad".into())),
                (3, Value::Str("good".into())),
            ]
        );
        assert!(h.property_trail("nonexistent").unwrap().is_empty());
    }

    #[test]
    fn changed_since_previous_detects_diffs() {
        let db = db_with_chain();
        let h = VersionHistory::of(&db, "cpu", "HDL_model");
        assert_eq!(h.changed_since_previous().unwrap(), vec!["sim_result"]);
    }

    #[test]
    fn changed_since_previous_empty_for_short_chain() {
        let mut db = MetaDb::new();
        db.create_oid(Oid::new("x", "v", 1)).unwrap();
        let h = VersionHistory::of(&db, "x", "v");
        assert!(h.changed_since_previous().unwrap().is_empty());
    }

    #[test]
    fn detects_removed_properties() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("x", "v", 1)).unwrap();
        db.set_prop(a, "gone", Value::Bool(true)).unwrap();
        db.create_oid(Oid::new("x", "v", 2)).unwrap();
        let h = VersionHistory::of(&db, "x", "v");
        assert_eq!(h.changed_since_previous().unwrap(), vec!["gone"]);
    }
}

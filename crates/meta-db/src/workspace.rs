//! Workspaces: data repositories associated to a meta-database.
//!
//! "DAMOCLES manages data repositories, called workspaces by associating them
//! to a meta-database." — Section 2. The design data itself (HDL text, GDSII
//! streams…) is opaque to the tracking system; we store simulated payloads
//! with a checksum and a logical timestamp so baseline trackers (make-style
//! polling) have something to scan.

use std::collections::HashMap;

use crate::db::{MetaDb, OidId};
use crate::error::MetaError;
use crate::journal::fnv1a;
use crate::oid::Oid;
use crate::version::VersionHistory;

/// A stored design-data payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignDatum {
    /// Opaque content (simulated design data).
    pub content: Vec<u8>,
    /// FNV-1a checksum of the content.
    pub checksum: u64,
    /// Logical timestamp at store time (workspace-local Lamport counter).
    pub stored_at: u64,
}

/// Check-out bookkeeping for one version chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckoutState {
    /// Designer currently holding the chain, if any.
    pub holder: Option<String>,
    /// Logical timestamp of the last check-out.
    pub since: u64,
}

/// A data repository bound to (but not owning) a [`MetaDb`].
///
/// The workspace implements the promotion model of Section 3.3–3.4: designers
/// *check out* a `(block, view)` chain, modify data locally, and *check in*
/// the result, which creates the next version OID in the meta-database and
/// stores the payload. Posting the `ckin` event (and thus template
/// application and change propagation) is the run-time engine's job, one
/// layer up.
///
/// # Example
///
/// ```
/// use damocles_meta::{MetaDb, Workspace};
///
/// # fn main() -> Result<(), damocles_meta::MetaError> {
/// let mut db = MetaDb::new();
/// let mut ws = Workspace::new("project");
/// let (id, oid) = ws.checkin(&mut db, "cpu", "HDL_model", "yves", b"module cpu;".to_vec())?;
/// assert_eq!(oid.version, 1);
/// assert!(ws.datum(id).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    name: String,
    payloads: HashMap<OidId, DesignDatum>,
    checkouts: HashMap<(String, String), CheckoutState>,
    clock: u64,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new(name: impl Into<String>) -> Self {
        Workspace {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The workspace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current logical time (advances on every store/checkout/checkin).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Number of stored payloads.
    pub fn payload_count(&self) -> usize {
        self.payloads.len()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Stores a payload for an existing OID without version promotion
    /// (e.g. data produced by a tool for an OID it just created).
    pub fn store(&mut self, id: OidId, content: Vec<u8>) -> &DesignDatum {
        let stored_at = self.tick();
        let checksum = fnv1a(&content);
        self.payloads.entry(id).and_modify(|d| {
            d.content.clone_from(&content);
            d.checksum = checksum;
            d.stored_at = stored_at;
        });
        self.payloads.entry(id).or_insert(DesignDatum {
            content,
            checksum,
            stored_at,
        })
    }

    /// The payload stored for `id`, if any.
    pub fn datum(&self, id: OidId) -> Option<&DesignDatum> {
        self.payloads.get(&id)
    }

    /// Marks `(block, view)` as checked out by `user`.
    ///
    /// # Errors
    ///
    /// Returns [`MetaError::CheckoutConflict`] if someone else already holds
    /// the chain. Re-checkout by the same user is idempotent.
    pub fn checkout(
        &mut self,
        db: &MetaDb,
        block: &str,
        view: &str,
        user: &str,
    ) -> Result<(), MetaError> {
        let key = (block.to_string(), view.to_string());
        if let Some(state) = self.checkouts.get(&key) {
            match &state.holder {
                Some(h) if h != user => {
                    let latest = db
                        .latest_version(block, view)
                        .and_then(|id| db.oid(id).ok().cloned())
                        .unwrap_or_else(|| Oid::new(block, view, 0));
                    return Err(MetaError::CheckoutConflict {
                        oid: latest,
                        holder: Some(h.clone()),
                    });
                }
                _ => {}
            }
        }
        let since = self.tick();
        self.checkouts.insert(
            key,
            CheckoutState {
                holder: Some(user.to_string()),
                since,
            },
        );
        Ok(())
    }

    /// Who currently holds `(block, view)`, if anyone.
    pub fn holder(&self, block: &str, view: &str) -> Option<&str> {
        self.checkouts
            .get(&(block.to_string(), view.to_string()))
            .and_then(|s| s.holder.as_deref())
    }

    /// Promotes new design data: creates the next version OID in `db`,
    /// stores the payload, and releases any check-out held by `user`.
    ///
    /// Returns the new address and triplet. The caller is expected to post a
    /// `ckin` event for the new OID so the BluePrint can apply template rules
    /// and propagate changes.
    ///
    /// # Errors
    ///
    /// Returns [`MetaError::CheckoutConflict`] if another user holds the
    /// chain.
    pub fn checkin(
        &mut self,
        db: &mut MetaDb,
        block: &str,
        view: &str,
        user: &str,
        content: Vec<u8>,
    ) -> Result<(OidId, Oid), MetaError> {
        let key = (block.to_string(), view.to_string());
        if let Some(state) = self.checkouts.get(&key) {
            if let Some(h) = &state.holder {
                if h != user {
                    let latest = db
                        .latest_version(block, view)
                        .and_then(|id| db.oid(id).ok().cloned())
                        .unwrap_or_else(|| Oid::new(block, view, 0));
                    return Err(MetaError::CheckoutConflict {
                        oid: latest,
                        holder: Some(h.clone()),
                    });
                }
            }
        }
        let version = VersionHistory::of(db, block, view).next_version();
        let oid = Oid::try_new(block, view, version)?;
        let id = db.create_oid(oid.clone())?;
        self.store(id, content);
        if let Some(state) = self.checkouts.get_mut(&key) {
            state.holder = None;
        }
        Ok((id, oid))
    }

    /// Logical timestamps of every stored payload, for timestamp-scanning
    /// baselines: `(address, stored_at)`.
    pub fn timestamps(&self) -> impl Iterator<Item = (OidId, u64)> + '_ {
        self.payloads.iter().map(|(&id, d)| (id, d.stored_at))
    }

    /// Every stored payload, in no particular order.
    pub(crate) fn payloads(&self) -> impl Iterator<Item = (OidId, &DesignDatum)> {
        self.payloads.iter().map(|(&id, d)| (id, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkin_assigns_increasing_versions() {
        let mut db = MetaDb::new();
        let mut ws = Workspace::new("w");
        let (_, v1) = ws
            .checkin(&mut db, "cpu", "HDL_model", "yves", b"a".to_vec())
            .unwrap();
        let (_, v2) = ws
            .checkin(&mut db, "cpu", "HDL_model", "yves", b"b".to_vec())
            .unwrap();
        assert_eq!(v1.version, 1);
        assert_eq!(v2.version, 2);
    }

    #[test]
    fn checkout_conflict_detected() {
        let mut db = MetaDb::new();
        let mut ws = Workspace::new("w");
        ws.checkin(&mut db, "cpu", "schematic", "yves", b"s".to_vec())
            .unwrap();
        ws.checkout(&db, "cpu", "schematic", "yves").unwrap();
        // Same user: idempotent.
        ws.checkout(&db, "cpu", "schematic", "yves").unwrap();
        // Different user: conflict, on both checkout and checkin.
        let err = ws.checkout(&db, "cpu", "schematic", "marc").unwrap_err();
        assert!(matches!(err, MetaError::CheckoutConflict { .. }));
        let err = ws
            .checkin(&mut db, "cpu", "schematic", "marc", b"x".to_vec())
            .unwrap_err();
        assert!(matches!(err, MetaError::CheckoutConflict { .. }));
        assert_eq!(ws.holder("cpu", "schematic"), Some("yves"));
    }

    #[test]
    fn checkin_releases_checkout() {
        let mut db = MetaDb::new();
        let mut ws = Workspace::new("w");
        ws.checkout(&db, "cpu", "schematic", "yves").unwrap();
        ws.checkin(&mut db, "cpu", "schematic", "yves", b"s".to_vec())
            .unwrap();
        assert_eq!(ws.holder("cpu", "schematic"), None);
        // Now marc can take it.
        ws.checkout(&db, "cpu", "schematic", "marc").unwrap();
    }

    #[test]
    fn store_updates_checksum_and_time() {
        let mut db = MetaDb::new();
        let mut ws = Workspace::new("w");
        let (id, _) = ws
            .checkin(&mut db, "cpu", "netlist", "tool", b"v1".to_vec())
            .unwrap();
        let first = ws.datum(id).unwrap().clone();
        ws.store(id, b"v2".to_vec());
        let second = ws.datum(id).unwrap();
        assert_ne!(first.checksum, second.checksum);
        assert!(second.stored_at > first.stored_at);
    }

    #[test]
    fn timestamps_enumerate_payloads() {
        let mut db = MetaDb::new();
        let mut ws = Workspace::new("w");
        ws.checkin(&mut db, "a", "v", "u", b"1".to_vec()).unwrap();
        ws.checkin(&mut db, "b", "v", "u", b"2".to_vec()).unwrap();
        assert_eq!(ws.timestamps().count(), 2);
        assert_eq!(ws.payload_count(), 2);
    }

    #[test]
    fn fnv_distinguishes_content() {
        assert_ne!(fnv1a(b"module cpu;"), fnv1a(b"module reg;"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}

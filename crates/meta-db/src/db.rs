//! The meta-database proper: arena-backed storage of OIDs and Links with the
//! indices the run-time engine and the query layer need.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::arena::{Arena, ArenaIndex};
use crate::error::MetaError;
use crate::intern::{Sym, SymbolTable};
use crate::journal::{body, JournalOp, JournalRecorder, MovedEnd, RecordBatch};
use crate::link::{Direction, Link, LinkClass, LinkId, LinkKind};
use crate::oid::{BlockName, Oid, ViewType};
use crate::property::{PropIndex, PropertyMap, Value};

/// Stable database address of an [`OidEntry`].
pub type OidId = ArenaIndex<OidEntry>;

/// A stored meta-data object: the OID triplet plus its annotation.
#[derive(Debug, Clone)]
pub struct OidEntry {
    /// The block/view/version triplet.
    pub oid: Oid,
    /// Property/value pairs holding the design state.
    pub props: PropertyMap,
    /// Incident links (either end). Maintained by [`MetaDb`].
    links: Vec<LinkId>,
    /// The view type interned against the owning database's view universe
    /// (see [`MetaDb::view_sym_count`]); lets dispatch layers cache per-view
    /// decisions without hashing the view name per delivery.
    view_sym: Sym,
}

impl OidEntry {
    /// Incident link addresses, in insertion order.
    pub fn link_ids(&self) -> &[LinkId] {
        &self.links
    }

    /// The interned handle of this object's view type, assigned by the
    /// owning database at creation time. Stable for the database's lifetime.
    pub fn view_sym(&self) -> Sym {
        self.view_sym
    }
}

/// Aggregate counters, cheap to copy; used by benches and EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Live meta-data objects.
    pub live_oids: usize,
    /// Live links.
    pub live_links: usize,
    /// OIDs ever created (including deleted ones).
    pub created_oids: u64,
    /// Links ever created.
    pub created_links: u64,
    /// Property writes performed through [`MetaDb::set_prop`].
    pub prop_writes: u64,
    /// Properties removed through [`MetaDb::remove_prop`].
    pub prop_removals: u64,
}

/// The DAMOCLES meta-database.
///
/// Stores [`OidEntry`] and [`Link`] objects in generational arenas and keeps
/// three indices: triplet → address, `(block, view)` → sorted version list,
/// and view → live objects. All mutation goes through methods so the indices
/// never drift from the arenas.
///
/// # Example
///
/// ```
/// use damocles_meta::{MetaDb, Oid, Value};
///
/// # fn main() -> Result<(), damocles_meta::MetaError> {
/// let mut db = MetaDb::new();
/// let v1 = db.create_oid(Oid::new("alu", "GDSII", 5))?;
/// db.set_prop(v1, "DRC", Value::from_atom("ok"))?;
/// assert_eq!(db.get_prop(v1, "DRC")?.unwrap().as_atom(), "ok");
/// assert_eq!(db.latest_version("alu", "GDSII"), Some(v1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetaDb {
    oids: Arena<OidEntry>,
    links: Arena<Link>,
    by_oid: HashMap<Oid, OidId>,
    chains: BTreeMap<(BlockName, ViewType), Vec<u32>>,
    by_view: BTreeMap<ViewType, BTreeSet<OidId>>,
    /// Interner for the event names appearing in link PROPAGATE sets; the
    /// bitset form of every link's PROPAGATE property indexes this table.
    event_syms: SymbolTable,
    /// Interner for view type names, assigned at [`MetaDb::create_oid`] time
    /// (see [`OidEntry::view_sym`]).
    view_syms: SymbolTable,
    /// Secondary index `property name → value → live OIDs holding exactly
    /// that value`, maintained by [`MetaDb::set_prop`] /
    /// [`MetaDb::remove_prop`] / [`MetaDb::delete_oid`] and rebuilt for free
    /// on recovery because recovery replays those same methods. Powers
    /// [`MetaDb::where_prop_eq`].
    prop_index: PropIndex<OidId>,
    /// Attached journal recorder, if any (see [`MetaDb::attach_journal`]).
    journal: Option<JournalRecorder>,
    /// Monotonic counter bumped by every mutation that can change which
    /// OIDs an event wave can reach: link creation/removal, link end
    /// re-pointing (`move`/`copy` template transfers) and PROPAGATE-set
    /// growth. Consumers that precompute a partition of the link graph
    /// (the engine's wave-shard map) cache this stamp and rebuild when it
    /// moves; see [`MetaDb::topology_stamp`].
    topo_stamp: u64,
    /// A bounded log of what each [`MetaDb::topo_stamp`] bump *did* to the
    /// link graph, one entry per bump (see [`TopoDelta`]). Lets a cached
    /// reachability partition catch up incrementally via
    /// [`MetaDb::topology_deltas_since`] instead of rebuilding from every
    /// live link; truncated at [`TOPO_LOG_CAP`], after which consumers that
    /// fell too far behind rebuild.
    topo_log: VecDeque<(u64, TopoDelta)>,
    stats: DbStats,
}

/// The effect of one topology-stamp bump on event reachability — what a
/// consumer holding a stale link-graph partition needs in order to update
/// incrementally (see [`MetaDb::topology_deltas_since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoDelta {
    /// Two live OIDs became connected for propagation purposes: a
    /// PROPAGATE-carrying link was added between them, a link's PROPAGATE
    /// set first grew, or a link end was re-pointed (the re-point case is
    /// conservative — the old end stays merged, which can only coarsen a
    /// partition, never split one incorrectly).
    Bridge {
        /// One endpoint.
        a: OidId,
        /// The other endpoint.
        b: OidId,
    },
    /// The stamp moved but reachability did not grow (a link with an empty
    /// PROPAGATE set was added): partitions stay valid as-is.
    Quiet,
    /// A link was removed: the partition may have split, which incremental
    /// union-find cannot express — consumers rebuild.
    Sever,
}

/// Bound on [`MetaDb::topo_log`]: generous against any realistic batch
/// cadence (a consumer normally catches up every drain), tiny against the
/// database itself.
const TOPO_LOG_CAP: usize = 4096;

impl MetaDb {
    /// Creates an empty meta-database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty meta-database pre-sized for `oids` objects.
    pub fn with_capacity(oids: usize) -> Self {
        MetaDb {
            oids: Arena::with_capacity(oids),
            links: Arena::with_capacity(oids * 2),
            by_oid: HashMap::with_capacity(oids),
            ..Default::default()
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> DbStats {
        DbStats {
            live_oids: self.oids.len(),
            live_links: self.links.len(),
            ..self.stats
        }
    }

    // ------------------------------------------------------------------
    // OID lifecycle
    // ------------------------------------------------------------------

    /// Registers a new meta-data object.
    ///
    /// # Errors
    ///
    /// Returns [`MetaError::DuplicateOid`] if the triplet already exists.
    pub fn create_oid(&mut self, oid: Oid) -> Result<OidId, MetaError> {
        if self.by_oid.contains_key(&oid) {
            return Err(MetaError::DuplicateOid { oid });
        }
        let view_sym = self.view_syms.intern(oid.view.as_str());
        let id = self.oids.insert(OidEntry {
            oid: oid.clone(),
            props: PropertyMap::new(),
            links: Vec::new(),
            view_sym,
        });
        self.by_oid.insert(oid.clone(), id);
        let chain = self
            .chains
            .entry((oid.block.clone(), oid.view.clone()))
            .or_default();
        let pos = chain.partition_point(|&v| v < oid.version);
        chain.insert(pos, oid.version);
        self.by_view.entry(oid.view.clone()).or_default().insert(id);
        self.stats.created_oids += 1;
        if let Some(j) = self.journal.as_mut() {
            j.record_with(|out| body::create(out, &oid));
        }
        Ok(id)
    }

    /// Deletes a meta-data object and every link incident to it.
    ///
    /// Configurations holding this address will observe it as dangling.
    ///
    /// # Errors
    ///
    /// Returns [`MetaError::StaleOid`] if the handle is stale.
    pub fn delete_oid(&mut self, id: OidId) -> Result<OidEntry, MetaError> {
        let entry = self.oids.get(id).ok_or_else(|| stale(id))?;
        let incident = entry.links.clone();
        for link_id in incident {
            // Ignore already-removed links: incidence lists may lag only
            // within this loop (a link appears in both endpoints' lists).
            let _ = self.remove_link(link_id);
        }
        let entry = self.oids.remove(id).ok_or_else(|| stale(id))?;
        for (name, value) in entry.props.iter() {
            self.prop_index.remove(name, value, id);
        }
        self.by_oid.remove(&entry.oid);
        if let Some(chain) = self
            .chains
            .get_mut(&(entry.oid.block.clone(), entry.oid.view.clone()))
        {
            chain.retain(|&v| v != entry.oid.version);
            if chain.is_empty() {
                self.chains
                    .remove(&(entry.oid.block.clone(), entry.oid.view.clone()));
            }
        }
        if let Some(set) = self.by_view.get_mut(&entry.oid.view) {
            set.remove(&id);
            if set.is_empty() {
                self.by_view.remove(&entry.oid.view);
            }
        }
        if let Some(j) = self.journal.as_mut() {
            j.record_with(|out| body::delete(out, &entry.oid));
        }
        Ok(entry)
    }

    /// Resolves a triplet to its database address.
    pub fn resolve(&self, oid: &Oid) -> Option<OidId> {
        self.by_oid.get(oid).copied()
    }

    /// Resolves a triplet, failing with [`MetaError::UnknownOid`].
    pub fn require(&self, oid: &Oid) -> Result<OidId, MetaError> {
        self.resolve(oid)
            .ok_or_else(|| MetaError::UnknownOid { oid: oid.clone() })
    }

    /// Returns the stored entry for a live address.
    pub fn entry(&self, id: OidId) -> Result<&OidEntry, MetaError> {
        self.oids.get(id).ok_or_else(|| stale(id))
    }

    /// The triplet stored at `id`.
    pub fn oid(&self, id: OidId) -> Result<&Oid, MetaError> {
        Ok(&self.entry(id)?.oid)
    }

    /// Whether `id` refers to a live object.
    pub fn is_live(&self, id: OidId) -> bool {
        self.oids.contains(id)
    }

    /// Number of live objects.
    pub fn oid_count(&self) -> usize {
        self.oids.len()
    }

    /// The link-topology stamp: moves on every mutation that can change
    /// event reachability (link add/remove, end re-pointing, PROPAGATE
    /// growth). Equal stamps guarantee an unchanged link graph, so a
    /// precomputed reachability partition keyed on it is still valid.
    pub fn topology_stamp(&self) -> u64 {
        self.topo_stamp
    }

    /// Bumps the topology stamp and logs what the bump did, keeping the
    /// log bounded. Every stamp bump routes through here so the log stays
    /// gap-free — the continuity invariant
    /// [`MetaDb::topology_deltas_since`] relies on.
    fn bump_topology(&mut self, delta: TopoDelta) {
        self.topo_stamp += 1;
        if self.topo_log.len() == TOPO_LOG_CAP {
            self.topo_log.pop_front();
        }
        self.topo_log.push_back((self.topo_stamp, delta));
    }

    /// The topology deltas recorded after `stamp`, oldest first — what a
    /// consumer whose cached partition was built at `stamp` must fold in
    /// to catch up. Returns `None` when the log no longer reaches back
    /// that far (the consumer fell more than `TOPO_LOG_CAP` bumps
    /// behind): rebuild instead.
    pub fn topology_deltas_since(&self, stamp: u64) -> Option<impl Iterator<Item = &TopoDelta>> {
        // Complete coverage requires the entry for bump `stamp + 1` to
        // still be in the log (vacuously true when already caught up).
        if stamp < self.topo_stamp {
            match self.topo_log.front() {
                Some(&(oldest, _)) if oldest <= stamp + 1 => {}
                _ => return None,
            }
        }
        let skip = self.topo_log.partition_point(|&(s, _)| s <= stamp);
        Some(self.topo_log.range(skip..).map(|(_, d)| d))
    }

    /// Number of live links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over all live objects.
    pub fn iter_oids(&self) -> impl Iterator<Item = (OidId, &OidEntry)> {
        self.oids.iter()
    }

    /// Iterates over all live links.
    pub fn iter_links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter()
    }

    // ------------------------------------------------------------------
    // Properties
    // ------------------------------------------------------------------

    /// Sets a property on an object, returning the previous value.
    ///
    /// Maintains the `(property, value)` secondary index (see
    /// [`MetaDb::where_prop_eq`]) and, when a journal is attached, records
    /// a `prop` record.
    pub fn set_prop(
        &mut self,
        id: OidId,
        name: &str,
        value: Value,
    ) -> Result<Option<Value>, MetaError> {
        let entry = self.oids.get_mut(id).ok_or_else(|| stale(id))?;
        self.stats.prop_writes += 1;
        let old = entry.props.set(name, value.clone());
        if let Some(j) = self.journal.as_mut() {
            j.record_with(|out| body::prop(out, &entry.oid, name, &value));
        }
        if let Some(old_v) = &old {
            if *old_v != value {
                self.prop_index.remove(name, old_v, id);
            }
        }
        self.prop_index.insert(name, value, id);
        Ok(old)
    }

    /// Live objects whose `name` property equals `value` **exactly** (same
    /// typed variant — for the paper's loose cross-type comparison, probe
    /// each candidate variant; see `ProjectQuery::where_prop_eq`). Served
    /// from the secondary index in O(hits), in address order.
    pub fn where_prop_eq(&self, name: &str, value: &Value) -> Vec<OidId> {
        self.prop_index
            .get(name, value)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Reads a property from an object.
    pub fn get_prop(&self, id: OidId, name: &str) -> Result<Option<&Value>, MetaError> {
        Ok(self.entry(id)?.props.get(name))
    }

    /// Removes a property from an object.
    pub fn remove_prop(&mut self, id: OidId, name: &str) -> Result<Option<Value>, MetaError> {
        let entry = self.oids.get_mut(id).ok_or_else(|| stale(id))?;
        let old = entry.props.remove(name);
        if let Some(old_v) = &old {
            self.stats.prop_removals += 1;
            self.prop_index.remove(name, old_v, id);
            if let Some(j) = self.journal.as_mut() {
                j.record_with(|out| body::unprop(out, &entry.oid, name));
            }
        }
        Ok(old)
    }

    /// The full property map of an object.
    pub fn props(&self, id: OidId) -> Result<&PropertyMap, MetaError> {
        Ok(&self.entry(id)?.props)
    }

    // ------------------------------------------------------------------
    // Links
    // ------------------------------------------------------------------

    /// Adds a link from `from` to `to` with an empty PROPAGATE set.
    ///
    /// # Errors
    ///
    /// * [`MetaError::StaleOid`] if either endpoint handle is stale.
    /// * [`MetaError::SelfLink`] if the endpoints coincide.
    pub fn add_link(
        &mut self,
        from: OidId,
        to: OidId,
        class: LinkClass,
        kind: LinkKind,
    ) -> Result<LinkId, MetaError> {
        self.add_link_with(from, to, class, kind, std::iter::empty::<String>())
    }

    /// Adds a link whose PROPAGATE set is given up front.
    pub fn add_link_with<I, S>(
        &mut self,
        from: OidId,
        to: OidId,
        class: LinkClass,
        kind: LinkKind,
        propagates: I,
    ) -> Result<LinkId, MetaError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        if !self.oids.contains(from) {
            return Err(stale(from));
        }
        if !self.oids.contains(to) {
            return Err(stale(to));
        }
        if from == to {
            return Err(MetaError::SelfLink {
                oid: self.oids[from].oid.clone(),
            });
        }
        let mut link = Link::new(from, to, class, kind);
        for event in propagates {
            let event: String = event.into();
            link.propagates_syms.insert(self.event_syms.intern(&event));
            link.propagates.insert(event);
        }
        let id = self.links.insert(link);
        // A link that carries no events cannot change reachability yet;
        // its first `allow_event` will record the bridge.
        let delta = if self.links[id].propagates.is_empty() {
            TopoDelta::Quiet
        } else {
            TopoDelta::Bridge { a: from, b: to }
        };
        self.bump_topology(delta);
        self.oids
            .get_mut(from)
            .expect("endpoint checked above")
            .links
            .push(id);
        self.oids
            .get_mut(to)
            .expect("endpoint checked above")
            .links
            .push(id);
        self.stats.created_links += 1;
        if let Some(j) = self.journal.as_mut() {
            let tag = j.assign_tag(id);
            let (link, from, to) = (&self.links[id], &self.oids[from].oid, &self.oids[to].oid);
            j.record_with(|out| {
                body::link(out, tag, from, to, link.class, &link.kind, &link.propagates);
            });
        }
        Ok(id)
    }

    /// Removes a link, detaching it from both endpoints.
    pub fn remove_link(&mut self, id: LinkId) -> Result<Link, MetaError> {
        let link = self
            .links
            .remove(id)
            .ok_or(MetaError::StaleLink { link: id })?;
        self.bump_topology(TopoDelta::Sever);
        for end in [link.from, link.to] {
            if let Some(entry) = self.oids.get_mut(end) {
                entry.links.retain(|&l| l != id);
            }
        }
        if let Some(j) = self.journal.as_mut() {
            let tag = j.release_tag(id);
            j.record_with(|out| body::unlink(out, tag));
        }
        Ok(link)
    }

    /// Returns the link stored at `id`.
    pub fn link(&self, id: LinkId) -> Result<&Link, MetaError> {
        self.links.get(id).ok_or(MetaError::StaleLink { link: id })
    }

    /// Adds `event` to a link's PROPAGATE set (both the string form and the
    /// interned bitset form). Returns whether the event was newly added.
    pub fn allow_event(&mut self, id: LinkId, event: &str) -> Result<bool, MetaError> {
        let sym = self.event_syms.intern(event);
        let link = self
            .links
            .get_mut(id)
            .ok_or(MetaError::StaleLink { link: id })?;
        link.propagates_syms.insert(sym);
        let fresh = link.propagates.insert(event.to_string());
        if fresh {
            let (a, b) = (link.from, link.to);
            self.bump_topology(TopoDelta::Bridge { a, b });
            if let Some(j) = self.journal.as_mut() {
                let tag = j.tag_of(id);
                j.record_with(|out| body::allow(out, tag, event));
            }
        }
        Ok(fresh)
    }

    /// Sets a property on a link's free-form annotation, returning the
    /// previous value. The only write path to link annotations — there is
    /// deliberately no `&mut Link` accessor, so an attached journal
    /// observes every annotation write.
    pub fn set_link_prop(
        &mut self,
        id: LinkId,
        name: &str,
        value: Value,
    ) -> Result<Option<Value>, MetaError> {
        let link = self
            .links
            .get_mut(id)
            .ok_or(MetaError::StaleLink { link: id })?;
        if let Some(j) = self.journal.as_mut() {
            let tag = j.tag_of(id);
            j.record_with(|out| body::lprop(out, tag, name, &value));
        }
        Ok(link.props.set(name, value))
    }

    /// Removes a property from a link's annotation, returning its value.
    pub fn remove_link_prop(&mut self, id: LinkId, name: &str) -> Result<Option<Value>, MetaError> {
        let link = self
            .links
            .get_mut(id)
            .ok_or(MetaError::StaleLink { link: id })?;
        let old = link.props.remove(name);
        if old.is_some() {
            if let Some(j) = self.journal.as_mut() {
                let tag = j.tag_of(id);
                j.record_with(|out| body::unlprop(out, tag, name));
            }
        }
        Ok(old)
    }

    /// The interned handle of an event name, if any link's PROPAGATE set has
    /// ever mentioned it. `None` means no live link can propagate the event.
    pub fn event_sym(&self, event: &str) -> Option<Sym> {
        self.event_syms.lookup(event)
    }

    /// Iterates over the links incident to `id` (either end).
    pub fn links_of(&self, id: OidId) -> Result<Vec<(LinkId, &Link)>, MetaError> {
        Ok(self.links_of_iter(id)?.collect())
    }

    /// Iterator form of [`MetaDb::links_of`]: the links incident to `id`
    /// without collecting into a `Vec`.
    pub fn links_of_iter(
        &self,
        id: OidId,
    ) -> Result<impl Iterator<Item = (LinkId, &Link)> + '_, MetaError> {
        let entry = self.entry(id)?;
        Ok(entry
            .links
            .iter()
            .filter_map(|&l| self.links.get(l).map(|link| (l, link))))
    }

    /// OIDs reachable from `id` through one link in direction `dir`,
    /// optionally restricted to links whose PROPAGATE set allows `event`.
    ///
    /// This is exactly the per-hop rule of Section 3.2: "for each link, the
    /// event is passed on to the OID at the other end of the link if the link
    /// propagates the given type of event and if the direction of the link
    /// matches the up or down direction specified in the event message".
    pub fn neighbors(
        &self,
        id: OidId,
        dir: Direction,
        event: Option<&str>,
    ) -> Result<Vec<OidId>, MetaError> {
        let mut out = Vec::new();
        self.neighbors_into(id, dir, event, &mut out)?;
        Ok(out)
    }

    /// Allocation-free form of [`MetaDb::neighbors`]: appends the reachable
    /// OIDs to a caller-owned buffer (which the run-time engine reuses across
    /// propagation hops). The buffer is **not** cleared first.
    pub fn neighbors_into(
        &self,
        id: OidId,
        dir: Direction,
        event: Option<&str>,
        out: &mut Vec<OidId>,
    ) -> Result<(), MetaError> {
        for next in self.neighbors_iter(id, dir, event)? {
            out.push(next);
        }
        Ok(())
    }

    /// Iterator form of [`MetaDb::neighbors`]: the per-hop propagation rule
    /// of Section 3.2 as a lazy traversal, allocating nothing. The event
    /// filter resolves the name against the interned event universe once,
    /// then tests each link's PROPAGATE bitset — no per-link string
    /// comparison.
    pub fn neighbors_iter<'a>(
        &'a self,
        id: OidId,
        dir: Direction,
        event: Option<&str>,
    ) -> Result<impl Iterator<Item = OidId> + 'a, MetaError> {
        let entry = self.entry(id)?;
        // None: no filter. Some(None): the event name was never interned, so
        // no link anywhere can propagate it. Some(Some(sym)): bitset test.
        let filter: Option<Option<Sym>> = event.map(|e| self.event_syms.lookup(e));
        Ok(entry.links.iter().filter_map(move |&link_id| {
            let link = self.links.get(link_id)?;
            match filter {
                Some(None) => return None,
                Some(Some(sym)) if !link.allows_sym(sym) => return None,
                _ => {}
            }
            link.traverse_from(id, dir)
        }))
    }

    /// Re-points whichever end of `link_id` currently equals `old` to `new`.
    ///
    /// This implements the `move` keyword of template link rules (Fig. 3):
    /// "when a new version of an OID is created, these links are
    /// automatically shifted from the old version to the new version".
    pub fn move_link_end(
        &mut self,
        link_id: LinkId,
        old: OidId,
        new: OidId,
    ) -> Result<(), MetaError> {
        if !self.oids.contains(new) {
            return Err(stale(new));
        }
        let link = self
            .links
            .get_mut(link_id)
            .ok_or(MetaError::StaleLink { link: link_id })?;
        let moved_end = if link.from == old {
            link.from = new;
            MovedEnd::From
        } else if link.to == old {
            link.to = new;
            MovedEnd::To
        } else {
            return Err(MetaError::StaleLink { link: link_id });
        };
        // Conservative delta: merge the new end with the surviving end.
        // The old end stays merged too — a coarser partition is still a
        // correct partition (two groups just stay merged that need not).
        let other = if moved_end == MovedEnd::From {
            link.to
        } else {
            link.from
        };
        self.bump_topology(TopoDelta::Bridge { a: new, b: other });
        if let Some(entry) = self.oids.get_mut(old) {
            entry.links.retain(|&l| l != link_id);
        }
        self.oids
            .get_mut(new)
            .expect("checked above")
            .links
            .push(link_id);
        if let Some(j) = self.journal.as_mut() {
            let tag = j.tag_of(link_id);
            let new = &self.oids[new].oid;
            j.record_with(|out| body::move_end(out, tag, moved_end, new));
        }
        Ok(())
    }

    /// Duplicates `link_id`, substituting `new` for `old` at whichever end
    /// matches — the `copy` transfer mode for links.
    pub fn copy_link_to(
        &mut self,
        link_id: LinkId,
        old: OidId,
        new: OidId,
    ) -> Result<LinkId, MetaError> {
        let link = self.link(link_id)?.clone();
        let (from, to) = if link.from == old {
            (new, link.to)
        } else if link.to == old {
            (link.from, new)
        } else {
            return Err(MetaError::StaleLink { link: link_id });
        };
        let id = self.add_link_with(from, to, link.class, link.kind, link.propagates)?;
        // Copy the annotation through the journaled setter so an attached
        // journal observes the copied properties.
        for (name, value) in link.props.iter() {
            self.set_link_prop(id, name, value.clone())?;
        }
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Journal attachment
    // ------------------------------------------------------------------

    /// Attaches a journal recorder: from this point on, every mutating
    /// method renders its journal record — numbered from `next_seq`, the
    /// owning [`crate::journal::JournalWriter`]'s
    /// [`record_count`](crate::journal::JournalWriter::record_count) — into
    /// an internal buffer, which the owner drains with
    /// [`MetaDb::drain_journal`] into
    /// [`JournalWriter::append`](crate::journal::JournalWriter::append).
    ///
    /// Existing links are assigned journal tags in image order (the
    /// deterministic order [`MetaDb::links_in_image_order`] — the same order
    /// [`crate::persist::save`] emits and [`crate::journal::recover`]
    /// reassigns), so ops recorded after attachment can reference
    /// pre-existing links across a snapshot boundary.
    ///
    /// Calling this on a database with a journal already attached re-bases
    /// it: the record buffer is cleared and link tags are re-assigned —
    /// done by checkpointing code right after writing a fresh snapshot.
    ///
    /// Every link write routes through the mutator API
    /// ([`MetaDb::set_link_prop`] / [`MetaDb::allow_event`] / …; there is
    /// no raw `&mut Link` accessor), so no annotation write can bypass the
    /// op log.
    pub fn attach_journal(&mut self, next_seq: u64) {
        let mut recorder = JournalRecorder::new(next_seq);
        for id in self.links_in_image_order() {
            recorder.assign_tag(id);
        }
        self.journal = Some(recorder);
    }

    /// Detaches the journal recorder, discarding any undrained records.
    pub fn detach_journal(&mut self) {
        self.journal = None;
    }

    /// Whether a journal recorder is attached.
    pub fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Takes the buffered journal records, leaving the recorder attached
    /// and numbering on. Returns an empty batch when no journal is
    /// attached.
    pub fn drain_journal(&mut self) -> RecordBatch {
        self.journal
            .as_mut()
            .map(JournalRecorder::drain)
            .unwrap_or_default()
    }

    /// [`MetaDb::drain_journal`], decoded — for tests and tools that
    /// inspect what was recorded.
    ///
    /// # Panics
    ///
    /// When a buffered record fails to decode, which would be a bug in
    /// the recorder.
    pub fn drain_journal_ops(&mut self) -> Vec<JournalOp> {
        self.drain_journal()
            .decode()
            .expect("the recorder renders valid records")
    }

    /// Number of buffered (undrained) journal records.
    pub fn journal_backlog(&self) -> usize {
        self.journal.as_ref().map_or(0, JournalRecorder::backlog)
    }

    /// Records a caller-supplied op (e.g. a server-level
    /// [`JournalOp::Data`] payload record) in the journal buffer, keeping
    /// it ordered relative to the database mutations around it — essential
    /// under group commit, where many operations' records drain in one
    /// batch. No-op when no journal is attached.
    pub fn record_extra(&mut self, op: &JournalOp) {
        if let Some(j) = self.journal.as_mut() {
            j.record(op);
        }
    }

    /// Live links in *image order*: sorted by `(from, to)` triplets with
    /// ties kept in arena order. This is the exact order [`crate::persist::save`]
    /// writes link records, which makes it the canonical order for
    /// assigning journal link tags across a snapshot boundary.
    pub fn links_in_image_order(&self) -> Vec<LinkId> {
        let mut links: Vec<(LinkId, &Oid, &Oid)> = self
            .iter_links()
            .filter_map(|(id, link)| {
                let from = self.oid(link.from).ok()?;
                let to = self.oid(link.to).ok()?;
                Some((id, from, to))
            })
            .collect();
        links.sort_by(|a, b| (a.1, a.2).cmp(&(b.1, b.2)));
        links.into_iter().map(|(id, _, _)| id).collect()
    }

    /// Number of distinct view type names ever interned by
    /// [`MetaDb::create_oid`] — an upper bound for caches indexed by
    /// [`OidEntry::view_sym`].
    pub fn view_sym_count(&self) -> usize {
        self.view_syms.len()
    }

    // ------------------------------------------------------------------
    // Version chains & views
    // ------------------------------------------------------------------

    /// Sorted version numbers existing for `(block, view)`.
    pub fn versions(&self, block: &str, view: &str) -> Vec<u32> {
        let key = match chain_key(block, view) {
            Some(k) => k,
            None => return Vec::new(),
        };
        self.chains.get(&key).cloned().unwrap_or_default()
    }

    /// The address of the highest-numbered version of `(block, view)`.
    pub fn latest_version(&self, block: &str, view: &str) -> Option<OidId> {
        let key = chain_key(block, view)?;
        let chain = self.chains.get(&key)?;
        let &version = chain.last()?;
        self.by_oid
            .get(&Oid {
                block: key.0,
                view: key.1,
                version,
            })
            .copied()
    }

    /// The address of the version preceding `oid.version` in its chain.
    pub fn predecessor(&self, oid: &Oid) -> Option<OidId> {
        let chain = self.chains.get(&(oid.block.clone(), oid.view.clone()))?;
        let pos = chain.partition_point(|&v| v < oid.version);
        if pos == 0 {
            return None;
        }
        let prev = chain[pos - 1];
        self.by_oid.get(&oid.at_version(prev)).copied()
    }

    /// Live objects of the given view type, in address order.
    pub fn oids_of_view(&self, view: &str) -> Vec<OidId> {
        match ViewType::try_new(view) {
            Ok(v) => self
                .by_view
                .get(&v)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default(),
            Err(_) => Vec::new(),
        }
    }

    /// All view types with at least one live object.
    pub fn view_types(&self) -> Vec<ViewType> {
        self.by_view.keys().cloned().collect()
    }

    /// All distinct block names with at least one live object.
    pub fn block_names(&self) -> Vec<BlockName> {
        let mut blocks: BTreeSet<BlockName> = BTreeSet::new();
        for (_, entry) in self.oids.iter() {
            blocks.insert(entry.oid.block.clone());
        }
        blocks.into_iter().collect()
    }
}

fn chain_key(block: &str, view: &str) -> Option<(BlockName, ViewType)> {
    Some((
        BlockName::try_new(block).ok()?,
        ViewType::try_new(view).ok()?,
    ))
}

fn stale(id: OidId) -> MetaError {
    MetaError::StaleOid {
        handle: format!("{id:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_oid_rejected() {
        let mut db = MetaDb::new();
        db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap();
        let err = db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap_err();
        assert!(matches!(err, MetaError::DuplicateOid { .. }));
    }

    #[test]
    fn resolve_and_require() {
        let mut db = MetaDb::new();
        let oid = Oid::new("cpu", "HDL_model", 1);
        let id = db.create_oid(oid.clone()).unwrap();
        assert_eq!(db.resolve(&oid), Some(id));
        assert_eq!(db.require(&oid).unwrap(), id);
        let missing = Oid::new("cpu", "HDL_model", 2);
        assert!(matches!(
            db.require(&missing),
            Err(MetaError::UnknownOid { .. })
        ));
    }

    #[test]
    fn delete_removes_incident_links_and_indices() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap();
        let b = db.create_oid(Oid::new("cpu", "schematic", 1)).unwrap();
        let l = db
            .add_link(a, b, LinkClass::Derive, LinkKind::DeriveFrom)
            .unwrap();
        db.delete_oid(a).unwrap();
        assert!(!db.is_live(a));
        assert!(db.link(l).is_err());
        assert!(db.entry(b).unwrap().link_ids().is_empty());
        assert!(db.versions("cpu", "HDL_model").is_empty());
        assert_eq!(db.oids_of_view("HDL_model"), Vec::<OidId>::new());
    }

    #[test]
    fn version_chain_ordering() {
        let mut db = MetaDb::new();
        // Created out of order on purpose.
        db.create_oid(Oid::new("cpu", "schematic", 3)).unwrap();
        let v1 = db.create_oid(Oid::new("cpu", "schematic", 1)).unwrap();
        let v5 = db.create_oid(Oid::new("cpu", "schematic", 5)).unwrap();
        assert_eq!(db.versions("cpu", "schematic"), vec![1, 3, 5]);
        assert_eq!(db.latest_version("cpu", "schematic"), Some(v5));
        let prev = db.predecessor(&Oid::new("cpu", "schematic", 3)).unwrap();
        assert_eq!(prev, v1);
        assert!(db.predecessor(&Oid::new("cpu", "schematic", 1)).is_none());
    }

    #[test]
    fn self_link_rejected() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap();
        let err = db
            .add_link(a, a, LinkClass::Use, LinkKind::Composition)
            .unwrap_err();
        assert!(matches!(err, MetaError::SelfLink { .. }));
    }

    #[test]
    fn neighbors_respect_direction_and_propagate() {
        let mut db = MetaDb::new();
        let hdl = db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap();
        let sch = db.create_oid(Oid::new("cpu", "schematic", 1)).unwrap();
        let lay = db.create_oid(Oid::new("cpu", "layout", 1)).unwrap();
        db.add_link_with(
            hdl,
            sch,
            LinkClass::Derive,
            LinkKind::DeriveFrom,
            ["outofdate"],
        )
        .unwrap();
        db.add_link_with(sch, lay, LinkClass::Derive, LinkKind::Equivalence, ["lvs"])
            .unwrap();

        assert_eq!(
            db.neighbors(hdl, Direction::Down, Some("outofdate"))
                .unwrap(),
            vec![sch]
        );
        // Wrong event name: filtered out.
        assert!(db
            .neighbors(hdl, Direction::Down, Some("lvs"))
            .unwrap()
            .is_empty());
        // Wrong direction: filtered out.
        assert!(db
            .neighbors(hdl, Direction::Up, Some("outofdate"))
            .unwrap()
            .is_empty());
        // Up from layout crosses the equivalence link back to schematic.
        assert_eq!(
            db.neighbors(lay, Direction::Up, Some("lvs")).unwrap(),
            vec![sch]
        );
        // No filter: all direction-compatible links count.
        assert_eq!(db.neighbors(sch, Direction::Down, None).unwrap(), vec![lay]);
    }

    #[test]
    fn propagate_bitset_tracks_string_set() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("a", "v", 1)).unwrap();
        let b = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        let l = db
            .add_link_with(a, b, LinkClass::Derive, LinkKind::DeriveFrom, ["outofdate"])
            .unwrap();

        // add_link_with interned the event; string and bitset forms agree.
        let sym = db
            .event_sym("outofdate")
            .expect("interned at link creation");
        assert!(db.link(l).unwrap().allows("outofdate"));
        assert!(db.link(l).unwrap().allows_sym(sym));
        assert!(db.link(l).unwrap().propagates().contains("outofdate"));

        // An event no link mentions resolves to no symbol at all — the
        // neighbor filter's short-circuit for never-propagated events.
        assert_eq!(db.event_sym("lvs"), None);
        assert!(db
            .neighbors(a, Direction::Down, Some("lvs"))
            .unwrap()
            .is_empty());

        // allow_event keeps both forms in lock-step.
        assert!(db.allow_event(l, "lvs").unwrap());
        assert!(!db.allow_event(l, "lvs").unwrap(), "second add is a no-op");
        let lvs = db.event_sym("lvs").unwrap();
        assert!(db.link(l).unwrap().allows("lvs"));
        assert!(db.link(l).unwrap().allows_sym(lvs));
        assert_eq!(
            db.neighbors(a, Direction::Down, Some("lvs")).unwrap(),
            vec![b]
        );
    }

    #[test]
    fn neighbors_into_appends_without_clearing() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("a", "v", 1)).unwrap();
        let b = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        db.add_link_with(a, b, LinkClass::Use, LinkKind::Composition, ["e"])
            .unwrap();
        let mut buf = vec![a];
        db.neighbors_into(a, Direction::Down, Some("e"), &mut buf)
            .unwrap();
        assert_eq!(buf, vec![a, b], "appends; caller owns clearing");
        let hops: Vec<OidId> = db
            .neighbors_iter(a, Direction::Down, Some("e"))
            .unwrap()
            .collect();
        assert_eq!(hops, vec![b]);
    }

    #[test]
    fn move_link_end_shifts_to_new_version() {
        // Fig. 3: NetList.8 -> GDSII.5 moves to NetList.8 -> GDSII.6.
        let mut db = MetaDb::new();
        let nl = db.create_oid(Oid::new("alu", "NetList", 8)).unwrap();
        let g5 = db.create_oid(Oid::new("alu", "GDSII", 5)).unwrap();
        let g6 = db.create_oid(Oid::new("alu", "GDSII", 6)).unwrap();
        let l = db
            .add_link_with(
                nl,
                g5,
                LinkClass::Derive,
                LinkKind::DeriveFrom,
                ["OutOfDate"],
            )
            .unwrap();
        db.move_link_end(l, g5, g6).unwrap();
        let link = db.link(l).unwrap();
        assert_eq!(link.from, nl);
        assert_eq!(link.to, g6);
        assert!(db.entry(g5).unwrap().link_ids().is_empty());
        assert_eq!(db.entry(g6).unwrap().link_ids(), &[l]);
        assert!(link.allows("OutOfDate"));
    }

    #[test]
    fn copy_link_to_duplicates() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("a", "v", 1)).unwrap();
        let b1 = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        let b2 = db.create_oid(Oid::new("b", "v", 2)).unwrap();
        let l = db
            .add_link_with(a, b1, LinkClass::Use, LinkKind::Composition, ["outofdate"])
            .unwrap();
        let l2 = db.copy_link_to(l, b1, b2).unwrap();
        assert!(db.link(l).is_ok(), "original link survives a copy");
        let copy = db.link(l2).unwrap();
        assert_eq!(copy.from, a);
        assert_eq!(copy.to, b2);
        assert!(copy.allows("outofdate"));
        assert_eq!(db.link_count(), 2);
    }

    #[test]
    fn stats_track_activity() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("a", "v", 1)).unwrap();
        let b = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        db.add_link(a, b, LinkClass::Use, LinkKind::Composition)
            .unwrap();
        db.set_prop(a, "x", Value::Int(1)).unwrap();
        db.remove_prop(a, "x").unwrap();
        db.remove_prop(a, "x").unwrap();
        db.delete_oid(b).unwrap();
        let s = db.stats();
        assert_eq!(s.live_oids, 1);
        assert_eq!(s.live_links, 0);
        assert_eq!(s.created_oids, 2);
        assert_eq!(s.created_links, 1);
        assert_eq!(s.prop_writes, 1);
        assert_eq!(
            s.prop_removals, 1,
            "removing a missing property is no removal"
        );
    }

    #[test]
    fn prop_index_tracks_writes_removals_and_deletes() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("a", "v", 1)).unwrap();
        let b = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        db.set_prop(a, "drc", Value::from_atom("ok")).unwrap();
        db.set_prop(b, "drc", Value::from_atom("ok")).unwrap();
        assert_eq!(db.where_prop_eq("drc", &Value::from_atom("ok")), vec![a, b]);

        // Overwrite moves the id between value buckets.
        db.set_prop(a, "drc", Value::from_atom("bad")).unwrap();
        assert_eq!(db.where_prop_eq("drc", &Value::from_atom("ok")), vec![b]);
        assert_eq!(db.where_prop_eq("drc", &Value::from_atom("bad")), vec![a]);

        // Removal and deletion both unindex.
        db.remove_prop(a, "drc").unwrap();
        assert!(db.where_prop_eq("drc", &Value::from_atom("bad")).is_empty());
        db.delete_oid(b).unwrap();
        assert!(db.where_prop_eq("drc", &Value::from_atom("ok")).is_empty());

        // The index is exact-typed: Int(4) and Str("4") live in separate
        // buckets (loose union happens in the query layer).
        let c = db.create_oid(Oid::new("c", "v", 1)).unwrap();
        db.set_prop(c, "n", Value::Int(4)).unwrap();
        assert_eq!(db.where_prop_eq("n", &Value::Int(4)), vec![c]);
        assert!(db.where_prop_eq("n", &Value::Str("4".into())).is_empty());
    }

    #[test]
    fn journal_records_replay_to_identical_image() {
        use crate::journal::{self, JournalOp};
        let mut db = MetaDb::new();
        db.attach_journal(0);
        assert!(db.journaling());
        let a = db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap();
        let b = db.create_oid(Oid::new("cpu", "schematic", 1)).unwrap();
        let b2 = db.create_oid(Oid::new("cpu", "schematic", 2)).unwrap();
        db.set_prop(a, "uptodate", Value::Bool(true)).unwrap();
        let l = db
            .add_link_with(a, b, LinkClass::Derive, LinkKind::DeriveFrom, ["outofdate"])
            .unwrap();
        db.allow_event(l, "lvs").unwrap();
        db.set_link_prop(l, "weight", Value::Int(3)).unwrap();
        db.move_link_end(l, b, b2).unwrap();
        let l2 = db.copy_link_to(l, b2, b).unwrap();
        db.remove_link(l2).unwrap();
        db.remove_prop(a, "uptodate").unwrap();
        db.set_prop(b2, "uptodate", Value::Bool(false)).unwrap();
        db.delete_oid(b).unwrap();

        let ops: Vec<JournalOp> = db.drain_journal_ops();
        assert!(db.journal_backlog() == 0);
        let (replayed, _ws) = journal::replay_ops(&ops).expect("ops replay");
        assert_eq!(
            crate::persist::save(&replayed),
            crate::persist::save(&db),
            "replaying the op log reproduces the database image"
        );
    }

    #[test]
    fn view_syms_are_stable_per_view() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("a", "schematic", 1)).unwrap();
        let b = db.create_oid(Oid::new("b", "schematic", 1)).unwrap();
        let c = db.create_oid(Oid::new("c", "layout", 1)).unwrap();
        assert_eq!(
            db.entry(a).unwrap().view_sym(),
            db.entry(b).unwrap().view_sym()
        );
        assert_ne!(
            db.entry(a).unwrap().view_sym(),
            db.entry(c).unwrap().view_sym()
        );
        assert_eq!(db.view_sym_count(), 2);
    }

    #[test]
    fn topology_delta_log_reports_bumps_and_truncation() {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("a", "v", 1)).unwrap();
        let b = db.create_oid(Oid::new("b", "v", 1)).unwrap();
        let before = db.topology_stamp();

        // Plain link: no propagates yet, so shard topology is unchanged.
        let l = db
            .add_link(a, b, LinkClass::Derive, LinkKind::DeriveFrom)
            .unwrap();
        // First allow_event turns it into a live bridge.
        db.allow_event(l, "outofdate").unwrap();
        db.remove_link(l).unwrap();

        let deltas: Vec<TopoDelta> = db
            .topology_deltas_since(before)
            .expect("log covers the whole window")
            .copied()
            .collect();
        assert_eq!(
            deltas,
            vec![
                TopoDelta::Quiet,
                TopoDelta::Bridge { a, b },
                TopoDelta::Sever
            ]
        );
        // Fully caught up: empty (but present) iterator.
        let now = db.topology_stamp();
        assert_eq!(db.topology_deltas_since(now).unwrap().count(), 0);

        // Overflow the bounded log; a too-old stamp now reports `None`
        // (consumers must rebuild rather than patch incrementally).
        for _ in 0..3000 {
            let l = db
                .add_link_with(a, b, LinkClass::Derive, LinkKind::DeriveFrom, ["e"])
                .unwrap();
            db.remove_link(l).unwrap();
        }
        assert!(db.topology_deltas_since(before).is_none());
        assert!(db.topology_deltas_since(db.topology_stamp()).is_some());
    }

    #[test]
    fn view_and_block_enumeration() {
        let mut db = MetaDb::new();
        db.create_oid(Oid::new("cpu", "schematic", 1)).unwrap();
        db.create_oid(Oid::new("reg", "schematic", 1)).unwrap();
        db.create_oid(Oid::new("cpu", "layout", 1)).unwrap();
        assert_eq!(db.oids_of_view("schematic").len(), 2);
        let views: Vec<String> = db.view_types().iter().map(|v| v.to_string()).collect();
        assert_eq!(views, vec!["layout", "schematic"]);
        let blocks: Vec<String> = db.block_names().iter().map(|b| b.to_string()).collect();
        assert_eq!(blocks, vec!["cpu", "reg"]);
    }
}

//! The heap a project holds per meta-data object, counted by a global
//! allocator: the object count is what grows as a project is worked on.
//!
//! The session is `damocles_bench::checkin_storm_session`, the shape of
//! damocles_load's checkin_storm: the 3,072-object chain design, then
//! 16,960 new versions of 512 unlinked blocks with 64-byte payloads,
//! drained every 16 check-ins. No journal is attached.
//!
//! The binary holds a single test, so no other test's allocations are
//! counted. Run it with
//! `cargo test -q -p damocles-bench --test footprint -- --nocapture`
//! to see the figure.

use blueprint_core::engine::server::ProjectServer;
use damocles_bench::heap::{self, Counting};
use damocles_bench::{
    chain_design_blueprint, checkin_storm_session, MARK_STALE, STORM_BLOCKS, STORM_FAMILIES,
    STORM_ROUNDS, STORM_STAGES,
};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes per object the project may hold. Tree-map properties
/// with private name copies held 1,245; one sorted vector per object and
/// names shared across versions held 768; with the version chains as the
/// one object index and one PROPAGATE set per link, the project holds 641.
const BYTES_PER_OBJECT_BOUND: usize = 1_000;

#[test]
fn objects_stay_under_a_thousand_heap_bytes_each() {
    let source = chain_design_blueprint(STORM_FAMILIES, STORM_STAGES, MARK_STALE);
    let before = heap::live();
    let mut server = ProjectServer::from_source(&source).expect("the blueprint compiles");
    checkin_storm_session(&mut server);
    let objects = server.db().oid_count();
    assert_eq!(
        objects,
        STORM_FAMILIES * STORM_STAGES * STORM_BLOCKS + STORM_ROUNDS * 16
    );
    let per_object = heap::live().saturating_sub(before) / objects;
    eprintln!("footprint: {objects} objects, {per_object} live heap bytes per object");
    assert!(
        per_object < BYTES_PER_OBJECT_BOUND,
        "{per_object} live heap bytes per object, bound {BYTES_PER_OBJECT_BOUND}"
    );
    drop(server);
}

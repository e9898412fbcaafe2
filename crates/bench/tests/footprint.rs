//! The heap a project holds per meta-data object, counted by a global
//! allocator: the object count is what grows as a project is worked on.
//!
//! The session has the shape of damocles_load's checkin_storm: the
//! 3,072-object chain design (8 families × 6 stages × 64 blocks, every
//! stage linked to the one before), then 16,960 new versions of 512
//! unlinked blocks with 64-byte payloads, drained every 16 check-ins. No
//! journal is attached.
//!
//! The binary holds a single test, so no other test's allocations are
//! counted. Run it with
//! `cargo test -q -p damocles-bench --test footprint -- --nocapture`
//! to see the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use blueprint_core::engine::server::ProjectServer;
use damocles_bench::{chain_design_blueprint, MARK_STALE};
use damocles_meta::Oid;

/// Heap bytes currently allocated through [`Counting`].
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes it hands out and takes back.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const FAMILIES: usize = 8;
const STAGES: usize = 6;
const BLOCKS: usize = 64;
/// Unlinked blocks the check-ins write new versions of.
const SCRATCH_BLOCKS: u64 = 512;
/// Drains after the design's set-up, each after 16 check-ins.
const ROUNDS: usize = 1_060;

/// Live heap bytes per object the project may hold. Tree-map properties
/// with private name copies held 1,245; one sorted vector per object and
/// names shared across versions held 768; with the version chains as the
/// one object index and one PROPAGATE set per link, the project holds 641.
const BYTES_PER_OBJECT_BOUND: usize = 1_000;

/// A fixed pseudo-random stream (64-bit LCG, high bits).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

#[test]
fn objects_stay_under_a_thousand_heap_bytes_each() {
    let source = chain_design_blueprint(FAMILIES, STAGES, MARK_STALE);
    let before = LIVE.load(Ordering::Relaxed);
    let mut server = ProjectServer::from_source(&source).expect("the blueprint compiles");
    for chain in 0..FAMILIES * BLOCKS {
        let family = chain / BLOCKS;
        let block = format!("f{family}b{}", chain % BLOCKS);
        for stage in 0..STAGES {
            let view = format!("f{family}_s{stage}");
            server
                .checkin(&block, &view, "load", vec![b'd'; 8])
                .expect("set-up check-in");
            if stage > 0 {
                let from = Oid::new(block.as_str(), format!("f{family}_s{}", stage - 1), 1);
                let to = Oid::new(block.as_str(), view, 1);
                server.connect_oids(&from, &to).expect("set-up link");
            }
        }
    }
    server.process_all().expect("set-up drain");
    let mut rng = Lcg(24);
    for _ in 0..ROUNDS {
        for _ in 0..16 {
            let b = rng.next() % SCRATCH_BLOCKS;
            let payload: Vec<u8> = (0..64).map(|_| rng.next() as u8).collect();
            let view = format!("f{}_s0", b % FAMILIES as u64);
            server
                .checkin(&format!("x{b}"), &view, "load", payload)
                .expect("check-in");
        }
        server.process_all().expect("drain");
    }
    let objects = server.db().oid_count();
    assert_eq!(objects, FAMILIES * STAGES * BLOCKS + ROUNDS * 16);
    let per_object = LIVE.load(Ordering::Relaxed).saturating_sub(before) / objects;
    eprintln!("footprint: {objects} objects, {per_object} live heap bytes per object");
    assert!(
        per_object < BYTES_PER_OBJECT_BOUND,
        "{per_object} live heap bytes per object, bound {BYTES_PER_OBJECT_BOUND}"
    );
    drop(server);
}

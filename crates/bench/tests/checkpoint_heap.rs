//! The heap a journal and its checkpoints cost a project, counted by a
//! global allocator. A checkpoint streams its snapshot to disk a chunk at
//! a time, and the tail hub holds the snapshot by its path, so neither
//! keeps a copy of the image in memory. Loading the snapshot back (what a
//! follower's bootstrap, `recover` and a fleet activation run) parses the
//! image in one pass, with no copy of it.
//!
//! The project is `damocles_bench::checkin_storm_session`'s 20,032
//! objects, as in `footprint.rs`. The binary holds a single test, so no
//! other test's allocations are counted. Run it with
//! `cargo test -q -p damocles-bench --test checkpoint_heap -- --nocapture`
//! to see the figures.

use blueprint_core::engine::api::DEFAULT_CHECKPOINT_EVERY;
use blueprint_core::engine::server::ProjectServer;
use damocles_bench::heap::{self, Counting};
use damocles_bench::{
    bench_dir, chain_design_blueprint, checkin_storm_session, MARK_STALE, STORM_FAMILIES,
    STORM_STAGES,
};
use damocles_meta::persist;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes that enabling a journal may add. A hub that kept the
/// rendered image added 5.74 MB for a 4.32 MB snapshot.
const JOURNAL_BOUND: usize = 256 * 1024;

#[test]
fn journaling_holds_no_image_and_a_checkpoint_streams_it() {
    let source = chain_design_blueprint(STORM_FAMILIES, STORM_STAGES, MARK_STALE);
    let mut server = ProjectServer::from_source(&source).expect("the blueprint compiles");
    checkin_storm_session(&mut server);
    let dir = bench_dir("checkpoint-heap");
    let snapshot = dir.join("snapshot.ddb");

    let before = heap::live();
    server
        .enable_journal(&dir, DEFAULT_CHECKPOINT_EVERY)
        .expect("journal enabled");
    let journaling = heap::live().saturating_sub(before);
    let image = std::fs::metadata(&snapshot)
        .expect("snapshot written")
        .len() as usize;
    eprintln!("checkpoint_heap: journaling adds {journaling} live heap bytes; image {image} bytes");
    assert!(
        journaling < JOURNAL_BOUND,
        "journaling adds {journaling} live heap bytes, bound {JOURNAL_BOUND}"
    );

    // One checkpoint may raise the high-water mark by less than half the
    // image it writes; rendering the image into one string raised it by
    // 1.59 images.
    let base = heap::reset_peak();
    server.checkpoint().expect("checkpoint");
    let rise = heap::peak() - base;
    let image = std::fs::metadata(&snapshot)
        .expect("snapshot written")
        .len() as usize;
    eprintln!(
        "checkpoint_heap: a checkpoint raises the heap peak by {rise} bytes; image {image} bytes"
    );
    assert!(
        rise < image / 2,
        "a checkpoint raised the heap peak by {rise} bytes for a {image}-byte image"
    );
    drop(server);

    // Loading the snapshot may raise the peak by what the loaded project
    // holds plus a quarter of the image; a loader that first copied the
    // image without its `data` lines raised it by that plus a third.
    let text = std::fs::read_to_string(&snapshot).expect("snapshot read");
    let before = heap::live();
    let base = heap::reset_peak();
    let loaded = persist::load_project(&text).expect("the snapshot loads");
    let rise = heap::peak() - base;
    let holds = heap::live() - before;
    eprintln!(
        "checkpoint_heap: loading the snapshot raises the heap peak by {rise} bytes; \
         the project holds {holds}"
    );
    assert!(
        rise < holds + image / 4,
        "loading a {image}-byte image raised the heap peak by {rise} bytes for a project \
         holding {holds}"
    );
    drop(loaded);
    let _ = std::fs::remove_dir_all(&dir);
}

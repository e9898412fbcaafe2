//! Shared helpers for the reproduction benches and the heap tests.
//!
//! Each bench file regenerates one experiment listed in DESIGN.md §6
//! (Experiments), which also names the ablations the benches exercise.
//! The heap tests (`tests/footprint.rs`, `tests/checkpoint_heap.rs`)
//! count allocations with [`heap::Counting`] over
//! [`checkin_storm_session`]'s project.
//!
//! Three environment variables steer the benches that use these helpers:
//! `BENCH_SMOKE` shrinks measurement windows and trial counts for CI,
//! `BENCH_FILTER` selects target families by substring, and `BENCH_JSON`
//! names a file that result lines are appended to.

use std::path::PathBuf;
use std::time::Duration;

use blueprint_core::engine::server::ProjectServer;
use criterion::Criterion;
use damocles_flows::{generator, DesignSpec};
use damocles_meta::Oid;

pub mod heap;

/// Whether `BENCH_SMOKE` asks for the short CI run.
pub fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// The criterion configuration of the benches CI smoke-runs: short
/// windows under [`smoke`], full ones otherwise.
pub fn config() -> Criterion {
    let (measure_ms, warm_ms, samples) = if smoke() {
        (250, 80, 5)
    } else {
        (2_000, 400, 20)
    };
    Criterion::default()
        .measurement_time(Duration::from_millis(measure_ms))
        .warm_up_time(Duration::from_millis(warm_ms))
        .sample_size(samples)
}

/// Whether `BENCH_FILTER` (a substring; unset or empty selects
/// everything) selects the target family `name`. CI runs one bench file
/// once per summary file this way.
pub fn target_enabled(name: &str) -> bool {
    std::env::var("BENCH_FILTER").map_or(true, |f| f.is_empty() || name.contains(&f))
}

/// A fresh, empty scratch directory `damocles-bench-<tag>` under the
/// system temp dir.
pub fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("damocles-bench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the temp dir is writable");
    dir
}

/// Appends one result line to the `BENCH_JSON` file, when one is named;
/// non-criterion probes report through this in the harness's format.
pub fn append_bench_json(line: &str) {
    if let Some(path) = std::env::var_os("BENCH_JSON") {
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// A strict-propagation server populated with `spec`'s design.
pub fn populated_server(spec: &DesignSpec) -> ProjectServer {
    let mut server = ProjectServer::from_source(&spec.blueprint_source(true))
        .expect("generated blueprint valid");
    generator::populate(&mut server, spec).expect("populate");
    server
}

/// A loosened (no-propagation) server populated with `spec`'s design.
pub fn loosened_server(spec: &DesignSpec) -> ProjectServer {
    let mut server = ProjectServer::from_source(&spec.blueprint_source(false))
        .expect("generated blueprint valid");
    generator::populate(&mut server, spec).expect("populate");
    server
}

/// Generates a blueprint source with `views` chained views, for parser
/// throughput benches.
pub fn chain_blueprint_source(views: usize) -> String {
    let spec = DesignSpec {
        stages: views,
        blocks: 1,
        fanout: 1,
    };
    spec.blueprint_source(true)
}

/// The `outofdate` rule body of [`chain_design_blueprint`]'s plain
/// design: the delivery marks its object stale.
pub const MARK_STALE: &str = "uptodate = false";

/// The chain design's blueprint, as `damocles_load` writes it: `families`
/// link-disjoint view families `f<f>_s0` … `f<f>_s<stages-1>`, each stage
/// derived from the one before and propagating `outofdate` and `ckin`.
/// Every delivery writes `uptodate` and re-evaluates the `tracked` let;
/// `outofdate` is the body of the `outofdate` rule ([`MARK_STALE`], or
/// that and a tool invocation).
pub fn chain_design_blueprint(families: usize, stages: usize, outofdate: &str) -> String {
    use std::fmt::Write as _;
    let mut src = format!(
        "blueprint waves\n\
         view default\n\
         \x20   property uptodate default true\n\
         \x20   let tracked = ($uptodate == true)\n\
         \x20   when ckin do uptodate = true; post outofdate down done\n\
         \x20   when outofdate do {outofdate} done\n\
         endview\n",
    );
    for f in 0..families {
        let _ = writeln!(src, "view f{f}_s0 endview");
        for s in 1..stages {
            let _ = writeln!(
                src,
                "view f{f}_s{s}\n    link_from f{f}_s{prev} move propagates outofdate, ckin type derived\nendview",
                prev = s - 1
            );
        }
    }
    src.push_str("endblueprint\n");
    src
}

/// View families of [`checkin_storm_session`]'s design.
pub const STORM_FAMILIES: usize = 8;
/// Stages per family of [`checkin_storm_session`]'s design.
pub const STORM_STAGES: usize = 6;
/// Blocks per family of [`checkin_storm_session`]'s design.
pub const STORM_BLOCKS: usize = 64;
/// Drains of 16 check-ins [`checkin_storm_session`] runs after the set-up.
pub const STORM_ROUNDS: usize = 1_060;

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

/// A session with the shape of damocles_load's checkin_storm, on a
/// server built from [`chain_design_blueprint`]`(`[`STORM_FAMILIES`]`,
/// `[`STORM_STAGES`]`, `[`MARK_STALE`]`)`: the 3,072-object chain design
/// (8 families × 6 stages × 64 blocks, every stage linked to the one
/// before, drained once), then 16,960 new versions of 512 unlinked blocks
/// with 64-byte payloads, drained every 16 check-ins. The project ends
/// with 20,032 objects.
pub fn checkin_storm_session(server: &mut ProjectServer) {
    for chain in 0..STORM_FAMILIES * STORM_BLOCKS {
        let family = chain / STORM_BLOCKS;
        let block = format!("f{family}b{}", chain % STORM_BLOCKS);
        for stage in 0..STORM_STAGES {
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
    for _ in 0..STORM_ROUNDS {
        for _ in 0..16 {
            let b = rng.next() % 512;
            let payload: Vec<u8> = (0..64).map(|_| rng.next() as u8).collect();
            let view = format!("f{}_s0", b % STORM_FAMILIES as u64);
            server
                .checkin(&format!("x{b}"), &view, "load", payload)
                .expect("check-in");
        }
        server.process_all().expect("drain");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build() {
        let spec = DesignSpec::tiny();
        let s = populated_server(&spec);
        assert_eq!(s.db().oid_count(), spec.oid_count());
        let l = loosened_server(&spec);
        assert_eq!(l.db().oid_count(), spec.oid_count());
        assert!(chain_blueprint_source(5).contains("view v4"));
    }
}

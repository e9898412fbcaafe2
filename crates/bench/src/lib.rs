//! Shared helpers for the reproduction benches.
//!
//! Each bench file regenerates one experiment listed in DESIGN.md §6
//! (Experiments), which also names the ablations the benches exercise.
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

//! Runs `damocles_load --smoke`: every workload for about a second at
//! 1/20 of the saturation count, against the real `damocles_server`,
//! with the full correctness checks.
//!
//! The server binary must sit next to `damocles_load` in the same target
//! directory. Build both into one target directory first, e.g. from the
//! repository root:
//!
//! ```console
//! $ export CARGO_TARGET_DIR=$PWD/.bench_build
//! $ cargo build --release --bin damocles_server
//! $ cargo test --release --manifest-path damocles_load/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::{Command, Output};

use damocles_load::run::END_TO_END;

/// Runs `damocles_load` with `args`, failing with a build hint when the
/// server binary is missing.
fn run_load(args: &[&str]) -> Output {
    let load = PathBuf::from(env!("CARGO_BIN_EXE_damocles_load"));
    let target = load
        .parent()
        .expect("damocles_load lives in a target directory");
    let server = target.join("damocles_server");
    assert!(
        server.is_file(),
        "no damocles_server at {}: build it into the same target directory, e.g. \
         `CARGO_TARGET_DIR={} cargo build {}--bin damocles_server` from the repository root",
        server.display(),
        target.parent().unwrap_or(target).display(),
        if cfg!(debug_assertions) {
            ""
        } else {
            "--release "
        },
    );
    let workdir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("load_smoke");
    Command::new(&load)
        .args(args)
        .arg("--workdir")
        .arg(&workdir)
        .output()
        .expect("run damocles_load")
}

#[test]
fn every_workload_passes_its_checks() {
    let out = run_load(&["--smoke", "--seed", "3"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "smoke run failed:\n{stderr}");
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), 4, "one result line per workload:\n{stdout}");
    for line in results {
        assert!(line.contains("\"correct\":true"), "{line}\n{stderr}");
        assert!(line.contains("\"failed\":0,"), "{line}");
        for metric in END_TO_END {
            assert!(
                line.contains(&format!("\"{metric}\"")),
                "{metric} missing: {line}"
            );
        }
    }
}

#[test]
fn traced_run_writes_spans_summary_and_overhead() {
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("load_smoke_trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = run_load(&[
        "--smoke",
        "--workload",
        "mixed_follower",
        "--trace",
        "1",
        "--trace-out",
        trace.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "traced smoke run failed:\n{stderr}");
    let result = stdout.lines().last().expect("a result line");
    assert!(result.contains("\"correct\":true"), "{result}\n{stderr}");
    for metric in [
        "p50_ms",
        "sat_rps",
        "read_p50_ms",
        "api.decode_ns",
        "service.process_ns",
        "runtime.deliveries_per_drain",
        "journal.checkpoint_ns_p50",
        "trace.overhead_frac",
    ] {
        assert!(
            result.contains(&format!("\"{metric}\"")),
            "{metric} missing: {result}"
        );
    }
    let spans = std::fs::read_to_string(&trace).expect("the span file");
    let lines: Vec<&str> = spans.lines().collect();
    assert!(lines
        .iter()
        .any(|l| l.contains("\"name\":\"service.process\"")));
    assert!(lines
        .iter()
        .any(|l| l.contains("\"name\":\"client.write\"")));
    assert!(lines.iter().any(|l| l.starts_with("{\"summary\":")));
    let metrics = lines.last().expect("a metrics line");
    assert!(metrics.contains("\"tail.visible_ms_p50\""), "{metrics}");
}

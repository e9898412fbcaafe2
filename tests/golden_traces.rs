//! Golden execution traces (ISSUE 7): every `flows` scenario is run with
//! trace retention on and its drained [`TraceRecord`] stream is diffed
//! against a committed fixture, line by line. A trace is the complete
//! causal story of a drain — begin/deliver/write/fire/invoke/end — so
//! any change to rule dispatch, propagation order, or wave scheduling
//! shows up here as a readable diff instead of a silent behaviour shift.
//!
//! To regenerate after an *intentional* engine change:
//!
//! ```console
//! $ UPDATE_GOLDEN_TRACES=1 cargo test --test golden_traces
//! $ git diff tests/fixtures/golden_traces/   # review the story change
//! ```

use damocles::core::engine::server::ProjectServer;
use damocles::core::engine::trace::TraceRecord;
use damocles::flows::asic::ASIC_SOURCE;
use damocles::flows::scenario::{play, Step};
use damocles::flows::{DesignSpec, EDTC_LOOSENED_SOURCE, EDTC_SOURCE};

/// Runs a scripted scenario with tracing on and returns the drained
/// trace, one encoded record per line.
fn traced_run(source: &str, steps: &[Step]) -> String {
    let mut server = ProjectServer::from_source(source).expect("scenario blueprint parses");
    // The fixtures pin the sequential trace shape (`lane: None`), so a
    // `DAMOCLES_WAVE_WORKERS` count in the environment is overridden here.
    server.set_wave_workers(1);
    server.set_trace_retention(true);
    play(&mut server, steps).expect("scenario plays cleanly");
    let lines: Vec<String> = server
        .take_trace()
        .iter()
        .map(TraceRecord::encode)
        .collect();
    lines.join("\n") + "\n"
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden_traces")
        .join(format!("{name}.trace"))
}

/// Diffs a freshly produced trace against its committed golden fixture;
/// `UPDATE_GOLDEN_TRACES=1` rewrites the fixture instead.
fn assert_golden(name: &str, got: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN_TRACES").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             run `UPDATE_GOLDEN_TRACES=1 cargo test --test golden_traces` to create it",
            path.display()
        )
    });
    if got != want {
        let mut report = String::new();
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                report.push_str(&format!(
                    "  line {}: got  `{g}`\n           want `{w}`\n",
                    i + 1
                ));
            }
        }
        let (gl, wl) = (got.lines().count(), want.lines().count());
        if gl != wl {
            report.push_str(&format!("  length: got {gl} lines, want {wl}\n"));
        }
        panic!(
            "golden trace `{name}` diverged:\n{report}\
             (UPDATE_GOLDEN_TRACES=1 regenerates after an intentional change)"
        );
    }
    // Every drained record must survive the wire codec round trip.
    for line in got.lines() {
        let rec = TraceRecord::decode(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        assert_eq!(rec.encode(), line);
    }
}

#[test]
fn edtc_walkthrough_trace_is_golden() {
    // The §3.4 walkthrough: model + schematic, derive link, a second
    // model version invalidating downstream, then a sim result.
    let mut server = ProjectServer::from_source(EDTC_SOURCE).expect("EDTC parses");
    server.set_wave_workers(1); // fixture pins the sequential trace shape
    server.set_trace_retention(true);
    let steps = [
        Step::checkin("CPU", "HDL_model", "yves", b"module cpu v1"),
        Step::checkin("CPU", "schematic", "synth", b"cpu schematic"),
    ];
    play(&mut server, &steps).unwrap();
    let model: damocles::meta::Oid = "CPU,HDL_model,1".parse().unwrap();
    let schematic: damocles::meta::Oid = "CPU,schematic,1".parse().unwrap();
    server.connect_oids(&model, &schematic).unwrap();
    let tail = [
        Step::ProcessAll,
        Step::checkin("CPU", "HDL_model", "yves", b"module cpu v2"),
        Step::ProcessAll,
        Step::post("postEvent hdl_sim up CPU,HDL_model,2 \"good\"", "simulator"),
        Step::ProcessAll,
    ];
    play(&mut server, &tail).unwrap();
    let lines: Vec<String> = server
        .take_trace()
        .iter()
        .map(TraceRecord::encode)
        .collect();
    assert_golden("edtc", &(lines.join("\n") + "\n"));
}

#[test]
fn edtc_loosened_trace_is_golden() {
    // The §3.2 early-phase variant: same walkthrough, looser rules —
    // the golden traces differ exactly where the blueprints differ.
    let got = traced_run(
        EDTC_LOOSENED_SOURCE,
        &[
            Step::checkin("CPU", "HDL_model", "yves", b"module cpu v1"),
            Step::ProcessAll,
            Step::post("postEvent hdl_sim up CPU,HDL_model,1 \"good\"", "simulator"),
            Step::ProcessAll,
        ],
    );
    assert_golden("edtc_loosened", &got);
}

#[test]
fn asic_signoff_trace_is_golden() {
    // The deeper nine-view ASIC flow: a check-in at the head of the
    // derivation chain walks invalidation through every stage.
    let got = traced_run(
        ASIC_SOURCE,
        &[
            Step::checkin("ALU", "rtl", "frontend", b"alu rtl v1"),
            Step::ProcessAll,
            Step::checkin("ALU", "rtl", "frontend", b"alu rtl v2"),
            Step::ProcessAll,
        ],
    );
    assert_golden("asic", &got);
}

#[test]
fn generated_design_trace_is_golden() {
    // A generated tiny design: the blueprint comes from DesignSpec, so
    // this golden pins the generator's rule emission too.
    let spec = DesignSpec::tiny();
    let source = spec.blueprint_source(true);
    let got = traced_run(
        &source,
        &[
            Step::checkin(
                &DesignSpec::block_name(0),
                &DesignSpec::view_name(0),
                "gen",
                b"d0",
            ),
            Step::checkin(
                &DesignSpec::block_name(1),
                &DesignSpec::view_name(0),
                "gen",
                b"d1",
            ),
            Step::ProcessAll,
        ],
    );
    assert_golden("generated_tiny", &got);
}

#[test]
fn sequential_and_sharded_traces_tell_the_same_story() {
    // The sharded wave path stamps lane/shard on `begin` records but
    // must deliver the same causal steps. Compare with lanes scrubbed.
    let steps = [
        Step::checkin("CPU", "HDL_model", "yves", b"v1"),
        Step::checkin("GPU", "HDL_model", "ada", b"v1"),
        Step::checkin("DSP", "HDL_model", "lin", b"v1"),
        Step::ProcessAll,
    ];
    let sequential = traced_run(EDTC_SOURCE, &steps);

    let mut server = ProjectServer::from_source(EDTC_SOURCE).unwrap();
    server.set_trace_retention(true);
    server.set_wave_workers(3);
    play(&mut server, &steps).unwrap();
    let sharded: Vec<String> = server
        .take_trace()
        .iter()
        .map(|r| match r {
            TraceRecord::Begin {
                event,
                target,
                user,
                clock,
                ..
            } => TraceRecord::Begin {
                event: event.clone(),
                target: target.clone(),
                user: user.clone(),
                clock: *clock,
                lane: None,
                shard: None,
            }
            .encode(),
            other => other.encode(),
        })
        .collect();
    assert_eq!(sequential.trim_end(), sharded.join("\n"));
}

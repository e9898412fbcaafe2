//! Experiment ASYNC (integration side): durable detached tool execution
//! end to end — every invocation reaches a journaled terminal state, the
//! final image is independent of fault timing and worker scheduling, and
//! a fault storm never wedges the command loop.

use std::time::{Duration, Instant};

use damocles::core::engine::api::{Request, Response};
use damocles::core::engine::service::{spawn_project_loop, ProjectService};
use damocles::prelude::*;
use damocles::tools::design_data;
use damocles_meta::journal::{parse_journal, pending_work, JournalOp};
use damocles_meta::persist;

/// The §3.3 automated flow from `tooling.rs`: one HDL check-in cascades
/// through synthesis, netlisting, layout generation, simulation, DRC and
/// LVS. Simulator/DRC/LVS offer detached forms; the rest run inline.
const AUTOMATED: &str = r#"
blueprint automated
view default
    property uptodate default true
    when ckin do uptodate = true; post outofdate down done
    when outofdate do uptodate = false done
endview
view HDL_model
    property sim_result default bad
    when hdl_sim do sim_result = $arg done
    when ckin do exec synthesizer "$oid" done
endview
view schematic
    property nl_sim_res default bad
    link_from HDL_model move propagates outofdate type derived
    use_link move propagates outofdate
    when nl_sim do nl_sim_res = $arg done
    when ckin do exec netlister "$oid"; exec layout_gen "$oid" done
endview
view netlist
    property sim_result default bad
    link_from schematic move propagates nl_sim, outofdate type derived
    when nl_sim do sim_result = $arg done
    when ckin do exec simulator "$oid" done
endview
view layout
    property drc_result default bad
    property lvs_result default not_equiv
    let state = ($drc_result == good) and ($lvs_result == is_equiv) and ($uptodate == true)
    link_from schematic move propagates lvs, outofdate type equivalence
    when drc do drc_result = $arg done
    when lvs do lvs_result = $arg done
    when ckin do exec drc "$oid"; exec lvs "$oid" done
endview
endblueprint
"#;

/// A fast retry discipline so faulty runs converge in test time.
fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_retries: 5,
        base_delay: Duration::from_millis(1),
        multiplier: 2,
        timeout: Duration::from_secs(30),
    }
}

fn detached_server(seed: u64, rate: f64) -> ProjectServer<ToolExecutor> {
    let bp = damocles::core::parse(AUTOMATED).unwrap();
    let executor = ToolExecutor::standard(FaultPlan::new(seed, rate)).detached();
    let mut s = ProjectServer::with_executor(bp, executor).unwrap();
    s.set_retry_policy(None, fast_retries());
    s
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("damocles-async-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Drives the standard workload: `n` HDL check-ins of CPU (depending on
/// REG), each drained to quiescence.
fn run_flow(s: &mut ProjectServer<ToolExecutor>, n: u32) {
    for v in 1..=n {
        s.checkin(
            "CPU",
            "HDL_model",
            "yves",
            design_data::hdl_source("CPU", v, &["REG"], false),
        )
        .unwrap();
        s.process_all().unwrap();
    }
}

// ---------------------------------------------------------------------
// Satellite (a): journaled terminal states across fault rates
// ---------------------------------------------------------------------

/// Under every fault rate, each dispatched invocation reaches a journaled
/// terminal record (`invdone` or `invfail`) and each accepted event is
/// marked done — the work journal drains to quiescence, never wedges.
#[test]
fn every_invocation_reaches_a_journaled_terminal_state() {
    for rate in [0.0, 0.1, 0.5] {
        let dir = temp_dir(&format!("terminal-{}", (rate * 10.0) as u32));
        let mut s = detached_server(7, rate);
        s.enable_journal(&dir, 1_000_000).unwrap();
        run_flow(&mut s, 3);
        let stats = s.invoke_stats();
        assert_eq!(stats.pending + stats.running + stats.retrying, 0);
        assert!(stats.completed > 0, "rate {rate}: detached runs happened");
        drop(s);

        let bytes = std::fs::read(dir.join("journal.djl")).unwrap();
        let tail = parse_journal(&bytes).unwrap();
        let pending = pending_work(&tail.ops);
        assert!(
            pending.events.is_empty() && pending.invocations.is_empty(),
            "rate {rate}: unterminated work left in the journal: {pending:?}"
        );

        // Terminal records pair one-to-one with queued records.
        let mut queued = std::collections::BTreeSet::new();
        let mut terminal = std::collections::BTreeSet::new();
        for op in &tail.ops {
            match op {
                JournalOp::InvokeQueued { id, .. } => assert!(queued.insert(*id)),
                JournalOp::InvokeCompleted { id } | JournalOp::InvokeFailed { id, .. } => {
                    assert!(terminal.insert(*id), "duplicate terminal record for {id}")
                }
                _ => {}
            }
        }
        assert_eq!(queued, terminal, "rate {rate}");
        assert!(!queued.is_empty(), "rate {rate}: work was journaled");
    }
}

// ---------------------------------------------------------------------
// Satellite (a): final image independent of fault timing
// ---------------------------------------------------------------------

/// Same seed, same rate, two fresh runs: worker scheduling and backoff
/// timing differ between runs, but the ordered harvest makes the final
/// image identical.
#[test]
fn final_image_is_independent_of_fault_timing() {
    for rate in [0.1, 0.5] {
        let image_of = || {
            let mut s = detached_server(42, rate);
            run_flow(&mut s, 3);
            persist::save(s.db())
        };
        assert_eq!(image_of(), image_of(), "rate {rate}");
    }
}

// ---------------------------------------------------------------------
// Satellite (c): the ordering contract
// ---------------------------------------------------------------------

/// Fault-free, the detached pool is observationally equivalent to inline
/// execution: results re-enter the queue at their dispatch points, so
/// the final image matches the classic synchronous path exactly.
#[test]
fn detached_matches_inline_when_fault_free() {
    let bp = damocles::core::parse(AUTOMATED).unwrap();
    let mut inline_s =
        ProjectServer::with_executor(bp, ToolExecutor::standard(FaultPlan::never())).unwrap();
    run_flow(&mut inline_s, 2);

    let mut detached_s = detached_server(1, 0.0);
    run_flow(&mut detached_s, 2);

    assert_eq!(persist::save(inline_s.db()), persist::save(detached_s.db()));
}

// ---------------------------------------------------------------------
// Acceptance: a fault storm never wedges the command loop
// ---------------------------------------------------------------------

/// With a rate-0.5 fault plan and `max_retries = 5`, tools crash and sit
/// out backoff delays constantly — yet mutating requests from a second
/// session keep answering in interactive time, because the loop absorbs
/// results through non-blocking pumps instead of parking on the pool.
#[test]
fn fault_storm_keeps_command_loop_responsive() {
    let bp = damocles::core::parse(AUTOMATED).unwrap();
    let executor = ToolExecutor::standard(FaultPlan::new(11, 0.5)).detached();
    let mut server = ProjectServer::with_executor(bp, executor).unwrap();
    server.set_retry_policy(
        None,
        RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(60),
            multiplier: 2,
            timeout: Duration::from_secs(30),
        },
    );
    let service = ProjectService::with_server(server);
    let (handle, join) = spawn_project_loop(service);

    // Session A kicks off the storm: a burst of check-ins whose cascades
    // dispatch dozens of detached tool runs, half of which crash and
    // retry on 60ms+ backoffs.
    let storm = handle.session();
    for v in 1..=8 {
        let resp = storm.call(Request::Checkin {
            block: "CPU".to_string(),
            view: "HDL_model".to_string(),
            user: "yves".to_string(),
            payload: design_data::hdl_source("CPU", v, &["REG"], false),
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }
    let resp = storm.call(Request::ProcessAll);
    assert!(matches!(resp, Response::Processed { .. }), "{resp:?}");

    let in_flight = |session: &damocles::core::engine::service::ClientSession| -> u64 {
        match session.call(Request::Stat) {
            Response::Stat { stat } => {
                stat.pending_invocations + stat.running_invocations + stat.retrying_invocations
            }
            other => panic!("unexpected stat response {other:?}"),
        }
    };

    // Session B: mutating requests during the storm answer fast.
    let client = handle.session();
    assert!(in_flight(&client) > 0, "storm is live after the drain");
    let mut worst = Duration::ZERO;
    for v in 1..=20 {
        let t0 = Instant::now();
        let resp = client.call(Request::Checkin {
            block: "IO".to_string(),
            view: "HDL_model".to_string(),
            user: "marc".to_string(),
            payload: design_data::hdl_source("IO", v, &[], false),
        });
        worst = worst.max(t0.elapsed());
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }
    assert!(
        worst < Duration::from_millis(100),
        "mutating request took {worst:?} during the fault storm"
    );

    // The loop's idle pump drains the storm without further requests.
    let deadline = Instant::now() + Duration::from_secs(30);
    while in_flight(&client) > 0 {
        assert!(Instant::now() < deadline, "storm never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(storm);
    drop(client);
    drop(handle);
    join.join().unwrap();
}

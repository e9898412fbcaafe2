//! Experiment FIG1 — the BluePrint architecture of Fig. 1: design events are
//! queued FIFO and processed sequentially by the engine.
//!
//! Series: queue throughput (enqueue + drain) vs batch size, wire-format
//! parsing cost, and end-to-end post→process latency on the EDTC server.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use blueprint_core::engine::event::QueuedEvent;
use blueprint_core::engine::queue::EventQueue;
use blueprint_core::engine::server::ProjectServer;
use damocles_flows::edtc_blueprint;
use damocles_meta::{Direction, EventMessage, MetaDb, Oid};

fn bench_queue_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1/queue_fifo");
    let mut db = MetaDb::new();
    let id = db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap();
    for &n in &[100usize, 1_000, 10_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.enqueue(
                        QueuedEvent::target("hdl_sim", Direction::Up, id, "bench")
                            .with_arg(format!("run {i}")),
                    );
                }
                let mut drained = 0usize;
                while let Some(ev) = q.dequeue() {
                    drained += 1;
                    black_box(&ev);
                }
                assert_eq!(drained, n);
            });
        });
    }
    group.finish();
}

fn bench_wire_parse(c: &mut Criterion) {
    let line = r#"postEvent ckin up reg,verilog,4 "logic sim passed""#;
    c.bench_function("fig1/wire_parse", |b| {
        b.iter(|| {
            let msg: EventMessage = black_box(line).parse().unwrap();
            black_box(msg)
        });
    });
    let msg: EventMessage = line.parse().unwrap();
    c.bench_function("fig1/wire_format", |b| {
        b.iter(|| black_box(msg.to_string()));
    });
}

fn bench_end_to_end_event(c: &mut Criterion) {
    // post → queue → engine → property update, on the EDTC blueprint with a
    // non-propagating event (pure per-event overhead).
    let mut server = ProjectServer::new(edtc_blueprint()).unwrap();
    let hdl = server
        .checkin("CPU", "HDL_model", "bench", b"m".to_vec())
        .unwrap();
    server.process_all().unwrap();
    let line = format!("postEvent hdl_sim up {hdl} \"good\"");
    c.bench_function("fig1/post_and_process_one_event", |b| {
        b.iter(|| {
            server.post_line(&line, "bench").unwrap();
            let report = server.process_all().unwrap();
            black_box(report)
        });
    });
}

fn config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(400))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_queue_throughput, bench_wire_parse, bench_end_to_end_event
}
criterion_main!(benches);

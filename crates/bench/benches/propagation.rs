//! Experiment PROP — controlling change propagation: cost of one root
//! check-in vs hierarchy depth and fanout, strict vs loosened blueprints.
//!
//! Expected shape: strict cost grows with the affected subgraph (stages ×
//! blocks); loosened cost is flat (the §3.2 "loosening" claim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use blueprint_core::engine::server::ProjectServer;
use damocles_bench::{loosened_server, populated_server};
use damocles_flows::DesignSpec;

fn root_checkin(server: &mut ProjectServer) {
    server
        .checkin("blk0", "v0", "bench", b"next".to_vec())
        .unwrap();
    server.process_all().unwrap();
}

fn bench_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("prop/depth");
    for &stages in &[2usize, 4, 6, 8, 10] {
        let spec = DesignSpec {
            stages,
            blocks: 8,
            fanout: 2,
        };
        group.throughput(Throughput::Elements(spec.oid_count() as u64));
        group.bench_with_input(BenchmarkId::new("strict", stages), &spec, |b, spec| {
            let mut server = populated_server(spec);
            b.iter(|| root_checkin(black_box(&mut server)));
        });
        group.bench_with_input(BenchmarkId::new("loosened", stages), &spec, |b, spec| {
            let mut server = loosened_server(spec);
            b.iter(|| root_checkin(black_box(&mut server)));
        });
    }
    group.finish();
}

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("prop/fanout");
    for &fanout in &[2usize, 4, 8] {
        let spec = DesignSpec {
            stages: 4,
            blocks: 64,
            fanout,
        };
        group.bench_with_input(BenchmarkId::new("strict", fanout), &spec, |b, spec| {
            let mut server = populated_server(spec);
            b.iter(|| root_checkin(black_box(&mut server)));
        });
    }
    group.finish();
}

fn bench_leaf_vs_root(c: &mut Criterion) {
    // Selectivity: a leaf change must cost far less than a root change on
    // the same design.
    let spec = DesignSpec {
        stages: 6,
        blocks: 64,
        fanout: 2,
    };
    let mut group = c.benchmark_group("prop/selectivity");
    group.bench_function("root_checkin", |b| {
        let mut server = populated_server(&spec);
        b.iter(|| root_checkin(black_box(&mut server)));
    });
    group.bench_function("leaf_checkin", |b| {
        let mut server = populated_server(&spec);
        let leaf_block = DesignSpec::block_name(spec.blocks - 1);
        let leaf_view = DesignSpec::view_name(spec.stages - 1);
        b.iter(|| {
            server
                .checkin(&leaf_block, &leaf_view, "bench", b"next".to_vec())
                .unwrap();
            let report = server.process_all().unwrap();
            black_box(report)
        });
    });
    group.finish();
}

fn bench_cycle_guard_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: the cycle guard also deduplicates *diamond* paths
    // (chain × hierarchy), so disabling it on a DAG multiplies deliveries by
    // the path count — kept small here so the ablation finishes.
    let spec = DesignSpec {
        stages: 4,
        blocks: 16,
        fanout: 2,
    };
    let mut group = c.benchmark_group("prop/cycle_guard_ablation");
    group.bench_function("guard_on", |b| {
        let mut server = populated_server(&spec);
        b.iter(|| root_checkin(black_box(&mut server)));
    });
    group.bench_function("guard_off", |b| {
        let mut server = populated_server(&spec);
        server.policy_mut().cycle_guard = false;
        b.iter(|| root_checkin(black_box(&mut server)));
    });
    group.finish();
}

fn bench_lets_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: eager per-delivery `let` re-evaluation (the
    // paper's "continuously being reevaluated") vs deferred batch refresh.
    // A blueprint with three lets per view makes the phase visible.
    let src = r#"blueprint lets
        view default
            property uptodate default true
            when ckin do uptodate = true; post outofdate down done
            when outofdate do uptodate = false done
        endview
        view a
            property x default 0
            let l1 = ($x == 1)
            let l2 = ($x == 2) or ($uptodate == true)
            let l3 = not ($x == 3)
            when ev do x = $arg done
        endview
        endblueprint"#;
    let mut group = c.benchmark_group("prop/lets_ablation");
    group.bench_function("eager", |b| {
        let mut server = ProjectServer::from_source(src).unwrap();
        let oid = server.checkin("b", "a", "bench", b"x".to_vec()).unwrap();
        server.process_all().unwrap();
        let line = format!("postEvent ev up {oid} \"1\"");
        b.iter(|| {
            server.post_line(&line, "bench").unwrap();
            black_box(server.process_all().unwrap());
        });
    });
    group.bench_function("lazy_plus_refresh", |b| {
        let policy = blueprint_core::engine::policy::Policy {
            eager_lets: false,
            ..Default::default()
        };
        let mut server = ProjectServer::from_source(src).unwrap().with_policy(policy);
        let oid = server.checkin("b", "a", "bench", b"x".to_vec()).unwrap();
        server.process_all().unwrap();
        let line = format!("postEvent ev up {oid} \"1\"");
        b.iter(|| {
            server.post_line(&line, "bench").unwrap();
            server.process_all().unwrap();
            black_box(server.refresh_lets().unwrap());
        });
    });
    group.bench_function("lazy_no_refresh", |b| {
        let policy = blueprint_core::engine::policy::Policy {
            eager_lets: false,
            ..Default::default()
        };
        let mut server = ProjectServer::from_source(src).unwrap().with_policy(policy);
        let oid = server.checkin("b", "a", "bench", b"x".to_vec()).unwrap();
        server.process_all().unwrap();
        let line = format!("postEvent ev up {oid} \"1\"");
        b.iter(|| {
            server.post_line(&line, "bench").unwrap();
            black_box(server.process_all().unwrap());
        });
    });
    group.finish();
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
    targets = bench_depth, bench_fanout, bench_leaf_vs_root, bench_cycle_guard_ablation, bench_lets_ablation
}
criterion_main!(benches);

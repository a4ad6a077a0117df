//! Cluster-simulator benchmarks: the Fig. 3 pipeline, a paper-scale 24-PE
//! run (the unit of work behind every box in Figs. 9–12), and the failure
//! scenarios of Fig. 11.

use criterion::{criterion_group, criterion_main, Criterion};
use laar_core::testutil::fig2_problem;
use laar_dsps::{FailurePlan, InputTrace, SimConfig, Simulation};
use laar_model::{ActivationStrategy, ConfigId, HostId};
use std::hint::black_box;

fn fig2b_strategy() -> ActivationStrategy {
    let mut s = ActivationStrategy::all_active(2, 2, 2);
    s.set_active(0, ConfigId(1), 1, false);
    s.set_active(1, ConfigId(1), 0, false);
    s
}

fn bench_fig3_pipeline(c: &mut Criterion) {
    let p = fig2_problem(0.6);
    let trace = InputTrace::low_high_centered(4.0, 8.0, 150.0, 0.4);
    let mut g = c.benchmark_group("simulator/fig3_pipeline_150s");
    g.sample_size(20);
    g.bench_function("static_replication", |b| {
        b.iter(|| {
            let sim = Simulation::new(
                &p.app,
                &p.placement,
                ActivationStrategy::all_active(2, 2, 2),
                &trace,
                FailurePlan::None,
                SimConfig::default(),
            );
            black_box(sim.run().total_processed())
        });
    });
    g.bench_function("laar", |b| {
        b.iter(|| {
            let sim = Simulation::new(
                &p.app,
                &p.placement,
                fig2b_strategy(),
                &trace,
                FailurePlan::None,
                SimConfig::default(),
            );
            black_box(sim.run().total_processed())
        });
    });
    g.finish();
}

fn bench_paper_scale(c: &mut Criterion) {
    let gen = laar_bench::paper_app();
    let trace = InputTrace::low_high_centered(
        gen.low_rate,
        gen.high_rate,
        gen.app.billing_period(),
        gen.p_high(),
    );
    let np = gen.app.graph().num_pes();
    let sr = ActivationStrategy::all_active(np, 2, 2);

    let mut g = c.benchmark_group("simulator/paper_scale_24pe_300s");
    g.sample_size(10);
    g.bench_function("best_case_sr", |b| {
        b.iter(|| {
            let sim = Simulation::new(
                &gen.app,
                &gen.placement,
                sr.clone(),
                &trace,
                FailurePlan::None,
                SimConfig::default(),
            );
            black_box(sim.run().total_processed())
        });
    });
    g.bench_function("worst_case_sr", |b| {
        let plan = FailurePlan::worst_case(&gen.app, &sr);
        b.iter(|| {
            let sim = Simulation::new(
                &gen.app,
                &gen.placement,
                sr.clone(),
                &trace,
                plan.clone(),
                SimConfig::default(),
            );
            black_box(sim.run().total_processed())
        });
    });
    g.bench_function("host_crash_sr", |b| {
        let plan = FailurePlan::host_crash(HostId(0), 140.0);
        b.iter(|| {
            let sim = Simulation::new(
                &gen.app,
                &gen.placement,
                sr.clone(),
                &trace,
                plan.clone(),
                SimConfig::default(),
            );
            black_box(sim.run().total_processed())
        });
    });
    g.finish();
}

fn bench_quantum_resolution(c: &mut Criterion) {
    // Ablation of the scheduling-quantum design choice: finer quanta model
    // GPS more faithfully but cost proportionally more.
    let p = fig2_problem(0.6);
    let trace = InputTrace::low_high_centered(4.0, 8.0, 60.0, 1.0 / 3.0);
    let mut g = c.benchmark_group("simulator/quantum_resolution_60s");
    g.sample_size(10);
    for quantum in [0.05, 0.01, 0.002] {
        g.bench_function(format!("dt_{quantum}"), |b| {
            let cfg = SimConfig {
                quantum,
                ..SimConfig::default()
            };
            b.iter(|| {
                let sim = Simulation::new(
                    &p.app,
                    &p.placement,
                    fig2b_strategy(),
                    &trace,
                    FailurePlan::None,
                    cfg.clone(),
                );
                black_box(sim.run().total_processed())
            });
        });
    }
    g.finish();
}

fn bench_time_advance(c: &mut Criterion) {
    // The two extremes of the horizon jump: a quiescent-heavy sparse trace
    // (where it skips almost every quantum) and a saturated trace (where
    // it never fires and must not cost anything).
    let gen = laar_bench::paper_app();
    let np = gen.app.graph().num_pes();
    let sr = ActivationStrategy::all_active(np, 2, 2);
    let period = gen.app.billing_period();
    let sparse = InputTrace::constant(&[(gen.low_rate * 0.1).min(0.5)], period);
    let saturated = InputTrace::constant(&[gen.high_rate], period);

    let mut g = c.benchmark_group("simulator/time_advance_24pe_300s");
    g.sample_size(10);
    for (label, trace) in [("quiescent", &sparse), ("saturated", &saturated)] {
        g.bench_function(format!("{label}/event"), |b| {
            b.iter(|| {
                let sim = Simulation::new(
                    &gen.app,
                    &gen.placement,
                    sr.clone(),
                    trace,
                    FailurePlan::None,
                    SimConfig::default(),
                );
                black_box(sim.run().total_processed())
            });
        });
    }
    g.finish();
}

fn bench_host_parallel(c: &mut Criterion) {
    // Host-parallel scheduling over the host-major arena: the saturated
    // 8×-paper deployment (192 PEs on 32 hosts) where every quantum carries
    // enough per-host grain for the fan-out to matter, swept over worker
    // threads. threads=1 is the single-chunk path (no pool is built); the
    // staged rows are bit-identical to it by construction.
    let gen = laar_gen::generator::generate_app(&laar_gen::GenParams::default().scaled(8.0), 7);
    let np = gen.app.graph().num_pes();
    let sr = ActivationStrategy::all_active(np, 2, 2);
    let trace = InputTrace::constant(&[gen.high_rate], 30.0);

    let mut g = c.benchmark_group("simulator/host_parallel_192pe_32host_30s");
    g.sample_size(10);
    for threads in [1usize, 2, 4] {
        g.bench_function(format!("threads_{threads}"), |b| {
            let cfg = SimConfig {
                threads,
                ..SimConfig::default()
            };
            b.iter(|| {
                let sim = Simulation::new(
                    &gen.app,
                    &gen.placement,
                    sr.clone(),
                    &trace,
                    FailurePlan::None,
                    cfg.clone(),
                );
                black_box(sim.run().total_processed())
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fig3_pipeline,
    bench_paper_scale,
    bench_quantum_resolution,
    bench_time_advance,
    bench_host_parallel
);
criterion_main!(benches);

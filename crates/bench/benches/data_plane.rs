//! Benchmarks of the live-engine data plane: SPSC ring transfer in both
//! the tuple-at-a-time and slice idioms, and a short end-to-end
//! `LiveRuntime` run. The ring numbers isolate the per-tuple transport
//! cost; the end-to-end run is what `laar bench-runtime` measures at
//! paper scale.

use criterion::{criterion_group, criterion_main, Criterion};
use laar_dsps::{FailurePlan, InputTrace};
use laar_gen::{generator::generate_app, GenParams};
use laar_model::ActivationStrategy;
use laar_runtime::{spsc, LiveRuntime, RuntimeConfig};
use std::hint::black_box;

const RING_CAP: usize = 1024;

/// Fill-then-drain one ring with scalar `push`/`pop` calls.
fn bench_ring_scalar(c: &mut Criterion) {
    let (mut tx, mut rx) = spsc::channel::<f64>(RING_CAP);
    c.bench_function("data_plane/ring_scalar_1k", |b| {
        b.iter(|| {
            for i in 0..RING_CAP {
                let _ = tx.push(i as f64);
            }
            let mut popped = 0usize;
            while rx.pop().is_some() {
                popped += 1;
            }
            black_box(popped)
        });
    });
}

/// Fill-then-drain one ring with `push_slice`/`drain_into`.
fn bench_ring_slice(c: &mut Criterion) {
    let (mut tx, mut rx) = spsc::channel::<f64>(RING_CAP);
    let batch: Vec<f64> = (0..RING_CAP).map(|i| i as f64).collect();
    let mut sink: Vec<f64> = Vec::with_capacity(RING_CAP);
    c.bench_function("data_plane/ring_slice_1k", |b| {
        b.iter(|| {
            let pushed = tx.push_slice(&batch);
            let drained = rx.drain_into(&mut sink);
            sink.clear();
            black_box((pushed, drained))
        });
    });
}

/// A short accelerated end-to-end run on a small generated app. Wall time
/// here is pinned by the scaled clock (the trace is 2 s at 2000x, so ~1 ms
/// per run plus thread setup).
fn bench_live_runtime(c: &mut Criterion) {
    let params = GenParams {
        num_hosts: 1,
        host_capacity: 4.0,
        duration: 2.0,
        ..GenParams::default()
    };
    let gen = generate_app(&params, 7);
    let strategy = ActivationStrategy::all_active(gen.app.graph().num_pes(), 2, 2);
    let trace = InputTrace::constant(&[gen.high_rate], params.duration);
    let mut g = c.benchmark_group("data_plane/live_runtime_2s_x2000");
    g.sample_size(10);
    g.bench_function("batched", |b| {
        b.iter(|| {
            let mut cfg = RuntimeConfig::accelerated(2000.0);
            cfg.queue_capacity_secs = 0.25;
            cfg.detection_delay = cfg.detection_delay.max(0.02 * 2000.0);
            let report = LiveRuntime::new(
                &gen.app,
                &gen.placement,
                strategy.clone(),
                &trace,
                FailurePlan::None,
                cfg,
            )
            .run();
            black_box(report.metrics.total_processed())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ring_scalar,
    bench_ring_slice,
    bench_live_runtime
);
criterion_main!(benches);

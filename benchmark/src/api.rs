//! The adapter: the only file of the benchmark that names `laar_*` items.
//!
//! It uses the surface ROADMAP items 1 and 3 keep — `ftsearch::solve` with
//! `FtSearchConfig { .., ..Default::default() }`, `Simulation::new(..).run()`
//! / `.run_adaptive()` with `SimConfig { .., ..Default::default() }`,
//! `LiveRuntime::new(..).run()` with `RuntimeConfig::accelerated`,
//! `AdaptConfig::new`, `generate_app` / `solver_corpus` / `runtime_corpus` —
//! and never the layout, time-advance, data-plane or extra `solve_*` entry
//! points those items delete. Everything the workloads need comes back as
//! plain numbers, so the rest of the harness compiles against this file
//! alone.

use crate::process::cpu_seconds;
use crate::stats::fnv1a64;
use crate::trace::Tracer;
use laar_adapt::{AdaptConfig, AdaptReport, DriftConfig, DriftDetector};
use laar_core::ftsearch::{self, FtSearchConfig, SearchMode};
use laar_core::{
    greedy, non_replicated, static_replication, HaController, PessimisticFailure, Problem,
    RateMonitor,
};
use laar_dsps::{FailurePlan, InputTrace, RateSchedule, SimConfig, Simulation};
use laar_exec::replica::{InPort, Replica};
use laar_exec::swap::plan_swap;
use laar_gen::generator::generate_app;
use laar_gen::{runtime_corpus, solver_corpus, GenParams, GeneratedApp};
use laar_model::{ActivationStrategy, Application, ConfigId, HostId, Placement, RateTable};
use laar_runtime::{spsc, LiveRuntime, RuntimeConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seed of every fixed deployment (the one `bench-sim` and `bench-runtime`
/// have always used): the topologies stay put so that a run's cost does not
/// depend on which graph the seed happened to draw; `--seed` varies the
/// order of operations and the drift onset instead.
const FIXTURE_SEED: u64 = 7;

/// Wall-clock backstop of one timed proof.
const SOLVE_BACKSTOP: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------- solver

/// One `(instance, IC)` proof of the `plan-proofs` pool with what the
/// calibration recorded for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProofSpec {
    /// Index into `solver_corpus(corpus_size, corpus_seed)`.
    pub instance: usize,
    /// IC requirement.
    pub ic: f64,
    /// Expected outcome label (`BST` or `NUL`).
    pub label: String,
    /// Expected optimal cost (0 for `NUL`).
    pub cost: f64,
}

/// A proof ready to be timed.
pub struct Proof {
    /// What the manifest expects.
    pub spec: ProofSpec,
    problem: Problem,
}

/// What one `ftsearch::solve` call returned, as numbers.
#[derive(Debug, Clone, Default)]
pub struct SolveResult {
    /// Wall seconds of the call.
    pub wall_s: f64,
    /// Outcome label (`BST`/`SOL`/`NUL`/`TMO`).
    pub label: &'static str,
    /// Cost of the returned strategy (0 without one).
    pub cost: f64,
    /// `Problem::check` violations of the returned strategy.
    pub violations: usize,
    /// Whether the search exhausted the tree.
    pub proved: bool,
    /// Search-tree nodes visited.
    pub nodes: u64,
    /// Prune counts: CPU, COMPL, COST, DOM, NOGOOD.
    pub prunes: [u64; 5],
    /// Milliseconds to the first feasible strategy (0 without one).
    pub time_to_first_ms: f64,
    /// Milliseconds to the best strategy (0 without one).
    pub time_to_best_ms: f64,
    /// CP restarts.
    pub restarts: u64,
    /// LNS rounds.
    pub lns_rounds: u64,
    /// Nogoods learned.
    pub nogoods_learned: u64,
}

fn solve_with(
    problem: &Problem,
    cfg: &FtSearchConfig,
    t: &mut Tracer,
) -> (SolveResult, Option<ActivationStrategy>) {
    let (report, wall_s) = t.time("ftsearch.solve", |_| {
        ftsearch::solve(problem, cfg).expect("the corpus is two-fold replicated")
    });
    let solution = report.outcome.solution();
    let stats = &report.stats;
    let ms = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let result = SolveResult {
        wall_s,
        label: report.outcome.label(),
        cost: solution.map_or(0.0, |s| s.cost_cycles),
        violations: solution.map_or(0, |s| problem.check(&s.strategy).len()),
        proved: stats.proved,
        nodes: stats.nodes,
        prunes: stats.prunes,
        time_to_first_ms: ms(stats.time_to_first),
        time_to_best_ms: ms(stats.time_to_best),
        restarts: stats.restarts,
        lns_rounds: stats.lns_rounds,
        nogoods_learned: stats.nogoods_learned,
    };
    (result, solution.map(|s| s.strategy.clone()))
}

/// Build the problems of `specs` from `solver_corpus(size, seed)`.
pub fn proofs(
    corpus_seed: u64,
    corpus_size: usize,
    specs: &[ProofSpec],
    t: &mut Tracer,
) -> Vec<Proof> {
    let (corpus, _) = t.time("gen.generate", |_| solver_corpus(corpus_size, corpus_seed));
    t.time("core.problem_build", |_| {
        specs
            .iter()
            .map(|spec| {
                let gen = &corpus[spec.instance].gen;
                Proof {
                    spec: spec.clone(),
                    problem: Problem::new(gen.app.clone(), gen.placement.clone(), spec.ic)
                        .expect("generated instances are well formed"),
                }
            })
            .collect()
    })
    .0
}

/// One sequential default-configuration proof.
pub fn prove(proof: &Proof, t: &mut Tracer) -> SolveResult {
    solve_with(
        &proof.problem,
        &FtSearchConfig::with_time_limit(SOLVE_BACKSTOP),
        t,
    )
    .0
}

/// `calibrate`: solve every `(instance, IC)` pair of the corpus under
/// `limit` and keep those the default solver proves in `[lo_s, hi_s]`.
pub fn calibrate_proofs(
    corpus_seed: u64,
    corpus_size: usize,
    limit: Duration,
    lo_s: f64,
    hi_s: f64,
) -> Vec<(ProofSpec, f64)> {
    let mut t = Tracer::new(false);
    let mut kept = Vec::new();
    for (instance, inst) in solver_corpus(corpus_size, corpus_seed).iter().enumerate() {
        for ic in [0.5, 0.6, 0.7] {
            let problem = Problem::new(inst.gen.app.clone(), inst.gen.placement.clone(), ic)
                .expect("generated instances are well formed");
            let (r, _) = solve_with(&problem, &FtSearchConfig::with_time_limit(limit), &mut t);
            if r.proved && (lo_s..=hi_s).contains(&r.wall_s) {
                let spec = ProofSpec {
                    instance,
                    ic,
                    label: r.label.to_owned(),
                    cost: r.cost,
                };
                kept.push((spec, r.wall_s));
            }
        }
    }
    kept
}

// ------------------------------------------------------------- simulator

/// One simulation ready to run.
pub struct SimJob {
    app: Application,
    placement: Placement,
    strategy: ActivationStrategy,
    trace: InputTrace,
    plan: FailurePlan,
    config: SimConfig,
}

/// The adaptation loop's accounting of one run, as numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptSummary {
    /// Trace time of the first confirmed detection.
    pub detected_at: Option<f64>,
    /// Trace time of the last hot-swap.
    pub last_swap_at: Option<f64>,
    /// Drift checks performed.
    pub checks: u64,
    /// Hot-swaps issued.
    pub swaps: u64,
    /// Re-plans that fell back to the penalty model.
    pub soft_fallbacks: u64,
    /// Search nodes of the last re-plan.
    pub replan_nodes: u64,
    /// Wall milliseconds of the last re-plan.
    pub replan_wall_ms: f64,
    /// Wall milliseconds until the last re-plan found its best strategy.
    pub replan_time_to_best_ms: f64,
    /// Planned cost of the installed strategy.
    pub planned_cost: Option<f64>,
    /// Planned IC of the installed strategy.
    pub planned_ic: Option<f64>,
    /// Cost of the stale strategy under the corrected descriptor.
    pub stale_cost: Option<f64>,
}

impl From<AdaptReport> for AdaptSummary {
    fn from(r: AdaptReport) -> Self {
        Self {
            detected_at: r.detected_at,
            last_swap_at: r.last_swap_at,
            checks: r.checks,
            swaps: r.swaps,
            soft_fallbacks: r.soft_fallbacks,
            replan_nodes: r.replan_nodes,
            replan_wall_ms: r.replan_wall_ms,
            replan_time_to_best_ms: r.replan_time_to_best_ms,
            planned_cost: r.planned_cost,
            planned_ic: r.planned_ic,
            stale_cost: r.stale_cost,
        }
    }
}

/// What one simulation returned, as numbers.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Wall seconds of `Simulation::new`.
    pub new_s: f64,
    /// Wall seconds of `run` / `run_adaptive`.
    pub run_s: f64,
    /// Tuple completions (`SimMetrics::total_processed`).
    pub processed: u64,
    /// Whether the conservation ledger balances.
    pub balanced: bool,
    /// FNV-1a of the serialized `SimMetrics` — every field is deterministic.
    pub digest: u64,
    /// Scheduling quanta the trace spans.
    pub quanta: f64,
    /// Tuples dropped by full input queues.
    pub queue_drops: u64,
    /// Tuples handed toward a replica.
    pub pushed: u64,
    /// Simulated CPU seconds over `hosts × K × duration`.
    pub host_busy_share: f64,
    /// Simulated median end-to-end latency, seconds.
    pub latency_p50_s: f64,
    /// Simulated 99th-percentile end-to-end latency, seconds.
    pub latency_p99_s: f64,
    /// Primary fail-overs.
    pub failovers: u64,
    /// Activation commands applied.
    pub commands_applied: u64,
    /// Configuration switches.
    pub config_switches: u64,
    /// Control passes of a swap with some PE lacking a primary.
    pub swap_downtime_quanta: u64,
    /// Source tuples emitted during those passes.
    pub swap_downtime_tuples: u64,
    /// Adaptation accounting (adaptive runs only).
    pub adapt: Option<AdaptSummary>,
}

impl SimJob {
    fn new(
        gen: &GeneratedApp,
        strategy: ActivationStrategy,
        trace: InputTrace,
        plan: FailurePlan,
        config: SimConfig,
    ) -> Self {
        Self {
            app: gen.app.clone(),
            placement: gen.placement.clone(),
            strategy,
            trace,
            plan,
            config,
        }
    }

    /// PEs of the simulated application.
    pub fn num_pes(&self) -> usize {
        self.app.graph().num_pes()
    }

    /// Run the simulation: `dsps.sim_new` and `dsps.sim_run` are timed
    /// apart, the digest is taken in a `check` span after both.
    pub fn run(&self, t: &mut Tracer) -> SimResult {
        // Cloned out here: only the engine's own call is inside the span.
        let (strategy, plan, config) = (
            self.strategy.clone(),
            self.plan.clone(),
            self.config.clone(),
        );
        let (sim, new_s) = t.time("dsps.sim_new", |_| {
            Simulation::new(
                &self.app,
                &self.placement,
                strategy,
                &self.trace,
                plan,
                config,
            )
        });
        let ((m, adapt), run_s) = t.time("dsps.sim_run", |_| sim.run_adaptive());
        let digest = t
            .time("check", |_| {
                fnv1a64(
                    serde_json::to_string(&m)
                        .expect("the metrics serialize")
                        .as_bytes(),
                )
            })
            .0;
        let capacity: f64 = self.placement.hosts().iter().map(|h| h.capacity).sum();
        SimResult {
            new_s,
            run_s,
            processed: m.total_processed(),
            balanced: m.conservation.is_balanced(),
            digest,
            quanta: self.trace.duration / self.config.quantum,
            queue_drops: m.queue_drops,
            pushed: m.conservation.pushed,
            host_busy_share: m.total_cpu_seconds() / (capacity * m.duration).max(1e-12),
            latency_p50_s: m.latency.quantile(0.5),
            latency_p99_s: m.latency.quantile(0.99),
            failovers: m.failovers,
            commands_applied: m.commands_applied,
            config_switches: m.config_switches,
            swap_downtime_quanta: m.swap_downtime_quanta,
            swap_downtime_tuples: m.swap_downtime_tuples,
            adapt: adapt.map(AdaptSummary::from),
        }
    }
}

/// A saturated all-active deployment driven at its High rate.
fn saturated(gen: &GeneratedApp, secs: f64) -> SimJob {
    SimJob::new(
        gen,
        ActivationStrategy::all_active(gen.app.graph().num_pes(), 2, 2),
        InputTrace::constant(&[gen.high_rate], secs),
        FailurePlan::None,
        SimConfig::default(),
    )
}

/// `sim-dense`: the paper deployment scaled 8× (192 PEs on 32 hosts) with
/// the full selectivity range, so every quantum carries millions of queued
/// tuples.
pub fn dense(secs: f64, t: &mut Tracer) -> SimJob {
    let (gen, _) = t.time("gen.generate", |_| {
        generate_app(&GenParams::default().scaled(8.0), FIXTURE_SEED)
    });
    saturated(&gen, secs)
}

/// `sim-wide`: 10 000 PEs on 1 667 hosts with sub-unit selectivities, so
/// each of the 20 000 replicas sees few tuples per quantum.
pub fn wide(secs: f64, t: &mut Tracer) -> SimJob {
    let (gen, _) = t.time("gen.generate", |_| {
        generate_app(&GenParams::scaled_bench(10_000.0 / 24.0), FIXTURE_SEED)
    });
    saturated(&gen, secs)
}

/// `sim-sweep`: `apps` paper-scale applications × {SR, GRD, NR} × {no
/// failure, worst case, host 1 down at 120 s} on the paper's Low/High trace.
pub fn sweep(apps: usize, t: &mut Tracer) -> Vec<SimJob> {
    let (corpus, _) = t.time("gen.generate", |_| {
        runtime_corpus(apps, &GenParams::default(), FIXTURE_SEED)
    });
    let mut jobs = Vec::with_capacity(apps * 9);
    for gen in &corpus {
        let (problem, _) = t.time("core.problem_build", |_| {
            Problem::new(gen.app.clone(), gen.placement.clone(), 0.0)
                .expect("generated instances are well formed")
        });
        let (strategies, _) = t.time("core.variants", |_| {
            let grd = greedy(&problem).strategy;
            let nr = non_replicated(&problem, &grd);
            [static_replication(&problem), grd, nr]
        });
        let trace = InputTrace::low_high_centered(
            gen.low_rate,
            gen.high_rate,
            gen.app.billing_period(),
            gen.p_high(),
        );
        for s in strategies {
            for plan in [
                FailurePlan::None,
                FailurePlan::worst_case(&gen.app, &s),
                FailurePlan::host_crash(HostId(1), 120.0),
            ] {
                let config = SimConfig::default();
                jobs.push(SimJob::new(gen, s.clone(), trace.clone(), plan, config));
            }
        }
    }
    jobs
}

// ----------------------------------------------------------- live engine

/// One live run ready to start.
pub struct LiveJob {
    app: Application,
    placement: Placement,
    strategy: ActivationStrategy,
    trace: InputTrace,
    config: RuntimeConfig,
}

/// What one live run returned, as numbers.
#[derive(Debug, Clone, Default)]
pub struct LiveResult {
    /// Wall seconds of `LiveRuntime::new`.
    pub new_s: f64,
    /// Wall seconds of `run`.
    pub run_s: f64,
    /// Process CPU seconds consumed by `run`, all threads.
    pub cpu_s: f64,
    /// Tuple completions.
    pub processed: u64,
    /// Whether the conservation ledger balances.
    pub balanced: bool,
    /// Scheduling passes of the coordinator and all workers.
    pub loop_passes: u64,
    /// Tuples accepted by transport rings.
    pub pushed: u64,
    /// Tuples rejected by full transport rings.
    pub transport_dropped: u64,
    /// Tuples dropped by full input queues.
    pub queue_drops: u64,
    /// Largest `dropped / (pushed + dropped)` over the transport edges.
    pub hottest_edge_drop_share: f64,
    /// 99th-percentile end-to-end latency, trace seconds.
    pub latency_p99_s: f64,
    /// Primary fail-overs (none is injected: any is a false detection).
    pub failovers: u64,
    /// Adaptation accounting (adaptive runs only).
    pub adapt: Option<AdaptSummary>,
}

impl LiveJob {
    /// Run the deployment on the live engine.
    pub fn run(&self, t: &mut Tracer) -> LiveResult {
        let (strategy, config) = (self.strategy.clone(), self.config.clone());
        let (rt, new_s) = t.time("runtime.live_new", |_| {
            LiveRuntime::new(
                &self.app,
                &self.placement,
                strategy,
                &self.trace,
                FailurePlan::None,
                config,
            )
        });
        let cpu0 = cpu_seconds();
        let (report, run_s) = t.time("runtime.live_run", |_| rt.run());
        let cpu_s = cpu_seconds() - cpu0;
        let share =
            |dropped: u64, pushed: u64| dropped as f64 / ((pushed + dropped) as f64).max(1.0);
        LiveResult {
            new_s,
            run_s,
            cpu_s,
            processed: report.metrics.total_processed(),
            balanced: report.conservation.is_balanced(),
            loop_passes: report.loop_passes,
            pushed: report.conservation.pushed,
            transport_dropped: report.conservation.transport_dropped,
            queue_drops: report.metrics.queue_drops,
            hottest_edge_drop_share: report
                .transport_edges
                .iter()
                .map(|e| share(e.dropped, e.pushed))
                .fold(0.0, f64::max),
            latency_p99_s: report.metrics.latency.quantile(0.99),
            failovers: report.metrics.failovers,
            adapt: report.adapt.map(AdaptSummary::from),
        }
    }
}

/// A live configuration at `scale` trace seconds per wall second. OS jitter
/// of J wall seconds looks like J × scale trace seconds of heartbeat
/// staleness, so the detection delay tolerates 20 ms of it.
fn accelerated(scale: f64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::accelerated(scale);
    cfg.detection_delay = cfg.detection_delay.max(0.02 * scale);
    cfg
}

/// `live-overdrive`: the single-host twin of the paper deployment (one
/// worker thread plus the coordinator) with tight queues, offered its High
/// rate at 40 000× — above what two CPU-bound threads can carry — for
/// `wall_s` wall seconds.
pub fn overdrive(wall_s: f64, t: &mut Tracer) -> LiveJob {
    const SCALE: f64 = 40_000.0;
    let duration = SCALE * wall_s;
    let (gen, _) = t.time("gen.generate", |_| {
        let params = GenParams {
            num_hosts: 1,
            host_capacity: 4.0,
            duration,
            ..GenParams::default()
        };
        generate_app(&params, FIXTURE_SEED)
    });
    let mut config = accelerated(SCALE);
    config.queue_capacity_secs = 0.25;
    LiveJob {
        strategy: ActivationStrategy::all_active(gen.app.graph().num_pes(), 2, 2),
        trace: InputTrace::constant(&[gen.high_rate], duration),
        app: gen.app,
        placement: gen.placement,
        config,
    }
}

// ------------------------------------------------------------ adaptation

/// IC requirement of the drifting deployment.
const DRIFT_IC: f64 = 0.6;
/// Trace length of the drifting deployment.
const DRIFT_TRACE_S: f64 = 120.0;
/// The source drifts to this multiple of its declared High rate.
const DRIFT_FACTOR: f64 = 1.5;

/// The `adapt-drift` fixture: one drifting deployment run four ways.
pub struct Drift {
    /// The installed-strategy solve (CP engine under a node budget).
    pub installed: SolveResult,
    /// Rides the stale strategy on the simulator.
    pub stale: SimJob,
    /// Adapts on the simulator.
    pub adaptive: SimJob,
    /// Adapts on the live engine.
    pub live: LiveJob,
    /// The simulator under the live run's configuration: its oracle.
    pub live_oracle: SimJob,
}

/// Build the drifting deployment: `generate_app` with `app_seed`, the
/// installed strategy from the CP engine under a 2 M-node budget, and a
/// trace that sits at Low until `onset` and at 1.5 × the declared High
/// after. `None` when the solver finds no strategy to install.
pub fn drift(app_seed: u64, onset: f64, live_scale: f64, t: &mut Tracer) -> Option<Drift> {
    let (gen, _) = t.time("gen.generate", |_| {
        let params = GenParams {
            duration: DRIFT_TRACE_S,
            ..GenParams::default()
        };
        generate_app(&params, app_seed)
    });
    let (problem, _) = t.time("core.problem_build", |_| {
        Problem::new(gen.app.clone(), gen.placement.clone(), DRIFT_IC)
            .expect("generated instances are well formed")
    });
    let cfg = FtSearchConfig {
        mode: SearchMode::Portfolio,
        node_limit: Some(2_000_000),
        ..FtSearchConfig::default()
    };
    let (installed, strategy) = solve_with(&problem, &cfg, t);
    let strategy = strategy?;
    let trace = InputTrace {
        schedules: vec![RateSchedule::from_segments(vec![
            (0.0, gen.low_rate),
            (onset, DRIFT_FACTOR * gen.high_rate),
        ])],
        duration: DRIFT_TRACE_S,
    };
    let sim = |config: SimConfig| {
        SimJob::new(
            &gen,
            strategy.clone(),
            trace.clone(),
            FailurePlan::None,
            config,
        )
    };
    let mut live_cfg = accelerated(live_scale);
    live_cfg.adapt = Some(AdaptConfig::new(DRIFT_IC));
    Some(Drift {
        installed,
        stale: sim(SimConfig::default()),
        adaptive: sim(SimConfig {
            adapt: Some(AdaptConfig::new(DRIFT_IC)),
            ..SimConfig::default()
        }),
        live_oracle: sim(live_cfg.sim_config()),
        live: LiveJob {
            app: gen.app.clone(),
            placement: gen.placement.clone(),
            strategy: strategy.clone(),
            trace: trace.clone(),
            config: live_cfg,
        },
    })
}

// ---------------------------------------------------------------- probes

/// Fixed-size micro-runs of single layers, taken in the traced run only.
/// Each entry is `(per-layer metric, value)`.
pub fn probes() -> Vec<(&'static str, f64)> {
    let gen = generate_app(&GenParams::default(), FIXTURE_SEED);
    let mut out = Vec::new();
    let mut per_call = |name: &'static str, unit_s: f64, calls: u32, f: &mut dyn FnMut(u32)| {
        let start = Instant::now();
        for i in 0..calls {
            f(i);
        }
        out.push((
            name,
            start.elapsed().as_secs_f64() / f64::from(calls) / unit_s,
        ));
    };

    per_call("model.rates_compute_us", 1e-6, 2_000, &mut |_| {
        black_box(RateTable::compute(black_box(&gen.app)));
    });
    let problem = Problem::new(gen.app.clone(), gen.placement.clone(), DRIFT_IC)
        .expect("generated instances are well formed");
    let grd = greedy(&problem).strategy;
    let sr = static_replication(&problem);
    per_call("core.check_us", 1e-6, 2_000, &mut |_| {
        black_box(problem.check(black_box(&grd)));
    });
    let ev = problem.ic_evaluator();
    per_call("core.ic_eval_us", 1e-6, 5_000, &mut |_| {
        black_box(ev.ic(black_box(&grd), &PessimisticFailure));
    });
    let cm = problem.cost_model();
    per_call("core.cost_eval_us", 1e-6, 20_000, &mut |_| {
        black_box(cm.cost_cycles(black_box(&grd)));
    });

    // Nine steady polls to one configuration switch: the controller mostly
    // confirms the configuration it is in.
    let mut controller = HaController::new(gen.app.configs(), grd.clone());
    let (low, high) = ([gen.low_rate], [gen.high_rate]);
    per_call("core.controller_decide_ns", 1e-9, 1_000_000, &mut |i| {
        let rates = if (i / 10) % 2 == 0 { &low } else { &high };
        black_box(controller.on_measured_rates(black_box(rates)));
    });
    let mut monitor = RateMonitor::new(1, 0.25, 8);
    per_call("core.monitor_record_ns", 1e-9, 1_000_000, &mut |i| {
        monitor.record(0, f64::from(i) * 0.01);
    });
    black_box(monitor.rates(10_000.0));

    // Eight tuples offered to and processed by a 2-port replica per call.
    let mut replica = Replica::new(
        0,
        0,
        0,
        vec![InPort::new(1.0, 0.5, 64), InPort::new(2.0, 1.0, 64)],
    );
    let births = [0.0f64; 4];
    per_call("exec.replica_offer_process_ns", 8e-9, 250_000, &mut |i| {
        let now = f64::from(i);
        replica.offer(0, &births, now);
        replica.offer(1, &births, now);
        black_box(replica.process(12.0));
        replica.out_births.clear();
    });
    per_call("exec.swap_plan_us", 1e-6, 50_000, &mut |_| {
        black_box(plan_swap(black_box(&sr), black_box(&grd), ConfigId(1)));
    });

    // 64 tuples through a 1024-slot ring per call, batched and one by one.
    let (mut tx, mut rx) = spsc::channel::<f64>(1024);
    let batch = [1.0f64; 64];
    let mut sink = Vec::with_capacity(64);
    per_call(
        "runtime.spsc_slice_ns_per_tuple",
        64e-9,
        100_000,
        &mut |_| {
            black_box(tx.push_slice(black_box(&batch)));
            sink.clear();
            black_box(rx.drain_into(&mut sink));
        },
    );
    per_call(
        "runtime.spsc_scalar_ns_per_tuple",
        64e-9,
        100_000,
        &mut |_| {
            for &v in &batch {
                black_box(tx.push(v).is_ok());
            }
            while let Some(v) = rx.pop() {
                black_box(v);
            }
        },
    );

    let mut detector = DriftDetector::new(gen.app.configs(), DriftConfig::default());
    per_call("adapt.detector_observe_ns", 1e-9, 1_000_000, &mut |i| {
        let rates = if (i / 10) % 2 == 0 { &low } else { &high };
        detector.observe(black_box(rates));
    });
    black_box(detector.drifted());
    out
}

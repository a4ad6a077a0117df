//! # laar-cli
//!
//! The operator-facing pipeline for LAAR as JSON-file plumbing, mirroring
//! the deployment workflow of Fig. 7 in the paper:
//!
//! ```text
//! laar generate  → contract.json + placement.json + trace.json
//! laar solve     → strategy.json (the HAController document of §5.1)
//! laar profile   → re-estimated descriptor (validates the contract)
//! laar simulate  → metrics.json (one run on the simulated cluster)
//! laar run-live  → metrics.json (same run on the live threaded engine)
//! laar variants  → NR/SR/GRD/L.5/L.6/L.7 comparison table
//! ```
//!
//! Every command is a pure function in this library (tested directly);
//! `main.rs` only parses arguments and shuttles files.

#![warn(missing_docs)]

use laar_adapt::{AdaptConfig, AdaptReport};
use laar_core::ftsearch::{self, FtSearchConfig, Outcome};
use laar_core::variants::VariantKind;
use laar_core::{greedy, non_replicated, static_replication, PessimisticFailure, Problem};
use laar_dsps::profiler::{descriptor_error, profile_application};
use laar_dsps::{FailurePlan, InputTrace, PhaseProfile, SimConfig, SimMetrics, Simulation};
use laar_experiments::{benchmark_solver, merge_solver_baseline, SolverBenchConfig};
pub use laar_experiments::{SolverBenchBaselineRow, SolverBenchMode, SolverBenchRow};
use laar_gen::{generator::generate_app, GenParams};
use laar_model::{ActivationStrategy, Application, HostId, Placement};
use laar_runtime::{LiveReport, LiveRuntime, RuntimeConfig};
use std::time::Duration;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// IO failure reading/writing an artifact.
    Io(std::io::Error),
    /// Malformed JSON artifact.
    Json(serde_json::Error),
    /// Semantic failure (infeasible, bad arguments, model errors).
    Message(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Json(e) => write!(f, "json error: {e}"),
            CliError::Message(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}

fn message<E: std::fmt::Display>(e: E) -> CliError {
    CliError::Message(e.to_string())
}

/// The `generate` command: emit a synthetic contract, placement, and trace.
/// `scale` multiplies the deployment (PEs, hosts, and source rates) after
/// the explicit sizes, so `--pes 24 --hosts 8 --scale 8` yields the 192-PE
/// 64-host deployment with proportionally faster sources.
pub fn cmd_generate(
    num_pes: usize,
    num_hosts: usize,
    seed: u64,
    scale: f64,
) -> Result<(Application, Placement, InputTrace), CliError> {
    if !scale.is_finite() || scale <= 0.0 {
        return Err(CliError::Message(format!(
            "bad --scale {scale}: must be a positive number"
        )));
    }
    let gen = generate_app(
        &GenParams {
            num_pes,
            num_hosts,
            ..GenParams::default()
        }
        .scaled(scale),
        seed,
    );
    let trace = InputTrace::low_high_centered(
        gen.low_rate,
        gen.high_rate,
        gen.app.billing_period(),
        gen.p_high(),
    );
    Ok((gen.app, gen.placement, trace))
}

/// Result of the `solve` command.
#[derive(Debug)]
pub struct SolveOutput {
    /// The strategy (also rendered to the HAController JSON by the caller).
    pub strategy: ActivationStrategy,
    /// Outcome label (BST/SOL).
    pub label: String,
    /// Guaranteed IC.
    pub ic: f64,
    /// Expected cost per eq. 13.
    pub cost_cycles: f64,
    /// IC shortfall when solving in soft (penalty) mode.
    pub ic_shortfall: Option<f64>,
}

/// The `solve` command: hard-constraint FT-Search, or the soft penalty
/// model when `soft_penalty` is given.
pub fn cmd_solve(
    app: &Application,
    placement: &Placement,
    ic_requirement: f64,
    time_limit: Duration,
    soft_penalty: Option<f64>,
) -> Result<SolveOutput, CliError> {
    let problem = Problem::new(app.clone(), placement.clone(), ic_requirement).map_err(message)?;
    if let Some(lambda) = soft_penalty {
        let soft = ftsearch::solve_soft(&problem, lambda, time_limit)
            .map_err(message)?
            .ok_or_else(|| {
                CliError::Message(
                    "soft solve timed out or the deployment cannot fit the application".to_owned(),
                )
            })?;
        return Ok(SolveOutput {
            label: "SOFT".to_owned(),
            ic: soft.solution.ic,
            cost_cycles: soft.solution.cost_cycles,
            ic_shortfall: Some(soft.ic_shortfall_rate),
            strategy: soft.solution.strategy,
        });
    }
    let report =
        ftsearch::solve(&problem, &FtSearchConfig::with_time_limit(time_limit)).map_err(message)?;
    match report.outcome {
        Outcome::Optimal(s) | Outcome::Feasible(s) => Ok(SolveOutput {
            label: if report.stats.proved { "BST" } else { "SOL" }.to_owned(),
            ic: s.ic,
            cost_cycles: s.cost_cycles,
            ic_shortfall: None,
            strategy: s.strategy,
        }),
        Outcome::Infeasible => Err(CliError::Message(match report.stats.root_conflict {
            // The CPU constraint is hard in the penalty model too, so no
            // `--soft` hint here; the numbers let the reader redo the two
            // comparisons that prove the verdict.
            Some(rc) => {
                let g = app.graph();
                let hosts = placement.hosts();
                format!(
                    "infeasible: PE {} needs {} cycles/s in configuration {}; \
                     its hosts {}/{} offer {}/{}",
                    g.component(g.pes()[rc.pe]).name,
                    rc.load,
                    rc.config.index(),
                    hosts[rc.hosts[0].index()].name,
                    hosts[rc.hosts[1].index()].name,
                    rc.capacities[0],
                    rc.capacities[1],
                )
            }
            None => format!(
                "no strategy can guarantee IC {ic_requirement} on this deployment \
                 (try --soft <penalty> to trade the SLA for cost)"
            ),
        })),
        Outcome::Timeout => Err(CliError::Message(
            "FT-Search timed out before finding any feasible strategy; raise --time-limit"
                .to_owned(),
        )),
    }
}

/// Failure plan specification accepted by `simulate`.
pub fn parse_failure(
    spec: &str,
    app: &Application,
    strategy: &ActivationStrategy,
) -> Result<FailurePlan, CliError> {
    match spec {
        "none" => Ok(FailurePlan::None),
        "worst" => Ok(FailurePlan::worst_case(app, strategy)),
        other => {
            // host:<id>@<time>
            let rest = other.strip_prefix("host:").ok_or_else(|| {
                CliError::Message(format!(
                    "unknown failure spec {other:?} (use none, worst, or host:<id>@<secs>)"
                ))
            })?;
            let (h, t) = rest.split_once('@').ok_or_else(|| {
                CliError::Message("host failure spec must be host:<id>@<secs>".to_owned())
            })?;
            let host: u32 = h.parse().map_err(message)?;
            let at: f64 = t.parse().map_err(message)?;
            Ok(FailurePlan::host_crash(HostId(host), at))
        }
    }
}

/// The `simulate` command: one run on the simulated cluster. `threads > 1`
/// schedules hosts in parallel; the metrics are bit-identical to a
/// single-threaded run by construction. `adapt` enables the `laar-adapt`
/// online re-optimization loop; its report comes back alongside the
/// metrics.
pub fn cmd_simulate(
    app: &Application,
    placement: &Placement,
    strategy: ActivationStrategy,
    trace: &InputTrace,
    plan: FailurePlan,
    threads: usize,
    adapt: Option<AdaptConfig>,
) -> Result<(SimMetrics, Option<AdaptReport>), CliError> {
    if threads == 0 {
        return Err(CliError::Message("--threads must be at least 1".to_owned()));
    }
    strategy
        .validate(app.graph(), app.configs().num_configs(), placement.k())
        .map_err(message)?;
    let cfg = SimConfig {
        threads,
        adapt,
        ..SimConfig::default()
    };
    Ok(Simulation::new(app, placement, strategy, trace, plan, cfg).run_adaptive())
}

/// The `run-live` command: execute the deployment on the live threaded
/// engine at `speed`× real time. Same inputs as [`cmd_simulate`]; returns
/// the metrics plus the engine's conservation ledger (and, with `adapt`,
/// the adaptation report inside the [`LiveReport`]).
pub fn cmd_run_live(
    app: &Application,
    placement: &Placement,
    strategy: ActivationStrategy,
    trace: &InputTrace,
    plan: FailurePlan,
    speed: f64,
    adapt: Option<AdaptConfig>,
) -> Result<LiveReport, CliError> {
    strategy
        .validate(app.graph(), app.configs().num_configs(), placement.k())
        .map_err(message)?;
    if !speed.is_finite() || speed <= 0.0 {
        return Err(CliError::Message(format!(
            "bad --speed {speed}: must be a positive number"
        )));
    }
    let mut cfg = if speed == 1.0 {
        RuntimeConfig::default()
    } else {
        RuntimeConfig::accelerated(speed)
    };
    cfg.adapt = adapt;
    Ok(LiveRuntime::new(app, placement, strategy, trace, plan, cfg).run())
}

/// One row of the `variants` comparison.
#[derive(Debug)]
pub struct VariantRow {
    /// Variant label (NR/SR/GRD/L.x).
    pub label: String,
    /// Guaranteed IC (pessimistic model).
    pub guaranteed_ic: f64,
    /// Expected cost per eq. 13.
    pub expected_cost: f64,
    /// Measured CPU seconds in a best-case run on `trace`.
    pub measured_cpu: f64,
    /// Queue drops in that run.
    pub drops: u64,
}

/// The `variants` command: build and simulate all six §5.2 variants.
pub fn cmd_variants(
    app: &Application,
    placement: &Placement,
    trace: &InputTrace,
    time_limit: Duration,
) -> Result<Vec<VariantRow>, CliError> {
    let mut rows = Vec::new();
    let mut warm: Option<ActivationStrategy> = None;
    let mut laar = Vec::new();
    for ic in [0.7, 0.6, 0.5] {
        let problem = Problem::new(app.clone(), placement.clone(), ic).map_err(message)?;
        let report = ftsearch::solve_with_warm_start(
            &problem,
            &FtSearchConfig::with_time_limit(time_limit),
            warm.as_ref(),
        )
        .map_err(message)?;
        let sol = report.outcome.solution().ok_or_else(|| {
            CliError::Message(format!("IC {ic} is infeasible on this deployment"))
        })?;
        warm = Some(sol.strategy.clone());
        laar.push((format!("L.{}", (ic * 10.0) as u32), sol.strategy.clone()));
    }
    laar.reverse();

    let problem = Problem::new(app.clone(), placement.clone(), 0.0).map_err(message)?;
    let ev = problem.ic_evaluator();
    let cm = problem.cost_model();
    let l5 = laar[0].1.clone();
    let mut all: Vec<(String, ActivationStrategy)> = vec![
        (
            VariantKind::NonReplicated.label().to_owned(),
            non_replicated(&problem, &l5),
        ),
        (
            VariantKind::StaticReplication.label().to_owned(),
            static_replication(&problem),
        ),
        (
            VariantKind::Greedy.label().to_owned(),
            greedy(&problem).strategy,
        ),
    ];
    all.extend(laar);

    for (label, strategy) in all {
        let metrics = Simulation::new(
            app,
            placement,
            strategy.clone(),
            trace,
            FailurePlan::None,
            SimConfig::default(),
        )
        .run();
        rows.push(VariantRow {
            label,
            guaranteed_ic: ev.ic(&strategy, &PessimisticFailure),
            expected_cost: cm.cost_cycles(&strategy),
            measured_cpu: metrics.total_cpu_seconds(),
            drops: metrics.queue_drops,
        });
    }
    Ok(rows)
}

/// One row of the `bench-sim` report: wall-clock time and simulated-quanta
/// throughput of one fixture at one worker-thread count.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchSimRow {
    /// Fixture name.
    pub name: String,
    /// Worker threads of this row (`SimConfig::threads`).
    pub threads: usize,
    /// Hardware threads of the machine the row was measured on — parallel
    /// speedups are only meaningful when `host_cores > 1`.
    pub host_cores: usize,
    /// `threads > host_cores`: the workers time-slice one another on this
    /// machine, so `speedup_vs_single_thread` measures oversubscription
    /// overhead, not parallel scaling. Read such rows accordingly.
    pub oversubscribed: bool,
    /// PEs in the simulated application (replicas = `2 ×` this).
    pub num_pes: usize,
    /// Hosts in the simulated deployment (the parallel grain: one quantum
    /// fans out at most `num_hosts` ways).
    pub num_hosts: usize,
    /// Simulated trace length (seconds).
    pub trace_secs: f64,
    /// Scheduling quantum (seconds): `trace_secs / quantum` quanta of
    /// simulated work per run.
    pub quantum: f64,
    /// Logical quanta covered by one run (the engine skips the quiescent
    /// ones).
    pub quanta: u64,
    /// Best-of-N wall seconds of `Simulation::run`.
    pub event_driven_wall_secs: f64,
    /// Simulated quanta per wall second.
    pub event_driven_quanta_per_sec: f64,
    /// `event_driven_wall_secs` of this fixture's threads=1 row divided by
    /// this row's — the parallel speedup of the staged data-plane phases.
    pub speedup_vs_single_thread: f64,
    /// Total tuples processed (identical across thread counts by
    /// construction; recorded so regressions in *what* was simulated are
    /// visible too).
    pub total_processed: u64,
    /// Wall seconds in the control plane (failures, commands, elections) of
    /// one profiled run. Phase timings are measurement, not simulation
    /// state: they never enter the bit-compared [`SimMetrics`].
    pub phase_control_secs: f64,
    /// Wall seconds emitting source tuples, same profiled run.
    pub phase_emission_secs: f64,
    /// Wall seconds in GPS CPU scheduling — the phase `threads` fans out.
    pub phase_scheduling_secs: f64,
    /// Wall seconds forwarding births downstream, same profiled run.
    pub phase_forwarding_secs: f64,
    /// Wall seconds attributing metrics and snapshotting, same profiled run.
    pub phase_accounting_secs: f64,
    /// Resident bytes of the hot replica state, from the profiled run.
    pub arena_bytes: u64,
    /// `arena_bytes / num_pes` — the per-PE memory budget of the hot path.
    pub bytes_per_pe: f64,
    /// Event-driven wall seconds of the same `(name, threads)` cell in the
    /// `--baseline` file measured on the same machine; 0 when no baseline
    /// row matched.
    pub pre_pr_event_driven_wall_secs: f64,
    /// Event-driven quanta per wall second of the matched baseline row; 0
    /// when no baseline matched.
    pub pre_pr_event_driven_quanta_per_sec: f64,
    /// `event_driven_quanta_per_sec / pre_pr_event_driven_quanta_per_sec` —
    /// the headline speedup against the engine as it shipped before this
    /// change; 0 when no baseline matched.
    pub speedup_vs_pre_pr: f64,
}

/// One row of a `--baseline` file for `bench-sim`: a previous `bench-sim`
/// report measured on the same machine over the same fixtures. Matched to
/// [`BenchSimRow`]s by `(name, threads)`; unknown fields in the file are
/// ignored, so any `BENCH_sim.json` works as a baseline.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BenchSimBaselineRow {
    /// Fixture name (must match a `bench-sim` fixture).
    pub name: String,
    /// Worker threads of the baseline row.
    pub threads: usize,
    /// Best-of-N event-driven wall seconds of the baseline run.
    #[serde(default)]
    pub event_driven_wall_secs: f64,
    /// Event-driven quanta per wall second of the baseline run.
    #[serde(default)]
    pub event_driven_quanta_per_sec: f64,
}

/// One owned `bench-sim` fixture: a simulated deployment plus the trace it
/// is driven with.
struct SimFixture {
    name: &'static str,
    app: Application,
    placement: Placement,
    strategy: ActivationStrategy,
    trace: InputTrace,
}

impl SimFixture {
    /// A saturated scaled deployment from [`GenParams::scaled_bench`]:
    /// `factor` scales the 24-PE paper deployment (so `1000.0 / 24.0` →
    /// 1000 PEs), driven at the High rate for `secs` seconds.
    fn scaled(name: &'static str, factor: f64, secs: f64) -> Self {
        Self::from_gen(
            name,
            generate_app(&GenParams::scaled_bench(factor), 7),
            secs,
        )
    }

    /// A saturated scaled deployment from plain [`GenParams::scaled`],
    /// which keeps the paper topology's full selectivity range: tuple
    /// amplification compounds through the graph depth, so every quantum
    /// carries millions of queued tuples and the run measures the
    /// per-tuple scheduling path rather than per-replica bookkeeping.
    /// Traces are short — a handful of quanta is already billions of
    /// tuple-steps at 1k PEs.
    fn scaled_dense(name: &'static str, factor: f64, secs: f64) -> Self {
        Self::from_gen(
            name,
            generate_app(&GenParams::default().scaled(factor), 7),
            secs,
        )
    }

    fn from_gen(name: &'static str, gen: laar_gen::generator::GeneratedApp, secs: f64) -> Self {
        let np = gen.app.graph().num_pes();
        SimFixture {
            name,
            strategy: ActivationStrategy::all_active(np, 2, 2),
            trace: InputTrace::constant(&[gen.high_rate], secs),
            app: gen.app,
            placement: gen.placement,
        }
    }
}

/// The `bench-sim` command: measure simulator throughput on the fixtures
/// that anchor the evaluation — the Fig. 9 unit of work (24 PEs, 300 s, Low/High trace), a quiescent-heavy
/// Low-rate variant (the horizon jump's best case), a saturated High-rate
/// variant (the worst case: work never stops), the small Fig. 3 pipeline,
/// two saturated scale-ups of the paper deployment (8× → 192 PEs on
/// 32 hosts, 32× → 768 PEs on 128 hosts) where the host-parallel
/// scheduling phase has enough grain to pay off — plus three saturated
/// scaled deployments at 1k, 10k, and 100k PEs (tuple-dense plain
/// `scaled` at 1k, calibrated [`GenParams::scaled_bench`] at 10k/100k)
/// that stress the per-tuple scheduling path and the per-replica
/// bookkeeping the SoA hot arena exists for, reporting quanta/sec and
/// bytes/PE. Every fixture runs at every
/// `threads` count; each (fixture, threads) cell is run `iters` times and
/// the best wall time kept. Metrics equality is asserted across thread
/// counts on every run — the benchmark doubles as the determinism oracle.
/// `smoke` shrinks the run to the 1k-PE fixture with a short trace for CI.
pub fn cmd_bench_sim(
    iters: u32,
    threads: &[usize],
    smoke: bool,
    baseline: &[BenchSimBaselineRow],
) -> Result<Vec<BenchSimRow>, CliError> {
    if iters == 0 {
        return Err(CliError::Message("--iters must be at least 1".to_owned()));
    }
    if threads.is_empty() || threads.contains(&0) {
        return Err(CliError::Message(
            "--threads needs a comma-separated list of positive thread counts".to_owned(),
        ));
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut fixtures: Vec<SimFixture> = Vec::new();
    if smoke {
        // CI smoke: the 1k-PE scaled fixture only, with a trace short
        // enough that one debug-or-release run finishes in seconds while
        // still executing saturated scheduling quanta.
        fixtures.push(SimFixture::scaled(
            "scale1k_saturated_1000pe",
            1000.0 / 24.0,
            1.0,
        ));
    } else {
        let gen = generate_app(&GenParams::default(), 7);
        let np = gen.app.graph().num_pes();
        let period = gen.app.billing_period();
        let paper_trace =
            InputTrace::low_high_centered(gen.low_rate, gen.high_rate, period, gen.p_high());
        let quiescent_trace = InputTrace::constant(&[(gen.low_rate * 0.1).min(0.5)], period);
        let saturated_trace = InputTrace::constant(&[gen.high_rate], period);
        let sr = ActivationStrategy::all_active(np, 2, 2);
        for (name, trace) in [
            ("fig9_best_case_24pe_300s", paper_trace),
            ("quiescent_low_rate_24pe_300s", quiescent_trace),
            ("saturated_high_rate_24pe_300s", saturated_trace),
        ] {
            fixtures.push(SimFixture {
                name,
                app: gen.app.clone(),
                placement: gen.placement.clone(),
                strategy: sr.clone(),
                trace,
            });
        }

        let fig2 = laar_core::testutil::fig2_problem(0.6);
        fixtures.push(SimFixture {
            name: "fig3_pipeline_150s",
            app: fig2.app,
            placement: fig2.placement,
            strategy: ActivationStrategy::all_active(2, 2, 2),
            trace: InputTrace::low_high_centered(4.0, 8.0, 150.0, 0.4),
        });

        // Scale-ups of the paper deployment, saturated so the scheduling
        // phase dominates: shorter traces keep total work tractable while
        // each quantum carries 8×/32× the per-quantum grain.
        for (name, factor, secs) in [
            ("scale8_saturated_192pe_32host_120s", 8.0, 120.0),
            ("scale32_saturated_768pe_128host_60s", 32.0, 60.0),
        ] {
            let g = generate_app(&GenParams::default().scaled(factor), 7);
            fixtures.push(SimFixture {
                name,
                strategy: ActivationStrategy::all_active(g.app.graph().num_pes(), 2, 2),
                trace: InputTrace::constant(&[g.high_rate], secs),
                app: g.app,
                placement: g.placement,
            });
        }

        // The 1k-PE row is the saturated scaled fixture: plain
        // `GenParams::scaled` keeps the full selectivity range, so tuple
        // amplification compounds through the graph and each quantum
        // schedules millions of queued tuples — the regime the SoA
        // process loops are built for. The 10k/100k rows use the
        // calibrated `scaled_bench` deployments where amplification stays
        // near-linear in PE count: they measure per-replica bookkeeping
        // and arena footprint rather than per-tuple throughput.
        fixtures.push(SimFixture::scaled_dense(
            "scale1k_saturated_1000pe",
            1000.0 / 24.0,
            0.4,
        ));
        fixtures.push(SimFixture::scaled(
            "scale10k_saturated_10000pe",
            10_000.0 / 24.0,
            6.0,
        ));
        fixtures.push(SimFixture::scaled(
            "scale100k_saturated_100000pe",
            100_000.0 / 24.0,
            1.5,
        ));
    }

    let mut rows: Vec<BenchSimRow> = Vec::new();
    for SimFixture {
        name,
        app,
        placement,
        strategy,
        trace,
    } in &fixtures
    {
        let name = *name;
        let mut reference: Option<SimMetrics> = None;
        let mut single_thread_wall = f64::NAN;
        for &nthreads in threads {
            let cfg = SimConfig {
                threads: nthreads,
                ..SimConfig::default()
            };
            let build = || {
                Simulation::new(
                    app,
                    placement,
                    strategy.clone(),
                    trace,
                    FailurePlan::None,
                    cfg.clone(),
                )
            };
            let mut event_wall = f64::INFINITY;
            let mut event_m = None;
            for _ in 0..iters {
                let sim = build();
                let start = std::time::Instant::now();
                let m = sim.run();
                event_wall = event_wall.min(start.elapsed().as_secs_f64());
                event_m = Some(m);
            }
            let event_m = event_m.expect("iters >= 1");
            let total_processed = event_m.total_processed();
            match &reference {
                None => reference = Some(event_m),
                Some(r) if *r != event_m => {
                    return Err(CliError::Message(format!(
                        "{name}: metrics at threads={nthreads} diverged from \
                         threads={} — parallel determinism is broken",
                        threads[0]
                    )));
                }
                Some(_) => {}
            }
            // Phase breakdown from one separate profiled run so the clock
            // overhead never contaminates the timed cells above.
            let (_, profile): (SimMetrics, PhaseProfile) = build().run_profiled();
            if nthreads == 1 || single_thread_wall.is_nan() {
                single_thread_wall = event_wall;
            }
            let quanta = (trace.duration / cfg.quantum).round() as u64;
            let event_qps = quanta as f64 / event_wall.max(1e-12);
            let base = baseline
                .iter()
                .find(|b| b.name == name && b.threads == nthreads);
            rows.push(BenchSimRow {
                name: name.to_owned(),
                threads: nthreads,
                host_cores,
                oversubscribed: nthreads > host_cores,
                num_pes: app.graph().num_pes(),
                num_hosts: placement.num_hosts(),
                trace_secs: trace.duration,
                quantum: cfg.quantum,
                quanta,
                event_driven_wall_secs: event_wall,
                event_driven_quanta_per_sec: event_qps,
                speedup_vs_single_thread: single_thread_wall / event_wall.max(1e-12),
                total_processed,
                phase_control_secs: profile.control_secs,
                phase_emission_secs: profile.emission_secs,
                phase_scheduling_secs: profile.scheduling_secs,
                phase_forwarding_secs: profile.forwarding_secs,
                phase_accounting_secs: profile.accounting_secs,
                arena_bytes: profile.arena_bytes,
                bytes_per_pe: profile.bytes_per_pe,
                pre_pr_event_driven_wall_secs: base.map_or(0.0, |b| b.event_driven_wall_secs),
                pre_pr_event_driven_quanta_per_sec: base
                    .map_or(0.0, |b| b.event_driven_quanta_per_sec),
                speedup_vs_pre_pr: base.map_or(0.0, |b| {
                    event_qps / b.event_driven_quanta_per_sec.max(1e-12)
                }),
            });
        }
    }
    Ok(rows)
}

/// The `bench-solver` command: every corpus instance solved under each
/// requested engine mode (`sequential`, `parallel`, `cp`, `portfolio`)
/// with identical limits; the grouped rows make both the cost agreement
/// and the engine-dependent statistics (nodes, time-to-first,
/// time-to-best) visible side by side. A `--baseline` file (a previous
/// `BENCH_solver.json` from the same machine) fills the `pre_pr_*`
/// columns and `speedup_vs_pre_pr`.
#[allow(clippy::too_many_arguments)]
pub fn cmd_bench_solver(
    instances: usize,
    seed: u64,
    ic: f64,
    time_limit: Duration,
    threads: usize,
    modes: &[SolverBenchMode],
    large: bool,
    baseline: &[SolverBenchBaselineRow],
) -> Result<Vec<SolverBenchRow>, CliError> {
    if instances == 0 {
        return Err(CliError::Message(
            "--instances must be at least 1".to_owned(),
        ));
    }
    if threads == 0 {
        return Err(CliError::Message("--threads must be at least 1".to_owned()));
    }
    if !(0.0..1.0).contains(&ic) {
        return Err(CliError::Message(format!(
            "bad --ic {ic}: must be in [0, 1)"
        )));
    }
    if modes.is_empty() {
        return Err(CliError::Message(
            "--modes needs a comma-separated list of sequential|parallel|cp|portfolio".to_owned(),
        ));
    }
    let mut rows = benchmark_solver(&SolverBenchConfig {
        num_instances: instances,
        seed,
        ic_constraint: ic,
        time_limit,
        threads,
        modes: modes.to_vec(),
        large,
        ..SolverBenchConfig::default()
    });
    merge_solver_baseline(&mut rows, baseline);
    Ok(rows)
}

/// One row of the `bench-runtime` report: one fixture at one `time_scale`,
/// run on the live engine (slice-based transport with adaptive wakeups —
/// the `batched_*` columns), with the simulator run under identical
/// parameters as the oracle.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchRuntimeRow {
    /// Fixture name.
    pub name: String,
    /// Trace seconds per wall second the run was paced at.
    pub time_scale: f64,
    /// Trace length (seconds).
    pub trace_secs: f64,
    /// Tuples processed by the simulator oracle under the same config.
    pub sim_processed: u64,
    /// Wall seconds of the live run.
    pub batched_wall_secs: f64,
    /// Tuples processed end-to-end.
    pub batched_processed: u64,
    /// Processed tuples per wall second.
    pub batched_tuples_per_sec: f64,
    /// Tuples rejected by full transport rings.
    pub batched_transport_dropped: u64,
    /// Scheduling passes across coordinator + workers — the engine's
    /// wakeup count, the deterministic proxy for idle CPU burn
    /// (`batched_cpu_secs` has 10 ms scheduler-tick granularity).
    pub batched_loop_passes: u64,
    /// Process CPU seconds consumed by the run.
    pub batched_cpu_secs: f64,
    /// `|live processed − sim processed| / sim processed`.
    pub batched_sim_delta: f64,
    /// Primary fail-overs observed (0 expected: the bench fixtures inject
    /// no failures, so any fail-over is a false detection).
    pub batched_failovers: u64,
    /// Wall seconds of the true pre-PR engine on this fixture/scale, from a
    /// `--baseline` file measured on the same machine; 0 when no baseline
    /// row matched.
    pub pre_pr_wall_secs: f64,
    /// Tuples processed by the pre-PR engine; 0 when no baseline matched.
    pub pre_pr_processed: u64,
    /// Pre-PR processed tuples per wall second; 0 when no baseline matched.
    pub pre_pr_tuples_per_sec: f64,
    /// Pre-PR process CPU seconds; 0 when no baseline matched.
    pub pre_pr_cpu_secs: f64,
    /// `batched_tuples_per_sec / pre_pr_tuples_per_sec` — the headline
    /// speedup against the engine as it shipped before this change; 0 when
    /// no baseline matched.
    pub speedup_vs_pre_pr: f64,
}

/// One row of a `--baseline` file for `bench-runtime`: the pre-PR engine
/// measured on the same machine over the same fixtures and scales (see
/// README for how the file is produced). Matched to [`BenchRuntimeRow`]s
/// by `(name, time_scale)`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BaselineRow {
    /// Fixture name (must match a `bench-runtime` fixture).
    pub name: String,
    /// Trace seconds per wall second the baseline run was paced at.
    pub time_scale: f64,
    /// Wall seconds of the pre-PR run.
    pub wall_secs: f64,
    /// Tuples processed end-to-end by the pre-PR engine.
    pub processed: u64,
    /// Processed tuples per wall second.
    pub tuples_per_sec: f64,
    /// Process CPU seconds consumed by the pre-PR run.
    pub cpu_secs: f64,
    /// Primary fail-overs observed (0 expected; the fixtures inject none).
    pub failovers: u64,
}

/// Process CPU seconds (user + system, all threads) from `/proc/self/stat`;
/// 0.0 where procfs is unavailable.
fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized comm: state is field 3, utime is
    // field 14, stime field 15 (1-based), in USER_HZ (100 Hz) ticks.
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// The `bench-runtime` command: measure live-engine throughput and idle
/// cost on the fixtures that anchor the evaluation
/// — a near-idle quiescent trace (the adaptive-wakeup best case), the
/// Fig. 9 Low/High paper trace, and a saturated high-rate trace with tight
/// transport queues (the batching best case) — each at every `time_scale`
/// in `scales`. The simulator is run under identical parameters as the
/// oracle for the processed-count parity delta. `smoke` shrinks the
/// fixtures for CI. The detection delay is widened proportionally to the
/// time scale so OS scheduling jitter is never mistaken for a host crash.
pub fn cmd_bench_runtime(
    scales: &[f64],
    smoke: bool,
    baseline: &[BaselineRow],
) -> Result<Vec<BenchRuntimeRow>, CliError> {
    if scales.is_empty() || scales.iter().any(|s| !s.is_finite() || *s <= 0.0) {
        return Err(CliError::Message(
            "--scales needs a comma-separated list of positive numbers".to_owned(),
        ));
    }
    let duration = if smoke { 10.0 } else { 300.0 };
    let params = GenParams {
        duration,
        ..GenParams::default()
    };
    let gen = generate_app(&params, 7);
    // A single-host twin at the same total capacity: one worker thread plus
    // the coordinator. With only two threads the OS scheduler stops being
    // the bottleneck, so this fixture measures the data plane's own pacing
    // and per-tuple costs instead of run-queue noise.
    let params_1host = GenParams {
        num_hosts: 1,
        host_capacity: 4.0,
        duration,
        ..GenParams::default()
    };
    let gen_1host = generate_app(&params_1host, 7);
    let quiescent_trace = InputTrace::constant(&[0.1], duration);
    let fig9_trace =
        InputTrace::low_high_centered(gen.low_rate, gen.high_rate, duration, gen.p_high());
    let saturated_trace = InputTrace::constant(&[gen_1host.high_rate], duration);

    // (name, app, trace, queue_capacity_secs): the saturated fixture bounds
    // its transport queues tightly, so a loop too coarse for the queue bound
    // drops tuples — the regime batching exists for.
    let fixtures: [(&str, &laar_gen::GeneratedApp, &InputTrace, f64); 3] = [
        ("quiescent_24pe", &gen, &quiescent_trace, 2.0),
        ("fig9_low_high_24pe", &gen, &fig9_trace, 2.0),
        (
            "saturated_tight_queues_1host",
            &gen_1host,
            &saturated_trace,
            0.25,
        ),
    ];

    let mut rows = Vec::new();
    for (name, gen, trace, queue_capacity_secs) in fixtures {
        let strategy = ActivationStrategy::all_active(gen.app.graph().num_pes(), 2, 2);
        for &scale in scales {
            let mut cfg = RuntimeConfig::accelerated(scale);
            cfg.queue_capacity_secs = queue_capacity_secs;
            // OS jitter of J wall-seconds looks like J × scale trace-seconds
            // of heartbeat staleness; tolerate ~20 ms of scheduler jitter so
            // no scale misreads descheduling as a host crash.
            cfg.detection_delay = cfg.detection_delay.max(0.02 * scale);
            let sim_m = Simulation::new(
                &gen.app,
                &gen.placement,
                strategy.clone(),
                trace,
                FailurePlan::None,
                cfg.sim_config(),
            )
            .run();
            let sim_processed = sim_m.total_processed();

            let rt = LiveRuntime::new(
                &gen.app,
                &gen.placement,
                strategy.clone(),
                trace,
                FailurePlan::None,
                cfg,
            );
            let cpu0 = process_cpu_seconds();
            let start = std::time::Instant::now();
            let bat_report: LiveReport = rt.run();
            let bat_wall = start.elapsed().as_secs_f64();
            let bat_cpu = process_cpu_seconds() - cpu0;

            let bat_processed = bat_report.metrics.total_processed();
            let bat_tps = bat_processed as f64 / bat_wall.max(1e-12);
            let base = baseline
                .iter()
                .find(|b| b.name == name && (b.time_scale - scale).abs() < 1e-9);
            rows.push(BenchRuntimeRow {
                name: name.to_owned(),
                time_scale: scale,
                trace_secs: duration,
                sim_processed,
                batched_wall_secs: bat_wall,
                batched_processed: bat_processed,
                batched_tuples_per_sec: bat_tps,
                batched_transport_dropped: bat_report.conservation.transport_dropped,
                batched_loop_passes: bat_report.loop_passes,
                batched_cpu_secs: bat_cpu,
                batched_sim_delta: (bat_processed as f64 - sim_processed as f64).abs()
                    / (sim_processed as f64).max(1.0),
                batched_failovers: bat_report.metrics.failovers,
                pre_pr_wall_secs: base.map_or(0.0, |b| b.wall_secs),
                pre_pr_processed: base.map_or(0, |b| b.processed),
                pre_pr_tuples_per_sec: base.map_or(0.0, |b| b.tuples_per_sec),
                pre_pr_cpu_secs: base.map_or(0.0, |b| b.cpu_secs),
                speedup_vs_pre_pr: base.map_or(0.0, |b| bat_tps / b.tuples_per_sec.max(1e-12)),
            });
        }
    }
    Ok(rows)
}

/// One row of the `bench-adapt` report: the online re-optimization loop
/// measured end to end on a drifting trace — how fast drift is detected,
/// how fast the warm-started re-plan converges, how disruptive the live
/// hot-swap is, and how much the adapted strategy beats riding the stale
/// one.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchAdaptRow {
    /// Fixture name.
    pub name: String,
    /// Trace length (seconds).
    pub trace_secs: f64,
    /// Trace time at which the source rate departs the declared descriptor.
    pub drift_at: f64,
    /// Seconds of trace time from the drift onset to the detector's first
    /// confirmed detection (simulator run).
    pub time_to_detect_secs: f64,
    /// Trace time of the hot-swap (simulator run).
    pub swap_at: f64,
    /// Search-tree nodes of the re-plan.
    pub replan_nodes: u64,
    /// Wall-clock milliseconds of the re-plan.
    pub replan_wall_ms: f64,
    /// Wall-clock milliseconds until the re-plan found its best strategy.
    pub replan_time_to_best_ms: f64,
    /// FT-Search re-plans that fell back to the exact penalty model.
    pub soft_fallbacks: u64,
    /// Hot-swaps performed in the simulator run.
    pub swaps: u64,
    /// Control-plane passes during a swap in which some PE had no primary
    /// (0 = the two-phase protocol held the union active throughout).
    pub swap_downtime_quanta: u64,
    /// Source tuples emitted during those degraded passes.
    pub swap_downtime_tuples: u64,
    /// Tuples processed riding the stale strategy to the end (no adapt).
    pub stale_processed: u64,
    /// Queue drops riding the stale strategy.
    pub stale_drops: u64,
    /// Tuples processed with adaptation enabled (simulator).
    pub adapted_processed: u64,
    /// Queue drops with adaptation enabled (simulator).
    pub adapted_drops: u64,
    /// `1 − adapted_drops / stale_drops` (0 when the stale run dropped
    /// nothing).
    pub drop_reduction: f64,
    /// Hot-swaps performed by the live threaded engine under the same
    /// configuration (parity expects this to equal `swaps`).
    pub live_swaps: u64,
    /// Live-engine drops (queue + transport).
    pub live_drops: u64,
    /// `|live processed − sim processed| / sim processed`, both adapted.
    pub live_sim_delta: f64,
}

/// The drifting fixture `bench-adapt` runs: the paper's Fig. 2 deployment
/// on double-capacity hosts, so the strategy that is optimal under the
/// declared descriptor (all replicas active, IC 1) overloads the cluster
/// once the High rate drifts 8 → 12 t/s, while staggered single replicas
/// still fit — adaptation has a strictly better strategy to find.
fn drift_fixture() -> (Application, Placement) {
    let p = laar_core::testutil::fig2_problem(0.7);
    let hosts = p
        .placement
        .hosts()
        .iter()
        .map(|h| laar_model::Host {
            id: h.id,
            name: h.name.clone(),
            capacity: 2000.0,
        })
        .collect();
    let assignment = (0..4).map(|i| p.placement.host_of(i / 2, i % 2)).collect();
    let placement = Placement::new(p.app.graph(), 2, hosts, assignment)
        .expect("fig2 placement reshapes cleanly");
    (p.app.clone(), placement)
}

/// The `bench-adapt` command: measure the observation → re-plan → hot-swap
/// loop end to end. One drifting fixture is run three ways — stale
/// strategy on the simulator (the control), adapted on the simulator, and
/// adapted on the live threaded engine — and the detector/re-planner/swap
/// accounting is folded into one row. `smoke` shrinks the trace and speeds
/// the live clock for CI.
pub fn cmd_bench_adapt(smoke: bool) -> Result<Vec<BenchAdaptRow>, CliError> {
    let duration = if smoke { 30.0 } else { 120.0 };
    let drift_at = duration / 3.0;
    let (app, placement) = drift_fixture();
    let trace = InputTrace {
        schedules: vec![laar_dsps::RateSchedule::from_segments(vec![
            (0.0, 4.0),
            (drift_at, 12.0),
        ])],
        duration,
    };
    // The declared-optimal strategy at IC 0.7: all replicas active.
    let problem = Problem::new(app.clone(), placement.clone(), 0.7).map_err(message)?;
    let stale = ftsearch::solve(&problem, &FtSearchConfig::default())
        .map_err(message)?
        .outcome
        .solution()
        .ok_or_else(|| CliError::Message("drift fixture must be feasible".to_owned()))?
        .strategy
        .clone();
    let adapt = AdaptConfig::new(0.7);

    let sim = |adapt: Option<AdaptConfig>| {
        Simulation::new(
            &app,
            &placement,
            stale.clone(),
            &trace,
            FailurePlan::None,
            SimConfig {
                adapt,
                ..SimConfig::default()
            },
        )
        .run_adaptive()
    };
    let (stale_m, _) = sim(None);
    let (adapted_m, report) = sim(Some(adapt.clone()));
    let report = report.expect("adapt was enabled");

    let scale = if smoke { 200.0 } else { 20.0 };
    let mut rt = RuntimeConfig::accelerated(scale);
    // OS jitter of J wall-seconds looks like J × scale trace-seconds of
    // heartbeat staleness; tolerate ~20 ms of scheduler jitter.
    rt.detection_delay = rt.detection_delay.max(0.02 * scale);
    rt.adapt = Some(adapt);
    let live = LiveRuntime::new(&app, &placement, stale, &trace, FailurePlan::None, rt).run();
    let live_report = live.adapt.as_ref().expect("adapt was enabled");

    let detect = report
        .detected_at
        .map_or(f64::NAN, |t| (t - drift_at).max(0.0));
    let adapted_processed = adapted_m.total_processed();
    let live_processed = live.metrics.total_processed();
    Ok(vec![BenchAdaptRow {
        name: "fig2_drift_high_8_to_12".to_owned(),
        trace_secs: duration,
        drift_at,
        time_to_detect_secs: detect,
        swap_at: report.last_swap_at.unwrap_or(f64::NAN),
        replan_nodes: report.replan_nodes,
        replan_wall_ms: report.replan_wall_ms,
        replan_time_to_best_ms: report.replan_time_to_best_ms,
        soft_fallbacks: report.soft_fallbacks,
        swaps: report.swaps,
        swap_downtime_quanta: adapted_m.swap_downtime_quanta,
        swap_downtime_tuples: adapted_m.swap_downtime_tuples,
        stale_processed: stale_m.total_processed(),
        stale_drops: stale_m.queue_drops,
        adapted_processed,
        adapted_drops: adapted_m.queue_drops,
        drop_reduction: if stale_m.queue_drops > 0 {
            1.0 - adapted_m.queue_drops as f64 / stale_m.queue_drops as f64
        } else {
            0.0
        },
        live_swaps: live_report.swaps,
        live_drops: live.metrics.queue_drops + live.conservation.transport_dropped,
        live_sim_delta: (live_processed as f64 - adapted_processed as f64).abs()
            / (adapted_processed as f64).max(1.0),
    }])
}

/// One `profile` row: PE name, per-port selectivities, per-port costs, and
/// the worst relative error against the contract (NaN when per-port
/// attribution is unidentifiable).
pub type ProfileRow = (String, Vec<f64>, Vec<f64>, f64);

/// The `profile` command: re-estimate the descriptor from probe runs and
/// report the worst per-PE relative error against the contract.
pub fn cmd_profile(
    app: &Application,
    placement: &Placement,
    probes: usize,
) -> Result<Vec<ProfileRow>, CliError> {
    if probes < 2 {
        return Err(CliError::Message("--probes must be at least 2".to_owned()));
    }
    let estimates = profile_application(app, placement, probes, 60.0);
    Ok(estimates
        .into_iter()
        .map(|e| {
            // Unidentifiable fan-in ports carry effective (aggregate)
            // values; per-port error is meaningless there, so report NaN.
            let err = if e.identifiable {
                descriptor_error(app, &e)
            } else {
                f64::NAN
            };
            let name = app.graph().component(e.pe).name.clone();
            (name, e.selectivity, e.cpu_cost, err)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifacts() -> (Application, Placement, InputTrace) {
        // Seed chosen so the IC 0.7 SLA is feasible (cmd_variants needs it).
        cmd_generate(6, 3, 1, 1.0).unwrap()
    }

    #[test]
    fn generate_scale_multiplies_the_deployment() {
        let (app, placement, _) = cmd_generate(6, 3, 1, 4.0).unwrap();
        assert_eq!(app.graph().num_pes(), 24);
        assert_eq!(placement.num_hosts(), 12);
        assert!(cmd_generate(6, 3, 1, 0.0).is_err());
        assert!(cmd_generate(6, 3, 1, f64::NAN).is_err());
    }

    #[test]
    fn bench_solver_rows_pair_sequential_and_parallel() {
        let modes = [SolverBenchMode::Sequential, SolverBenchMode::Parallel];
        let rows =
            cmd_bench_solver(2, 11, 0.5, Duration::from_secs(20), 2, &modes, false, &[]).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().any(|r| r.mode == "sequential"));
        assert!(rows.iter().any(|r| r.mode == "parallel"));
        let limit = Duration::from_secs(1);
        assert!(cmd_bench_solver(0, 11, 0.5, limit, 2, &modes, false, &[]).is_err());
        assert!(cmd_bench_solver(2, 11, 1.5, limit, 2, &modes, false, &[]).is_err());
        assert!(cmd_bench_solver(2, 11, 0.5, limit, 0, &modes, false, &[]).is_err());
        assert!(cmd_bench_solver(2, 11, 0.5, limit, 2, &[], false, &[]).is_err());
    }

    #[test]
    fn generate_solve_simulate_pipeline() {
        let (app, placement, trace) = artifacts();
        let solved = cmd_solve(&app, &placement, 0.5, Duration::from_secs(10), None).unwrap();
        assert!(solved.ic >= 0.5 - 1e-9);
        assert!(solved.label == "BST" || solved.label == "SOL");
        let (metrics, no_report) = cmd_simulate(
            &app,
            &placement,
            solved.strategy.clone(),
            &trace,
            FailurePlan::None,
            1,
            None,
        )
        .unwrap();
        assert!(no_report.is_none());
        assert!(metrics.total_processed() > 0);

        // A multi-threaded run is bit-identical to the single-threaded one.
        let (par, _) = cmd_simulate(
            &app,
            &placement,
            solved.strategy.clone(),
            &trace,
            FailurePlan::None,
            3,
            None,
        )
        .unwrap();
        assert_eq!(metrics, par);

        // Worst-case run through the same interface.
        let plan = parse_failure("worst", &app, &solved.strategy).unwrap();
        let (worst, _) =
            cmd_simulate(&app, &placement, solved.strategy, &trace, plan, 1, None).unwrap();
        assert!(worst.total_processed() <= metrics.total_processed());
    }

    #[test]
    fn run_live_executes_generated_app() {
        let (app, placement, trace) = artifacts();
        let np = app.graph().num_pes();
        let strategy = ActivationStrategy::all_active(np, placement.k(), 2);
        let report = cmd_run_live(
            &app,
            &placement,
            strategy,
            &trace,
            FailurePlan::None,
            60.0,
            None,
        )
        .unwrap();
        assert!(report.metrics.total_processed() > 0);
        assert!(report.conservation.is_balanced());
        // Rejects nonsense speeds.
        let s2 = ActivationStrategy::all_active(np, placement.k(), 2);
        assert!(cmd_run_live(&app, &placement, s2, &trace, FailurePlan::None, 0.0, None).is_err());
    }

    #[test]
    fn solve_reports_infeasible_clearly() {
        let (app, placement, _) = artifacts();
        let err = cmd_solve(&app, &placement, 0.999, Duration::from_secs(5), None).unwrap_err();
        assert!(err.to_string().contains("--soft"), "{err}");
    }

    #[test]
    fn solve_names_the_root_conflict() {
        // Hosts too small for any single replica: the verdict comes from the
        // root presolve and carries the numbers that prove it.
        let (app, placement, _) = artifacts();
        let np = app.graph().num_pes();
        let hosts = placement
            .hosts()
            .iter()
            .map(|h| laar_model::Host {
                capacity: 1e-3,
                ..h.clone()
            })
            .collect();
        let assignment = (0..2 * np)
            .map(|i| placement.host_of(i / 2, i % 2))
            .collect();
        let tiny = Placement::new(app.graph(), 2, hosts, assignment).unwrap();
        let err = cmd_solve(&app, &tiny, 0.0, Duration::from_secs(5), None).unwrap_err();
        let msg = err.to_string();
        assert!(msg.starts_with("infeasible: PE "), "{msg}");
        assert!(msg.contains("cycles/s in configuration"), "{msg}");
        assert!(msg.ends_with("offer 0.001/0.001"), "{msg}");
    }

    #[test]
    fn soft_solve_always_returns() {
        let (app, placement, _) = artifacts();
        let soft = cmd_solve(&app, &placement, 0.999, Duration::from_secs(10), Some(1e6)).unwrap();
        assert_eq!(soft.label, "SOFT");
        assert!(soft.ic_shortfall.unwrap() >= 0.0);
    }

    #[test]
    fn failure_specs_parse() {
        let (app, _, _) = artifacts();
        let s = ActivationStrategy::all_active(6, 2, 2);
        assert_eq!(parse_failure("none", &app, &s).unwrap(), FailurePlan::None);
        assert!(matches!(
            parse_failure("worst", &app, &s).unwrap(),
            FailurePlan::WorstCase { .. }
        ));
        match parse_failure("host:2@120.5", &app, &s).unwrap() {
            FailurePlan::HostCrash { host, at, duration } => {
                assert_eq!(host, HostId(2));
                assert_eq!(at, 120.5);
                assert_eq!(duration, FailurePlan::STREAMS_RECOVERY_SECS);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_failure("bogus", &app, &s).is_err());
    }

    #[test]
    fn variants_table_is_ordered() {
        let (app, placement, trace) = artifacts();
        let rows = cmd_variants(&app, &placement, &trace, Duration::from_secs(10)).unwrap();
        assert_eq!(rows.len(), 6);
        let cost = |l: &str| {
            rows.iter()
                .find(|r| r.label == l)
                .map(|r| r.expected_cost)
                .unwrap()
        };
        assert!(cost("NR") <= cost("L.5") + 1e-9);
        assert!(cost("L.5") <= cost("L.6") + 1e-9);
        assert!(cost("L.6") <= cost("L.7") + 1e-9);
        assert!(cost("L.7") <= cost("SR") + 1e-9);
    }

    #[test]
    fn profile_matches_contract() {
        let (app, placement, _) = artifacts();
        let rows = cmd_profile(&app, &placement, 3).unwrap();
        assert_eq!(rows.len(), 6);
        for (name, _, _, err) in rows {
            // NaN marks fan-in PEs whose per-port split is unidentifiable
            // from a single proportional source (documented fallback).
            assert!(err.is_nan() || err < 0.15, "{name}: error {err}");
        }
    }

    #[test]
    fn invalid_strategy_is_rejected_by_simulate() {
        let (app, placement, trace) = artifacts();
        let bad = ActivationStrategy::all_inactive(6, 2, 2);
        assert!(cmd_simulate(&app, &placement, bad, &trace, FailurePlan::None, 1, None).is_err());
    }
}

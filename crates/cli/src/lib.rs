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
use laar_core::ftsearch::{self, FtSearchConfig, Objective, Outcome};
use laar_core::{CoreError, Problem};
use laar_dsps::profiler::{descriptor_error, profile_application};
use laar_dsps::{FailurePlan, InputTrace, SimConfig, SimMetrics, Simulation};
use laar_experiments::build_variants;
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
    /// Outcome label (BST/SOL, or SOFT for the penalty model).
    pub label: String,
    /// Guaranteed IC.
    pub ic: f64,
    /// Expected cost per eq. 13.
    pub cost_cycles: f64,
    /// FIC shortfall (tuples/s below the IC goal) when solving in soft
    /// (penalty) mode.
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
    let opts = FtSearchConfig {
        objective: soft_penalty.map_or(Objective::Hard, Objective::Penalty),
        ..FtSearchConfig::with_time_limit(time_limit)
    };
    let report = ftsearch::solve(&problem, &opts).map_err(|e| match e {
        CoreError::InvalidPenaltyRate(lambda) => {
            CliError::Message(format!("bad --soft {lambda}: {e}"))
        }
        e => message(e),
    })?;
    match report.outcome {
        Outcome::Optimal(s) | Outcome::Feasible(s) => Ok(SolveOutput {
            label: match (soft_penalty, report.stats.proved) {
                (Some(_), _) => "SOFT",
                (None, true) => "BST",
                (None, false) => "SOL",
            }
            .to_owned(),
            ic: s.ic,
            cost_cycles: s.cost_cycles,
            ic_shortfall: soft_penalty.map(|_| {
                let bic_rate = problem.ic_evaluator().bic() / app.billing_period();
                (ic_requirement - s.ic).max(0.0) * bic_rate
            }),
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
            None if soft_penalty.is_some() => {
                "infeasible: no activation strategy fits this deployment's CPU capacity".to_owned()
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

/// Failure plan specification accepted by `simulate` and `run-live`:
/// `none`, `worst`, or `host:<id>@<secs>` with `<id>` a host of `placement`
/// and `<secs>` a finite crash time.
pub fn parse_failure(
    spec: &str,
    app: &Application,
    placement: &Placement,
    strategy: &ActivationStrategy,
) -> Result<FailurePlan, CliError> {
    match spec {
        "none" => Ok(FailurePlan::None),
        "worst" => Ok(FailurePlan::worst_case(app, strategy)),
        other => {
            let rest = other.strip_prefix("host:").ok_or_else(|| {
                CliError::Message(format!(
                    "unknown failure spec {other:?} (use none, worst, or host:<id>@<secs>)"
                ))
            })?;
            let (h, t) = rest.split_once('@').ok_or_else(|| {
                CliError::Message("host failure spec must be host:<id>@<secs>".to_owned())
            })?;
            let host: u32 = h.parse().map_err(message)?;
            if host as usize >= placement.num_hosts() {
                return Err(CliError::Message(format!(
                    "bad failure spec {other:?}: the placement has hosts 0..{}",
                    placement.num_hosts()
                )));
            }
            let at: f64 = t.parse().map_err(message)?;
            if !at.is_finite() {
                return Err(CliError::Message(format!(
                    "bad failure spec {other:?}: the crash time must be finite"
                )));
            }
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

/// The `variants` command: build all six §5.2 variants
/// ([`laar_experiments::build_variants`]) and simulate each failure-free.
pub fn cmd_variants(
    app: &Application,
    placement: &Placement,
    trace: &InputTrace,
    time_limit: Duration,
) -> Result<Vec<VariantRow>, CliError> {
    let set = build_variants(app, placement, time_limit)
        .map_err(|reason| CliError::Message(format!("{reason} on this deployment")))?;
    Ok(set
        .entries
        .into_iter()
        .map(|entry| {
            let metrics = Simulation::new(
                app,
                placement,
                entry.strategy,
                trace,
                FailurePlan::None,
                SimConfig::default(),
            )
            .run();
            VariantRow {
                label: entry.kind.label().to_owned(),
                guaranteed_ic: entry.guaranteed_ic,
                expected_cost: entry.expected_cost,
                measured_cpu: metrics.total_cpu_seconds(),
                drops: metrics.queue_drops,
            }
        })
        .collect())
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
        let plan = parse_failure("worst", &app, &placement, &solved.strategy).unwrap();
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
    fn bad_soft_penalty_is_an_error_not_a_panic() {
        let (app, placement, _) = artifacts();
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let err = cmd_solve(&app, &placement, 0.5, Duration::from_secs(10), Some(bad))
                .unwrap_err()
                .to_string();
            assert!(err.starts_with("bad --soft "), "{bad}: {err}");
        }
    }

    #[test]
    fn huge_time_limit_solves_normally() {
        // 1e19 s passes `Duration::try_from_secs_f64` but overflowed the
        // solver's deadline.
        let (app, placement, _) = artifacts();
        let limit = Duration::try_from_secs_f64(1e19).unwrap();
        let solved = cmd_solve(&app, &placement, 0.5, limit, None).unwrap();
        assert_eq!(solved.label, "BST");
    }

    #[test]
    fn failure_specs_parse() {
        let (app, placement, _) = artifacts();
        let s = ActivationStrategy::all_active(6, 2, 2);
        let parse = |spec: &str| parse_failure(spec, &app, &placement, &s);
        assert_eq!(parse("none").unwrap(), FailurePlan::None);
        assert!(matches!(
            parse("worst").unwrap(),
            FailurePlan::WorstCase { .. }
        ));
        match parse("host:2@120.5").unwrap() {
            FailurePlan::HostCrash { host, at, duration } => {
                assert_eq!(host, HostId(2));
                assert_eq!(at, 120.5);
                assert_eq!(duration, FailurePlan::STREAMS_RECOVERY_SECS);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("bogus").is_err());
        // A host the 3-host placement does not have panicked the live
        // coordinator and was silently ignored by the simulator; a crash
        // time that is not finite never fires.
        assert!(parse("host:3@10").is_err());
        assert!(parse("host:99@10").is_err());
        assert!(parse("host:0@nan").is_err());
        assert!(parse("host:0@inf").is_err());
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

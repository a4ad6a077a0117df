//! The runtime evaluation driver (§5.3): runs the generated corpus through
//! the cluster simulator under the three failure modes and produces the raw
//! records behind Figs. 9, 10, 11, and 12.

use crate::variants::{build_variants, VariantEntry};
use laar_core::variants::VariantKind;
use laar_dsps::{FailurePlan, InputTrace, SimConfig, SimMetrics, Simulation};
use laar_gen::{runtime_corpus, GenParams, GeneratedApp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;

/// Configuration of a corpus evaluation.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Number of generated applications (the paper uses 100).
    pub num_apps: usize,
    /// Master seed.
    pub seed: u64,
    /// FT-Search time limit per LAAR variant.
    pub solver_time_limit: Duration,
    /// Simulator tunables.
    pub sim: SimConfig,
    /// Generator parameters.
    pub gen: GenParams,
    /// Run the pessimistic worst-case failure pass (Fig. 11 top / Fig. 12).
    pub run_worst_case: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            num_apps: 100,
            seed: 0xEDB7_2014,
            solver_time_limit: Duration::from_secs(5),
            sim: SimConfig::default(),
            gen: GenParams::default(),
            run_worst_case: true,
        }
    }
}

/// Measurements of one variant on one application.
#[derive(Debug, Clone)]
pub struct VariantEval {
    /// The variant's strategy and analytic values.
    pub entry: VariantEntry,
    /// Best-case (no failure) run.
    pub best: SimMetrics,
    /// Pessimistic worst-case run (one replica of each PE permanently
    /// crashed), when enabled.
    pub worst: Option<SimMetrics>,
}

/// All measurements for one application.
#[derive(Debug)]
pub struct AppEvaluation {
    /// Generator seed of the application.
    pub seed: u64,
    /// The High window of the trace `(start, end)` — the "load peak" used by
    /// Fig. 10 and for placing host crashes.
    pub high_window: (f64, f64),
    /// Per-variant measurements.
    pub runs: BTreeMap<VariantKind, VariantEval>,
}

/// Result of evaluating a corpus: per-app records plus the applications that
/// were skipped because a LAAR instance was infeasible within the limit.
#[derive(Debug)]
pub struct CorpusEvaluation {
    /// Successfully evaluated applications.
    pub apps: Vec<AppEvaluation>,
    /// `(seed, reason)` for skipped applications.
    pub skipped: Vec<(u64, String)>,
}

/// The experiment trace for one generated app: Low with a single centered
/// High window covering the contract's `P_C(High)` share of the duration.
pub fn trace_for(gen: &GeneratedApp) -> InputTrace {
    InputTrace::low_high_centered(
        gen.low_rate,
        gen.high_rate,
        gen.app.billing_period(),
        gen.p_high(),
    )
}

fn run_sim(
    gen: &GeneratedApp,
    entry: &VariantEntry,
    trace: &InputTrace,
    plan: FailurePlan,
    sim: &SimConfig,
) -> SimMetrics {
    Simulation::new(
        &gen.app,
        &gen.placement,
        entry.strategy.clone(),
        trace,
        plan,
        sim.clone(),
    )
    .run()
}

/// Evaluate one generated application across all six variants.
pub fn evaluate_app(gen: &GeneratedApp, cfg: &EvalConfig) -> Result<AppEvaluation, String> {
    let set = build_variants(&gen.app, &gen.placement, cfg.solver_time_limit)?;
    let trace = trace_for(gen);
    let windows = trace.windows_above(0, gen.low_rate);
    let high_window = windows.first().copied().unwrap_or((0.0, trace.duration));

    let mut runs = BTreeMap::new();
    for entry in &set.entries {
        let best = run_sim(gen, entry, &trace, FailurePlan::None, &cfg.sim);
        let worst = if cfg.run_worst_case {
            let plan = FailurePlan::worst_case(&gen.app, &entry.strategy);
            Some(run_sim(gen, entry, &trace, plan, &cfg.sim))
        } else {
            None
        };
        runs.insert(
            entry.kind,
            VariantEval {
                entry: entry.clone(),
                best,
                worst,
            },
        );
    }
    Ok(AppEvaluation {
        seed: gen.seed,
        high_window,
        runs,
    })
}

/// Evaluate the whole corpus, one application after another.
pub fn evaluate_corpus(cfg: &EvalConfig) -> CorpusEvaluation {
    let corpus = runtime_corpus(cfg.num_apps, &cfg.gen, cfg.seed);
    let mut apps = Vec::new();
    let mut skipped = Vec::new();
    for gen in &corpus {
        match evaluate_app(gen, cfg) {
            Ok(a) => apps.push(a),
            Err(reason) => skipped.push((gen.seed, reason)),
        }
    }
    CorpusEvaluation { apps, skipped }
}

/// The single-host-crash pass (Fig. 11 bottom): re-run a subset of `n`
/// applications crashing one random PE-hosting server for 16 s *during the
/// High window* (the paper disfavors LAAR deliberately), and return, per
/// app, the per-variant total samples processed plus the NR best-case
/// reference.
pub fn evaluate_host_crash(cfg: &EvalConfig, n: usize) -> Vec<(u64, BTreeMap<VariantKind, f64>)> {
    let corpus = runtime_corpus(cfg.num_apps, &cfg.gen, cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0FF_EE00);
    // Random subset of n apps.
    let mut idx: Vec<usize> = (0..corpus.len()).collect();
    for i in (1..idx.len()).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx.truncate(n);
    let picks: Vec<(usize, u32)> = idx
        .iter()
        .map(|&i| {
            let host = rng.random_range(0..corpus[i].placement.num_hosts() as u32);
            (i, host)
        })
        .collect();

    picks
        .iter()
        .filter_map(|&(i, host)| {
            let gen = &corpus[i];
            let set = build_variants(&gen.app, &gen.placement, cfg.solver_time_limit).ok()?;
            let trace = trace_for(gen);
            let (hs, he) = trace
                .windows_above(0, gen.low_rate)
                .first()
                .copied()
                .unwrap_or((0.0, trace.duration));
            // Crash early in the High window so the full outage fits inside.
            let at = hs + ((he - hs) * 0.2).min((he - hs - 16.0).max(0.0));
            let mut per_variant = BTreeMap::new();
            // Failure-free NR reference for normalization.
            let nr = set.get(VariantKind::NonReplicated);
            let nr_clean = run_sim(gen, nr, &trace, FailurePlan::None, &cfg.sim);
            let reference = nr_clean.total_processed() as f64;
            for entry in &set.entries {
                let plan = FailurePlan::host_crash(laar_model::HostId(host), at);
                let m = run_sim(gen, entry, &trace, plan, &cfg.sim);
                per_variant.insert(entry.kind, m.total_processed() as f64 / reference.max(1.0));
            }
            Some((gen.seed, per_variant))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> EvalConfig {
        EvalConfig {
            num_apps: 3,
            seed: 77,
            solver_time_limit: Duration::from_secs(5),
            gen: GenParams {
                num_pes: 6,
                num_hosts: 2,
                duration: 60.0,
                ..GenParams::default()
            },
            ..EvalConfig::default()
        }
    }

    #[test]
    fn corpus_evaluation_produces_records() {
        let cfg = tiny_cfg();
        let out = evaluate_corpus(&cfg);
        assert_eq!(out.apps.len() + out.skipped.len(), 3);
        for app in &out.apps {
            assert_eq!(app.runs.len(), 6);
            let nr = &app.runs[&VariantKind::NonReplicated];
            // NR worst case produces nothing.
            assert_eq!(nr.worst.as_ref().unwrap().total_processed(), 0);
            // SR best case costs more CPU than NR best case.
            let sr = &app.runs[&VariantKind::StaticReplication];
            assert!(
                sr.best.total_cpu_seconds() > nr.best.total_cpu_seconds(),
                "SR should cost more than NR"
            );
        }
    }

    #[test]
    fn worst_case_meets_guarantee_within_tolerance() {
        let cfg = tiny_cfg();
        let out = evaluate_corpus(&cfg);
        for app in &out.apps {
            let nr_best = app.runs[&VariantKind::NonReplicated].best.total_processed() as f64;
            for kind in [
                VariantKind::Laar05,
                VariantKind::Laar06,
                VariantKind::Laar07,
            ] {
                let run = &app.runs[&kind];
                let measured =
                    run.worst.as_ref().unwrap().total_processed() as f64 / nr_best.max(1.0);
                let bound = run.entry.guaranteed_ic;
                // The paper observed violations of at most 4.7 %; allow a
                // modest simulation tolerance here.
                assert!(
                    measured >= bound - 0.08,
                    "app {}: {} measured {measured:.3} vs bound {bound:.3}",
                    app.seed,
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn host_crash_pass_runs() {
        let cfg = tiny_cfg();
        let rows = evaluate_host_crash(&cfg, 2);
        assert!(!rows.is_empty());
        for (_, per_variant) in &rows {
            // With a crash + recovery, LAAR should beat its pessimistic
            // floor; values are normalized so they sit in [0, ~1.1].
            for &v in per_variant.values() {
                assert!((0.0..=1.3).contains(&v), "ratio {v}");
            }
        }
    }
}

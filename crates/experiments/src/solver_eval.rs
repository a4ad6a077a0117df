//! The FT-Search evaluation (§4.5, Figs. 4–6): run the solver corpus under
//! growing IC constraints and collect outcome labels, first-vs-optimal
//! ratios, and pruning-effectiveness statistics.

use laar_core::ftsearch::{solve, FtSearchConfig, PruneKind, SearchStats};
use laar_core::Problem;
use laar_gen::solver_corpus;
use std::time::Duration;

/// Configuration of the solver evaluation.
#[derive(Debug, Clone)]
pub struct SolverEvalConfig {
    /// Number of generated instances (the paper uses 600).
    pub num_instances: usize,
    /// Master seed.
    pub seed: u64,
    /// Per-run wall-clock limit (the paper uses 10 minutes).
    pub time_limit: Duration,
    /// IC constraints to sweep (the paper: 0.5–0.9).
    pub ic_constraints: Vec<f64>,
}

impl Default for SolverEvalConfig {
    fn default() -> Self {
        Self {
            num_instances: 600,
            seed: 0xF7_5EA7C4,
            time_limit: Duration::from_secs(600),
            ic_constraints: vec![0.5, 0.6, 0.7, 0.8, 0.9],
        }
    }
}

/// One FT-Search run's summary.
#[derive(Debug, Clone)]
pub struct SolverRun {
    /// Index of the instance in the corpus.
    pub instance: usize,
    /// Hosts in the instance (1–12).
    pub num_hosts: usize,
    /// PEs per host in the instance (2–12).
    pub pes_per_host: usize,
    /// The IC constraint used.
    pub ic_constraint: f64,
    /// Outcome label: BST / SOL / NUL / TMO.
    pub label: &'static str,
    /// Full search statistics.
    pub stats: SearchStats,
}

impl SolverRun {
    /// Cost ratio first/optimal solution, when the run was proved optimal
    /// and improved at least once past the first solution (Fig. 5a).
    pub fn cost_ratio(&self) -> Option<f64> {
        if self.label == "BST" {
            self.stats.first_to_best_cost_ratio()
        } else {
            None
        }
    }

    /// Time ratio first/optimal solution under the same condition (Fig. 5b).
    pub fn time_ratio(&self) -> Option<f64> {
        if self.label == "BST" {
            self.stats.first_to_best_time_ratio()
        } else {
            None
        }
    }
}

/// Run the sweep: every instance × every IC constraint, one sequential
/// run at a time (so prune statistics are exact).
pub fn evaluate_solver_corpus(cfg: &SolverEvalConfig) -> Vec<SolverRun> {
    let corpus = solver_corpus(cfg.num_instances, cfg.seed);
    corpus
        .iter()
        .enumerate()
        .flat_map(|(i, inst)| {
            let mut rows = Vec::with_capacity(cfg.ic_constraints.len());
            for &ic in &cfg.ic_constraints {
                let problem = Problem::new(inst.gen.app.clone(), inst.gen.placement.clone(), ic)
                    .expect("valid problem");
                let opts = FtSearchConfig {
                    // Figs. 4–6 characterize the paper's cold-start search:
                    // first-solution timings must come from the search, not
                    // from incumbent seeding.
                    seed_incumbent: false,
                    ..FtSearchConfig::with_time_limit(cfg.time_limit)
                };
                let report = solve(&problem, &opts).expect("k = 2");
                rows.push(SolverRun {
                    instance: i,
                    num_hosts: inst.num_hosts,
                    pes_per_host: inst.pes_per_host,
                    ic_constraint: ic,
                    label: report.outcome.label(),
                    stats: report.stats,
                });
            }
            rows
        })
        .collect()
}

/// Fig. 4 aggregation: per IC constraint, the fraction of runs per outcome
/// label, in the order `[BST, SOL, NUL, TMO]`.
pub fn outcome_shares(runs: &[SolverRun], ic: f64) -> [f64; 4] {
    let subset: Vec<&SolverRun> = runs
        .iter()
        .filter(|r| (r.ic_constraint - ic).abs() < 1e-9)
        .collect();
    let n = subset.len().max(1) as f64;
    let count = |label: &str| subset.iter().filter(|r| r.label == label).count() as f64 / n;
    [count("BST"), count("SOL"), count("NUL"), count("TMO")]
}

/// Fig. 6 aggregation: per pruning strategy, `(share of prune events,
/// average height of pruned branches)`.
pub fn pruning_summary(runs: &[SolverRun]) -> Vec<(PruneKind, f64, f64)> {
    let mut total_events = 0u64;
    let mut events = [0u64; laar_core::ftsearch::NUM_PRUNE_KINDS];
    let mut heights = [0u64; laar_core::ftsearch::NUM_PRUNE_KINDS];
    for r in runs {
        for k in PruneKind::ALL {
            events[k.index()] += r.stats.prunes[k.index()];
            heights[k.index()] += r.stats.prune_heights[k.index()];
            total_events += r.stats.prunes[k.index()];
        }
    }
    PruneKind::ALL
        .iter()
        .map(|&k| {
            let e = events[k.index()];
            let share = if total_events == 0 {
                0.0
            } else {
                e as f64 / total_events as f64
            };
            let avg_h = if e == 0 {
                0.0
            } else {
                heights[k.index()] as f64 / e as f64
            };
            (k, share, avg_h)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SolverEvalConfig {
        SolverEvalConfig {
            num_instances: 6,
            seed: 11,
            time_limit: Duration::from_secs(3),
            ic_constraints: vec![0.5, 0.7, 0.9],
        }
    }

    #[test]
    fn sweep_produces_all_rows() {
        let runs = evaluate_solver_corpus(&small_cfg());
        assert_eq!(runs.len(), 6 * 3);
        for r in &runs {
            assert!(["BST", "SOL", "NUL", "TMO"].contains(&r.label));
        }
    }

    #[test]
    fn outcome_shares_sum_to_one() {
        let runs = evaluate_solver_corpus(&small_cfg());
        for ic in [0.5, 0.7, 0.9] {
            let shares = outcome_shares(&runs, ic);
            let sum: f64 = shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "shares {shares:?}");
        }
    }

    #[test]
    fn stricter_ic_never_more_feasible() {
        // The feasible set shrinks with the IC constraint, so the NUL share
        // is non-decreasing in IC for proved runs (our small instances all
        // prove within the limit).
        let runs = evaluate_solver_corpus(&small_cfg());
        let nul = |ic: f64| outcome_shares(&runs, ic)[2];
        assert!(nul(0.5) <= nul(0.7) + 1e-9);
        assert!(nul(0.7) <= nul(0.9) + 1e-9);
    }

    #[test]
    fn pruning_summary_shares_sum_to_one_when_any() {
        let runs = evaluate_solver_corpus(&small_cfg());
        let summary = pruning_summary(&runs);
        let total: f64 = summary.iter().map(|(_, s, _)| s).sum();
        if total > 0.0 {
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cost_ratios_at_least_one() {
        let runs = evaluate_solver_corpus(&small_cfg());
        for r in &runs {
            if let Some(c) = r.cost_ratio() {
                assert!(c >= 1.0 - 1e-9, "cost ratio {c}");
            }
            if let Some(t) = r.time_ratio() {
                assert!((0.0..=1.0 + 1e-9).contains(&t), "time ratio {t}");
            }
        }
    }
}

//! Warm-started, anytime re-planning.
//!
//! When drift is confirmed, the subsystem re-runs FT-Search on the
//! re-estimated problem, *warm-started* from the incumbent strategy: the
//! incumbent (when still feasible under the corrected descriptor) becomes
//! the initial shared incumbent, so pruning is tight from the first node
//! and the search degrades gracefully into "return the best improvement
//! found so far" under its budget. The pass runs the CP engine
//! ([`laar_core::ftsearch::SearchMode::Portfolio`], sequential): geometric
//! restarts and LNS rounds around the warm incumbent spend the budget
//! *improving* the installed strategy rather than re-proving the prefix
//! the incumbent already dominates, and once a restart run ends holding an
//! incumbent, one run of the deterministic engine, under a bounded share
//! of the budget, tries to prove it optimal, which ends the pass early with
//! a `BST` label when it succeeds. The budget is a
//! deterministic *node limit* rather than a wall-clock limit, and the CP
//! engine is deterministic under node budgets (its RNG is seeded and all
//! its restart/LNS scheduling is metered in nodes) — both engines re-plan
//! the same problem to the same node count and therefore install the
//! identical strategy, machine speed notwithstanding.
//!
//! When that pass ends with no strategy at the contracted IC (drift pushed
//! some configuration past what the cluster's CPU can replicate, or the
//! budget ran out first), the re-planner runs the same engine once more
//! under the penalty model ([`Objective::Penalty`] with
//! [`ReplanConfig::soft_penalty`]), with the same warm start and the same
//! node budget: the SLA becomes a priced objective term, every strategy
//! that fits the cluster is a solution, and the least-violating one found
//! is returned, which still beats riding the stale strategy into queue
//! overflow. The fallback is metered in nodes like the first pass, so it
//! is deterministic too.

use laar_core::ftsearch::{self, FtSearchConfig, Objective, SearchMode};
use laar_core::Problem;
use laar_model::ActivationStrategy;
use std::time::Duration;

/// Budgets of one re-planning pass.
#[derive(Debug, Clone)]
pub struct ReplanConfig {
    /// Deterministic anytime budget: FT-Search stops after this many
    /// search-tree nodes (reproducible across machines and engines).
    pub node_limit: u64,
    /// Wall-clock backstop of each pass; sized so the node limit binds
    /// first.
    pub time_limit: Duration,
    /// Penalty rate `λ` (cost-rate units per tuple/s of FIC shortfall) of
    /// the soft fallback when the hard pass finds no strategy. Must be
    /// finite and non-negative.
    pub soft_penalty: f64,
}

impl Default for ReplanConfig {
    fn default() -> Self {
        Self {
            node_limit: 200_000,
            time_limit: Duration::from_secs(10),
            soft_penalty: 1.0e6,
        }
    }
}

/// The outcome of one re-planning pass.
#[derive(Debug, Clone)]
pub struct ReplanResult {
    /// Best strategy found within the budget.
    pub strategy: ActivationStrategy,
    /// Its cost (eq. 13, CPU cycles over `T`) under the re-estimated
    /// descriptor.
    pub planned_cost: f64,
    /// Its guaranteed IC (eq. 14) under the re-estimated descriptor.
    pub planned_ic: f64,
    /// FT-Search outcome label (`BST`/`SOL`) of the pass that produced the
    /// strategy.
    pub label: &'static str,
    /// Search-tree nodes visited by the pass that produced the strategy
    /// (at most [`ReplanConfig::node_limit`]).
    pub nodes: u64,
    /// Wall-clock time of the whole re-plan, both passes when the fallback
    /// ran (reporting only — never feeds back into control decisions,
    /// which stay deterministic).
    pub wall: Duration,
    /// Wall-clock time from the start of the re-plan at which the returned
    /// strategy was found.
    pub time_to_best: Duration,
    /// `true` when the soft (penalty-model) fallback produced the result.
    pub soft: bool,
}

/// Re-plan `problem` (already built on the re-estimated descriptor),
/// warm-starting from `incumbent`. Returns `None` when neither pass finds a
/// strategy within budget (no activation fits some configuration on the
/// cluster), or when the problem is not one FT-Search accepts (`k ≠ 2`, a
/// bad [`ReplanConfig::soft_penalty`]).
pub fn replan(
    problem: &Problem,
    incumbent: &ActivationStrategy,
    cfg: &ReplanConfig,
) -> Option<ReplanResult> {
    let hard = FtSearchConfig {
        node_limit: Some(cfg.node_limit),
        time_limit: cfg.time_limit,
        mode: SearchMode::Portfolio,
        ..FtSearchConfig::default()
    };
    let pass =
        |opts: &FtSearchConfig| ftsearch::solve_with_warm_start(problem, opts, Some(incumbent));
    let first = pass(&hard).ok()?;
    let (report, before, soft) = if first.outcome.solution().is_some() {
        (first, Duration::ZERO, false)
    } else {
        // No strategy meets the IC goal: price the SLA instead and
        // install the least-violating strategy.
        let penalty = FtSearchConfig {
            objective: Objective::Penalty(cfg.soft_penalty),
            ..hard
        };
        (pass(&penalty).ok()?, first.stats.elapsed, true)
    };
    let sol = report.outcome.solution()?;
    Some(ReplanResult {
        strategy: sol.strategy.clone(),
        planned_cost: sol.cost_cycles,
        planned_ic: sol.ic,
        label: report.outcome.label(),
        nodes: report.stats.nodes,
        wall: before + report.stats.elapsed,
        time_to_best: before + report.stats.time_to_best.unwrap_or(report.stats.elapsed),
        soft,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_core::testutil::fig2_problem;

    #[test]
    fn warm_start_from_optimum_returns_it() {
        let p = fig2_problem(0.6);
        let full = ftsearch::solve(&p, &FtSearchConfig::default()).unwrap();
        let opt = full.outcome.solution().unwrap();
        let r = replan(
            &p,
            &opt.strategy,
            &ReplanConfig {
                node_limit: 50,
                ..ReplanConfig::default()
            },
        )
        .unwrap();
        assert!(r.planned_cost <= opt.cost_cycles + 1e-6);
        assert!(!r.soft);
    }

    #[test]
    fn infeasible_problem_takes_the_penalty_optimum() {
        // IC 1.0 with the fig2 cluster at High is impossible with hard
        // constraints (all-active overloads both hosts).
        let p = fig2_problem(1.0);
        let sr = laar_core::static_replication(&p);
        let cfg = ReplanConfig::default();
        let r = replan(&p, &sr, &cfg).unwrap();
        assert!(r.soft);
        assert_eq!(r.label, "BST", "the fallback proves its optimum");
        assert!(
            p.check(&r.strategy).len() <= 1,
            "only the IC may fall short"
        );
        // The same optimum as an unbudgeted penalty solve of the
        // deterministic engine.
        let opts = FtSearchConfig {
            objective: Objective::Penalty(cfg.soft_penalty),
            ..FtSearchConfig::default()
        };
        let best = ftsearch::solve(&p, &opts).unwrap();
        assert_eq!(best.outcome.label(), "BST");
        let best = best.outcome.solution().unwrap();
        assert_eq!(r.planned_ic, best.ic);
        assert_eq!(r.planned_cost, best.cost_cycles);
    }

    #[test]
    fn fallback_is_deterministic_and_stays_in_budget() {
        // A 24-PE chain at IC 0.99: no strategy meets the goal, and the
        // penalty pass cannot prove its optimum in the budget.
        let p = laar_core::testutil::chain_problem(24, 4, 0.99);
        let sr = laar_core::static_replication(&p);
        let cfg = ReplanConfig {
            node_limit: 5_000,
            ..ReplanConfig::default()
        };
        let a = replan(&p, &sr, &cfg).unwrap();
        let b = replan(&p, &sr, &cfg).unwrap();
        assert!(a.soft);
        assert!(a.nodes <= cfg.node_limit, "{} nodes", a.nodes);
        assert!(a.nodes > 0);
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.planned_cost.to_bits(), b.planned_cost.to_bits());
    }
}

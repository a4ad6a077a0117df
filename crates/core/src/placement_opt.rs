//! Replica-placement local search — the paper's third future-work
//! direction ("extending the problem formulation by considering the
//! interaction of replica placement with optimal replica activation
//! strategies", §6).
//!
//! LAAR treats the replicated placement `ϑ` as given (computed by an
//! external algorithm such as COLA \[21\]). But the achievable activation
//! cost depends on `ϑ`: co-locating heavy PEs can make an SLA outright
//! infeasible or force expensive activation patterns that a better spread
//! would avoid. This module runs a deterministic first-improvement local
//! search over single-replica host moves, ranking candidate placements by
//! the best cost a node-budgeted FT-Search finds on them, and verifying
//! the final winner with a full solve.

use crate::error::CoreError;
use crate::ftsearch::{self, FtSearchConfig, SearchReport};
use crate::problem::Problem;
use laar_model::{Application, HostId, Placement};
use std::time::Duration;

/// Tunables for the placement search.
#[derive(Debug, Clone)]
pub struct PlacementSearchConfig {
    /// Maximum full improvement sweeps over all (PE, replica, host) moves.
    pub max_sweeps: usize,
    /// FT-Search node budget per candidate evaluation (deterministic).
    pub eval_node_budget: u64,
    /// Time limit for the final verification solve.
    pub final_solve_limit: Duration,
}

impl Default for PlacementSearchConfig {
    fn default() -> Self {
        Self {
            max_sweeps: 8,
            eval_node_budget: 30_000,
            final_solve_limit: Duration::from_secs(10),
        }
    }
}

/// Result of a placement search.
#[derive(Debug)]
pub struct PlacementSearchResult {
    /// The best placement found (possibly the initial one).
    pub placement: Placement,
    /// Heuristic cost-rate of the initial placement (`None` when even the
    /// greedy strategy was infeasible on it).
    pub initial_cost_rate: Option<f64>,
    /// Heuristic cost-rate of the final placement.
    pub final_cost_rate: Option<f64>,
    /// Moves applied.
    pub moves: usize,
    /// FT-Search report for the final placement.
    pub report: SearchReport,
}

fn rebuild(app: &Application, template: &Placement, assignment: Vec<HostId>) -> Option<Placement> {
    Placement::new(
        app.graph(),
        template.k(),
        template.hosts().to_vec(),
        assignment,
    )
    .ok()
}

/// A fast deterministic estimate of the cheapest feasible cost-rate on
/// `placement`: a greedy-seeded FT-Search run under a fixed node budget, so
/// candidate placements can be ranked without a full solve per move. `None`
/// when no feasible strategy was found within the budget.
fn evaluate(
    app: &Application,
    placement: &Placement,
    ic_req: f64,
    node_budget: u64,
) -> Option<f64> {
    let problem = Problem::new(app.clone(), placement.clone(), ic_req).ok()?;
    let opts = FtSearchConfig {
        node_limit: Some(node_budget),
        ..FtSearchConfig::default()
    };
    let report = ftsearch::solve(&problem, &opts).ok()?;
    report
        .outcome
        .solution()
        .map(|s| s.cost_cycles / app.billing_period())
}

/// Improve `initial` for the given IC requirement by first-improvement
/// local search over single-replica moves, then solve the activation
/// problem on the winner.
pub fn optimize_placement(
    app: &Application,
    initial: &Placement,
    ic_req: f64,
    cfg: &PlacementSearchConfig,
) -> Result<PlacementSearchResult, CoreError> {
    let np = app.graph().num_pes();
    let k = initial.k();
    let nh = initial.num_hosts();
    let mut assignment: Vec<HostId> = (0..np)
        .flat_map(|pe| (0..k).map(move |r| initial.host_of(pe, r)))
        .collect();
    let mut current = initial.clone();
    let initial_cost = evaluate(app, &current, ic_req, cfg.eval_node_budget);
    // Infeasible placements rank below any feasible one.
    let score = |c: Option<f64>| c.unwrap_or(f64::INFINITY);
    let mut best = score(initial_cost);
    let mut moves = 0usize;

    for _sweep in 0..cfg.max_sweeps {
        let mut improved = false;
        for pe in 0..np {
            for r in 0..k {
                let original = assignment[pe * k + r];
                for h in 0..nh {
                    let candidate = HostId(h as u32);
                    if candidate == original {
                        continue;
                    }
                    // Keep replicas of a PE on distinct hosts.
                    let clash = (0..k)
                        .filter(|&rr| rr != r)
                        .any(|rr| assignment[pe * k + rr] == candidate);
                    if clash && nh > 1 {
                        continue;
                    }
                    assignment[pe * k + r] = candidate;
                    let Some(p) = rebuild(app, initial, assignment.clone()) else {
                        assignment[pe * k + r] = original;
                        continue;
                    };
                    let c = score(evaluate(app, &p, ic_req, cfg.eval_node_budget));
                    if c < best - 1e-9 {
                        best = c;
                        current = p;
                        moves += 1;
                        improved = true;
                        break; // first improvement: keep the move
                    }
                    assignment[pe * k + r] = original;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let problem = Problem::new(app.clone(), current.clone(), ic_req)?;
    let report = ftsearch::solve(
        &problem,
        &FtSearchConfig::with_time_limit(cfg.final_solve_limit),
    )?;
    Ok(PlacementSearchResult {
        final_cost_rate: evaluate(app, &current, ic_req, cfg.eval_node_budget),
        placement: current,
        initial_cost_rate: initial_cost,
        moves,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftsearch::Outcome;
    use laar_model::{ConfigSpace, GraphBuilder};

    /// A deliberately bad initial placement: all heavy PEs stacked on the
    /// same host pair while a third host idles.
    fn lopsided() -> (Application, Placement) {
        let mut b = GraphBuilder::new();
        let s = b.add_source("s");
        let p1 = b.add_pe("p1");
        let p2 = b.add_pe("p2");
        let p3 = b.add_pe("p3");
        let k = b.add_sink("k");
        b.connect(s, p1, 1.0, 60.0).unwrap();
        b.connect(p1, p2, 1.0, 60.0).unwrap();
        b.connect(p2, p3, 1.0, 60.0).unwrap();
        b.connect_sink(p3, k).unwrap();
        let g = b.build().unwrap();
        let cs = ConfigSpace::new(&g, vec![vec![4.0, 9.0]], vec![0.7, 0.3]).unwrap();
        let app = Application::new("lopsided", g, cs, 100.0).unwrap();
        let hosts = Placement::uniform_hosts(3, 1000.0);
        // Everything on hosts 0/1; host 2 unused.
        let assignment = vec![
            HostId(0),
            HostId(1),
            HostId(0),
            HostId(1),
            HostId(0),
            HostId(1),
        ];
        let placement = Placement::new(app.graph(), 2, hosts, assignment).unwrap();
        (app, placement)
    }

    #[test]
    fn search_uses_the_idle_host() {
        let (app, placement) = lopsided();
        // On the initial two-host stacking the problem is CPU-infeasible at
        // High for *any* IC (three singles cannot fit two hosts); moving a
        // replica onto the idle host makes IC 0.45 feasible. (IC levels
        // above the Low share ~0.51 are unreachable on any placement of
        // this instance: no host can take a second activation at High.)
        let result =
            optimize_placement(&app, &placement, 0.45, &PlacementSearchConfig::default()).unwrap();
        // The improved placement must put something on host 2.
        let uses_h2 = (0..3).any(|pe| (0..2).any(|r| result.placement.host_of(pe, r) == HostId(2)));
        assert!(uses_h2, "search should spread onto the idle host");
        assert!(result.moves > 0);
        match (&result.initial_cost_rate, &result.final_cost_rate) {
            (Some(a), Some(b)) => assert!(b <= a),
            (None, Some(_)) => {} // became feasible: strict improvement
            other => panic!("unexpected cost pair {other:?}"),
        }
        assert!(matches!(
            result.report.outcome,
            Outcome::Optimal(_) | Outcome::Feasible(_)
        ));
    }

    #[test]
    fn search_is_a_no_op_on_balanced_placements() {
        // A generated balanced placement should already be a local optimum
        // or close: the search must terminate and never regress.
        let gen = laar_gen_stub();
        let result =
            optimize_placement(&gen.0, &gen.1, 0.45, &PlacementSearchConfig::default()).unwrap();
        if let (Some(a), Some(b)) = (result.initial_cost_rate, result.final_cost_rate) {
            assert!(b <= a + 1e-9);
        }
    }

    /// A small balanced instance built inline (laar-gen depends on this
    /// crate, so tests here cannot use the generator).
    fn laar_gen_stub() -> (Application, Placement) {
        let (app, _) = lopsided();
        let hosts = Placement::uniform_hosts(3, 1000.0);
        let assignment = vec![
            HostId(0),
            HostId(1),
            HostId(1),
            HostId(2),
            HostId(2),
            HostId(0),
        ];
        let placement = Placement::new(app.graph(), 2, hosts, assignment).unwrap();
        (app, placement)
    }
}

//! Soundness of the deterministic engine's bounds — the IC-deficit cover
//! bound, CPU forward checking, the root presolve and the penalty
//! objective's node bound — pinned from outside the solver: a brute-force
//! oracle that knows only the public constraint checks, the cost function
//! and the IC evaluator must agree with every verdict and optimum, under
//! the hard objective and under the penalty one at three rates, and two
//! hand-built instances isolate the cover bound and forward checking (each
//! proves in fewer nodes than the engine before them did, with the verdict
//! and optimum of the ablated search).

use laar_core::ftsearch::{
    solve, solve_with_warm_start, FtSearchConfig, Objective, Outcome, PruneKind, SearchMode,
    SearchReport,
};
use laar_core::problem::FEASIBILITY_EPS;
use laar_core::{PessimisticFailure, Problem, Solution};
use laar_gen::GenParams;
use laar_model::{
    ActivationStrategy, Application, ConfigId, ConfigSpace, GraphBuilder, Host, HostId, Placement,
};
use proptest::prelude::*;

/// What exhaustive enumeration of all `3^(|P|·|C|)` strategies finds.
struct Oracle {
    /// Some strategy satisfies eqs. 11–12 (CPU fit, one replica active).
    cpu_feasible: bool,
    /// Cheapest cost over the strategies with no violation at all.
    best_cost: Option<f64>,
    /// Per penalty rate asked for, the least [`penalized`] objective over
    /// the CPU-feasible strategies.
    best_penalized: Vec<Option<f64>>,
}

/// The penalty objective in cycles over the billing period:
/// `cost + λ·max(0, goal·BIC − FIC)`.
fn penalized(p: &Problem, lambda: f64, cost: f64, fic: f64) -> f64 {
    cost + lambda * (p.ic_requirement * p.ic_evaluator().bic() - fic).max(0.0)
}

/// [`penalized`] of a strategy the solver returned.
fn solution_penalized(p: &Problem, lambda: f64, sol: &Solution) -> f64 {
    let fic = p.ic_evaluator().fic(&sol.strategy, &PessimisticFailure);
    penalized(p, lambda, sol.cost_cycles, fic)
}

/// One pass over every strategy: eq. 12 holds by construction, eq. 11 is
/// checked first, and only the strategies that fit the cluster are
/// evaluated for cost and FIC (for eq. 10 and the penalty objectives).
fn oracle(p: &Problem, lambdas: &[f64]) -> Oracle {
    let (np, nq) = (p.num_pes(), p.num_configs());
    let cells = np * nq;
    assert!(cells <= 12, "oracle enumerates 3^{cells} strategies");
    let cm = p.cost_model();
    let ev = p.ic_evaluator();
    let mut out = Oracle {
        cpu_feasible: false,
        best_cost: None,
        best_penalized: vec![None; lambdas.len()],
    };
    let keep_min = |slot: &mut Option<f64>, x: f64| *slot = Some(slot.map_or(x, |b| b.min(x)));
    for code in 0..3usize.pow(cells as u32) {
        let mut s = ActivationStrategy::all_inactive(np, nq, 2);
        let mut rem = code;
        for pe in 0..np {
            for c in 0..nq {
                let cid = ConfigId(c as u32);
                match rem % 3 {
                    0 => s.set_active(pe, cid, 0, true),
                    1 => s.set_active(pe, cid, 1, true),
                    _ => {
                        s.set_active(pe, cid, 0, true);
                        s.set_active(pe, cid, 1, true);
                    }
                }
                rem /= 3;
            }
        }
        if cm.check_no_overload(&s).is_err() {
            continue;
        }
        out.cpu_feasible = true;
        let cost = cm.cost_cycles(&s);
        let fic = ev.fic(&s, &PessimisticFailure);
        // `Problem::check`'s eq. 10 test, on the FIC already in hand.
        let ic = if ev.bic() == 0.0 { 1.0 } else { fic / ev.bic() };
        if ic >= p.ic_requirement * (1.0 - FEASIBILITY_EPS) {
            keep_min(&mut out.best_cost, cost);
        }
        for (slot, &lambda) in out.best_penalized.iter_mut().zip(lambdas) {
            keep_min(slot, penalized(p, lambda, cost, fic));
        }
    }
    out
}

/// `report` under the penalty objective at `lambda` (the oracle's
/// `lambda_index`-th rate) against the brute-force optimum.
fn assert_penalty_matches_oracle(
    p: &Problem,
    report: &SearchReport,
    oracle: &Oracle,
    lambda_index: usize,
    lambda: f64,
    what: &str,
) {
    assert!(report.stats.proved, "{what}: small instances must prove");
    match (&report.outcome, oracle.best_penalized[lambda_index]) {
        (Outcome::Optimal(sol), Some(best)) => {
            let got = solution_penalized(p, lambda, sol);
            assert!(
                (got - best).abs() <= 1e-8 * best.max(1.0),
                "{what}: objective {got} vs brute force {best}"
            );
            assert!(
                p.cost_model().check_no_overload(&sol.strategy).is_ok(),
                "{what}"
            );
        }
        (Outcome::Infeasible, None) => {}
        (o, b) => panic!("{what}: {} vs brute force {b:?}", o.label()),
    }
}

fn assert_matches_oracle(p: &Problem, report: &SearchReport, oracle: &Oracle, what: &str) {
    assert!(report.stats.proved, "{what}: small instances must prove");
    match (&report.outcome, oracle.best_cost) {
        (Outcome::Optimal(sol), Some(best)) => {
            assert!(
                (sol.cost_cycles - best).abs() <= 1e-9 * best.max(1.0),
                "{what}: cost {} vs brute force {best}",
                sol.cost_cycles
            );
            assert!(p.is_feasible(&sol.strategy), "{what}: returned strategy");
        }
        (Outcome::Infeasible, None) => {}
        (o, b) => panic!("{what}: {} vs brute force {b:?}", o.label()),
    }
    if let Some(rc) = &report.stats.root_conflict {
        assert_eq!(
            report.stats.nodes, 0,
            "{what}: a root verdict searches nothing"
        );
        assert!(
            !oracle.cpu_feasible,
            "{what}: root conflict {rc:?} but a CPU-feasible strategy exists"
        );
        // The verdict recomputes from the descriptor: one comparison a host.
        let load = p.rates().pe_input_load(rc.pe, rc.config);
        assert_eq!(load, rc.load);
        for r in 0..2 {
            let host = p.placement.host_of(rc.pe, r);
            assert_eq!(host, rc.hosts[r]);
            let capacity = p.placement.hosts()[host.index()].capacity;
            assert_eq!(capacity, rc.capacities[r]);
            assert!(load >= capacity);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On instances small enough to enumerate, the default solver, a
    /// two-worker CP portfolio and the ablations of the two switches the
    /// new bounds sit under return the brute-force verdict and optimum.
    #[test]
    fn solver_agrees_with_brute_force(
        seed in any::<u64>(),
        np in 2usize..=6,
        nh in 2usize..=3,
        ic_step in 3u32..=9,
        // Hottest all-active host at High: the higher, the more often one
        // replica alone overloads a host (root conflicts, forward checking).
        high_util in 1.05f64..2.0,
    ) {
        let gen = laar_gen::generator::generate_app(
            &GenParams {
                num_pes: np,
                num_hosts: nh,
                high_util_target: high_util,
                min_rate_ratio: 0.0,
                duration: 30.0,
                ..GenParams::default()
            },
            seed,
        );
        let p = Problem::new(gen.app, gen.placement, f64::from(ic_step) / 10.0).unwrap();
        // λ = 0 prices the IC at nothing, 10⁶ above any cost per tuple, and
        // the mean price of FIC (single-replica cost over BIC) in between.
        let all_active = ActivationStrategy::all_active(p.num_pes(), p.num_configs(), 2);
        let mid = p.cost_model().cost_cycles(&all_active) / (2.0 * p.ic_evaluator().bic());
        let lambdas = [0.0, mid, 1e6];
        let truth = oracle(&p, &lambdas);
        let full = solve(&p, &FtSearchConfig::default()).unwrap();
        assert_matches_oracle(&p, &full, &truth, "solve");
        let portfolio = FtSearchConfig {
            mode: SearchMode::Portfolio,
            threads: 2,
            ..FtSearchConfig::default()
        };
        let par = solve(&p, &portfolio).unwrap();
        assert_matches_oracle(&p, &par, &truth, "portfolio");
        for (prune_cpu, prune_cost) in [(false, true), (true, false)] {
            let opts = FtSearchConfig { prune_cpu, prune_cost, ..FtSearchConfig::default() };
            let ablated = solve(&p, &opts).unwrap();
            prop_assert!(prune_cpu || ablated.stats.root_conflict.is_none());
            assert_matches_oracle(&p, &ablated, &truth, "ablated solve");
        }
        for (i, &lambda) in lambdas.iter().enumerate() {
            let penalty = FtSearchConfig {
                objective: Objective::Penalty(lambda),
                ..FtSearchConfig::default()
            };
            let report = solve(&p, &penalty).unwrap();
            assert_penalty_matches_oracle(&p, &report, &truth, i, lambda, "penalty");
            if i == 1 {
                let par = solve(&p, &FtSearchConfig { objective: penalty.objective, ..portfolio.clone() })
                    .unwrap();
                assert_penalty_matches_oracle(&p, &par, &truth, i, lambda, "portfolio penalty");
                let cp = solve(&p, &FtSearchConfig { mode: SearchMode::Portfolio, ..penalty })
                    .unwrap();
                assert_penalty_matches_oracle(&p, &cp, &truth, i, lambda, "cp penalty");
            }
            // At 10⁶ the penalty optimum is the hard one wherever that exists.
            if let (2, Some(hard), Some(sol)) = (i, truth.best_cost, report.outcome.solution()) {
                prop_assert!(
                    (sol.cost_cycles - hard).abs() <= 1e-9 * hard.max(1.0),
                    "λ = 10⁶: cost {} vs hard optimum {hard}",
                    sol.cost_cycles
                );
            }
        }
    }
}

/// `src -> pe_i -> sink` for every `i`: independent PEs (selectivity 1, so
/// every `(PE, config)` carries the same IC weight within a configuration),
/// `costs[i]` cycles per tuple, replicas on `hosts[i]`, source at 0.5 t/s
/// (p = 0.75) or 1 t/s (p = 0.25) — the load of one replica at High is its
/// cost.
fn fan_problem(costs: &[f64], hosts: &[(u32, u32)], capacities: &[f64], ic: f64) -> Problem {
    let mut b = GraphBuilder::new();
    let src = b.add_source("src");
    let sink = b.add_sink("sink");
    for (i, &cost) in costs.iter().enumerate() {
        let pe = b.add_pe(&format!("pe{i}"));
        b.connect(src, pe, 1.0, cost).unwrap();
        b.connect_sink(pe, sink).unwrap();
    }
    let g = b.build().unwrap();
    let cs = ConfigSpace::new(&g, vec![vec![0.5, 1.0]], vec![0.75, 0.25]).unwrap();
    let host_list = capacities
        .iter()
        .enumerate()
        .map(|(i, &capacity)| Host {
            id: HostId(i as u32),
            name: format!("h{i}"),
            capacity,
        })
        .collect();
    let assignment = hosts
        .iter()
        .flat_map(|&(h0, h1)| [HostId(h0), HostId(h1)])
        .collect();
    let placement = Placement::new(&g, 2, host_list, assignment).unwrap();
    let app = Application::new("fan", g, cs, 300.0).unwrap();
    Problem::new(app, placement, ic).unwrap()
}

fn optimum(report: &SearchReport) -> Option<f64> {
    assert!(report.stats.proved);
    report.outcome.solution().map(|s| s.cost_cycles)
}

/// Only the cover bound can act here: capacity is never short (no CPU
/// prune, no capacity removal, no root conflict), so against the engine
/// before it the whole drop in nodes is COST cuts the plain
/// singles-everywhere bound could not make.
#[test]
fn cover_bound_alone_shrinks_the_proof() {
    // Nodes of this proof at b0ecb24, the commit before the cover bound.
    const NODES_BEFORE: u64 = 54_033;
    let costs = [10.0, 35.0, 20.0, 50.0, 15.0, 40.0];
    let p = fan_problem(&costs, &[(0, 1); 6], &[1e6, 1e6], 0.6);
    let full = solve(&p, &FtSearchConfig::default()).unwrap();
    assert_eq!(full.outcome.label(), "BST");
    assert_eq!(full.stats.prunes[PruneKind::Cpu.index()], 0);
    assert!(full.stats.prunes[PruneKind::Cost.index()] > 0);
    assert!(full.stats.root_conflict.is_none());
    assert!(
        full.stats.nodes < NODES_BEFORE,
        "{} nodes, {NODES_BEFORE} without the cover bound",
        full.stats.nodes
    );
    // The optimum is the one the search finds with no COST cut at all.
    let no_cost = solve(
        &p,
        &FtSearchConfig {
            prune_cost: false,
            ..FtSearchConfig::default()
        },
    )
    .unwrap();
    assert_eq!(no_cost.stats.prunes[PruneKind::Cost.index()], 0);
    assert!(no_cost.stats.nodes > full.stats.nodes);
    assert_eq!(optimum(&full), optimum(&no_cost));
}

/// Only forward checking can act here: at IC 0 there is no deficit to cover
/// and nothing for COMPL to cut, and no PE is too big for its hosts on its
/// own. Three 30-cycle PEs and one 50-cycle PE share two 70-cycle hosts —
/// however the 90 cycles split, the 50 fit on neither side — but the plain
/// search only finds out at the big PE, below every combination of the two
/// PEs on the roomy hosts in between.
#[test]
fn forward_checking_alone_shrinks_the_proof() {
    // Nodes of this proof at b0ecb24, the commit before forward checking.
    const NODES_BEFORE: u64 = 392;
    let costs = [30.0, 30.0, 30.0, 1.0, 1.0, 50.0];
    let mut hosts = [(0, 1); 6];
    hosts[3..5].fill((2, 3));
    let p = fan_problem(&costs, &hosts, &[70.0, 70.0, 1e6, 1e6], 0.0);
    let full = solve(&p, &FtSearchConfig::default()).unwrap();
    assert_eq!(full.outcome.label(), "NUL");
    assert!(full.stats.root_conflict.is_none());
    assert!(full.stats.prunes[PruneKind::Cpu.index()] > 0);
    assert_eq!(full.stats.prunes[PruneKind::Compl.index()], 0);
    assert_eq!(full.stats.prunes[PruneKind::Cost.index()], 0);
    assert!(
        full.stats.nodes < NODES_BEFORE,
        "{} nodes, {NODES_BEFORE} without forward checking",
        full.stats.nodes
    );
    // Same verdict when overloads are only caught at the leaves.
    let no_cpu = solve(
        &p,
        &FtSearchConfig {
            prune_cpu: false,
            ..FtSearchConfig::default()
        },
    )
    .unwrap();
    assert_eq!(no_cpu.stats.prunes[PruneKind::Cpu.index()], 0);
    assert_eq!(no_cpu.outcome.label(), "NUL");
    assert!(no_cpu.stats.proved);
}

/// A PE whose single replica fits on neither host: every entry point
/// returns its infeasible verdict with zero nodes and the same conflict.
#[test]
fn root_conflict_ends_every_entry_point_at_the_root() {
    // 80 cycles at High on two 70-cycle hosts; 40 at Low fits.
    let p = fan_problem(&[80.0, 5.0], &[(0, 1); 2], &[70.0, 70.0], 0.3);
    let det = FtSearchConfig::default();
    let cp = FtSearchConfig {
        mode: SearchMode::Portfolio,
        ..FtSearchConfig::default()
    };
    let warm = ActivationStrategy::all_active(2, 2, 2);
    let reports = [
        ("solve", solve(&p, &det)),
        (
            "solve_with_warm_start",
            solve_with_warm_start(&p, &det, Some(&warm)),
        ),
        ("solve (cp)", solve(&p, &cp)),
        (
            "solve (portfolio)",
            solve(
                &p,
                &FtSearchConfig {
                    threads: 2,
                    ..cp.clone()
                },
            ),
        ),
        (
            "solve (penalty)",
            solve(
                &p,
                &FtSearchConfig {
                    objective: Objective::Penalty(1e6),
                    ..FtSearchConfig::default()
                },
            ),
        ),
    ];
    for (what, report) in reports {
        let report = report.unwrap();
        assert_eq!(report.outcome.label(), "NUL", "{what}");
        assert!(report.stats.proved, "{what}");
        assert_eq!(report.stats.nodes, 0, "{what}");
        let rc = report.stats.root_conflict.expect(what);
        assert_eq!(
            (rc.pe, rc.config, rc.load),
            (0, ConfigId(1), 80.0),
            "{what}"
        );
        assert_eq!(rc.hosts, [HostId(0), HostId(1)], "{what}");
        assert_eq!(rc.capacities, [70.0, 70.0], "{what}");
    }
    // `prune_cpu = false` switches the presolve off with the rest of the CPU
    // reasoning; the search reaches the same verdict the long way.
    let no_cpu = solve(
        &p,
        &FtSearchConfig {
            prune_cpu: false,
            ..FtSearchConfig::default()
        },
    )
    .unwrap();
    assert_eq!(no_cpu.outcome.label(), "NUL");
    assert!(no_cpu.stats.root_conflict.is_none());
    assert!(no_cpu.stats.nodes > 0);
}

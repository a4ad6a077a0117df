//! Cross-crate integration tests for the features built beyond the paper:
//! alternative failure models, the penalty objective of FT-Search,
//! placement search, descriptor profiling, latency measurement, and Poisson
//! arrivals.

use laar::prelude::*;
use laar_core::ftsearch::Objective;
use laar_core::ic::{HostDown, IndependentFailure};
use laar_core::{optimize_placement, PlacementSearchConfig};
use laar_dsps::profiler::profile_application;
use laar_dsps::ArrivalProcess;
use std::time::Duration;

fn gen(seed: u64) -> GeneratedApp {
    laar_gen::generator::generate_app(
        &GenParams {
            num_pes: 6,
            num_hosts: 3,
            duration: 40.0,
            ..GenParams::default()
        },
        seed,
    )
}

#[test]
fn failure_model_hierarchy_on_generated_apps() {
    for seed in [1u64, 2] {
        let g = gen(seed);
        let problem = Problem::new(g.app.clone(), g.placement.clone(), 0.5).unwrap();
        let report = ftsearch::solve(
            &problem,
            &FtSearchConfig::with_time_limit(Duration::from_secs(10)),
        )
        .unwrap();
        let Some(sol) = report.outcome.solution() else {
            continue;
        };
        let ev = problem.ic_evaluator();
        let pess = ev.ic(&sol.strategy, &PessimisticFailure);
        // Realistic availabilities sit far above the worst-case bound.
        let ind = ev.ic(&sol.strategy, &IndependentFailure::new(0.02));
        assert!(ind >= pess, "independent {ind} < pessimistic {pess}");
        // A single host crash can never be worse than losing a replica of
        // every PE (replicas sit on distinct hosts): the worst host's IC
        // lies between the pessimistic bound and every host's IC, and none
        // exceeds 1.
        assert!(problem.placement.num_hosts() > 1);
        let per_host: Vec<f64> = (0..problem.placement.num_hosts())
            .map(|h| ev.ic(&sol.strategy, &HostDown::new(&problem.placement, h)))
            .collect();
        let worst = per_host.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            worst >= pess - 1e-9,
            "worst host {worst} < pessimistic {pess}"
        );
        for ic in per_host {
            assert!(
                worst <= ic && ic <= 1.0 + 1e-9,
                "host IC {ic}, worst {worst}"
            );
        }
    }
}

#[test]
fn soft_solver_sweeps_the_cost_ic_frontier() {
    let g = gen(3);
    let problem = Problem::new(g.app.clone(), g.placement.clone(), 0.7).unwrap();
    let zero_goal = Problem::new(g.app.clone(), g.placement.clone(), 0.0).unwrap();
    let mut last_ic = -1.0;
    let mut last_cost = -1.0;
    for lambda in [0.0, 10.0, 1e3, 1e8] {
        let opts = FtSearchConfig {
            objective: Objective::Penalty(lambda),
            ..FtSearchConfig::with_time_limit(Duration::from_secs(15))
        };
        let report = ftsearch::solve(&problem, &opts).unwrap();
        assert_eq!(
            report.outcome.label(),
            "BST",
            "λ = {lambda} proves on 6 PEs"
        );
        let sol = report.outcome.solution().unwrap();
        // Raising the penalty never lowers the achieved IC or the cost.
        assert!(sol.ic >= last_ic - 1e-9, "λ = {lambda}");
        assert!(sol.cost_cycles >= last_cost - 1e-9, "λ = {lambda}");
        last_ic = sol.ic;
        last_cost = sol.cost_cycles;
        // The strategy always satisfies the CPU constraints (eqs. 11–12).
        assert!(zero_goal.is_feasible(&sol.strategy), "λ = {lambda}");
    }
}

#[test]
fn placement_search_never_regresses_on_generated_apps() {
    let g = gen(4);
    let result = optimize_placement(
        &g.app,
        &g.placement,
        0.5,
        &PlacementSearchConfig {
            max_sweeps: 2,
            ..PlacementSearchConfig::default()
        },
    )
    .unwrap();
    match (result.initial_cost_rate, result.final_cost_rate) {
        (Some(a), Some(b)) => assert!(b <= a + 1e-9, "regressed {a} -> {b}"),
        (None, _) => {} // initial infeasible: any outcome is fine
        (Some(_), None) => panic!("search lost feasibility"),
    }
}

#[test]
fn profiler_validates_generated_contracts() {
    let g = gen(5);
    let estimates = profile_application(&g.app, &g.placement, 3, 40.0);
    assert_eq!(estimates.len(), 6);
    for e in estimates {
        if e.identifiable {
            let err = laar_dsps::profiler::descriptor_error(&g.app, &e);
            assert!(err < 0.15, "pe {}: err {err}", e.pe_dense);
        } else {
            // Effective values must still be finite and positive.
            assert!(e.selectivity.iter().all(|x| x.is_finite() && *x >= 0.0));
            assert!(e.cpu_cost.iter().all(|x| x.is_finite() && *x >= 0.0));
        }
    }
}

#[test]
fn latency_grows_under_poisson_burstiness() {
    // Same mean rates; Poisson arrivals create queueing bursts, so latency
    // quantiles must not shrink relative to deterministic spacing.
    let g = gen(6);
    let trace = InputTrace::constant(&[g.low_rate], 40.0);
    let np = g.app.graph().num_pes();
    let run = |arrivals: ArrivalProcess| {
        Simulation::new(
            &g.app,
            &g.placement,
            ActivationStrategy::all_active(np, 2, 2),
            &trace,
            FailurePlan::None,
            SimConfig {
                arrivals,
                ..SimConfig::default()
            },
        )
        .run()
    };
    let det = run(ArrivalProcess::Deterministic);
    let poi = run(ArrivalProcess::Poisson { seed: 11 });
    assert!(det.latency.count > 0 && poi.latency.count > 0);
    assert!(
        poi.latency.quantile(0.99) >= det.latency.quantile(0.99) * 0.8,
        "poisson p99 {} vs deterministic {}",
        poi.latency.quantile(0.99),
        det.latency.quantile(0.99)
    );
    // Total volume is comparable (same mean rate).
    let ratio = poi.source_emitted[0] as f64 / det.source_emitted[0] as f64;
    assert!((0.8..1.2).contains(&ratio), "volume ratio {ratio}");
}

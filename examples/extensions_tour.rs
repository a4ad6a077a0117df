//! A tour of the features built beyond the paper — its three stated
//! future-work directions (§6) plus descriptor profiling and latency
//! measurement:
//!
//! 1. alternative failure models giving tighter IC estimates than the
//!    pessimistic bound;
//! 2. the penalty (soft-constraint) optimization mode pricing SLA
//!    violations instead of refusing contracts;
//! 3. replica-placement local search interacting with the activation
//!    optimizer;
//! 4. contract validation by profiling (re-estimating δ/γ from probe runs);
//! 5. end-to-end latency percentiles from the simulator.
//!
//! Run with: `cargo run --release --example extensions_tour`

use laar::prelude::*;
use laar_core::ftsearch::Objective;
use laar_core::ic::{HostDown, IndependentFailure};
use laar_core::{optimize_placement, PlacementSearchConfig};
use laar_dsps::profiler::profile_application;
use std::time::Duration;

fn main() {
    let gen = laar_gen::generator::generate_app(
        &GenParams {
            num_pes: 8,
            num_hosts: 3,
            ..GenParams::default()
        },
        10,
    );
    let problem = Problem::new(gen.app.clone(), gen.placement.clone(), 0.6).unwrap();
    let report = ftsearch::solve(
        &problem,
        &FtSearchConfig::with_time_limit(Duration::from_secs(20)),
    )
    .unwrap();
    let solution = report.outcome.solution().expect("feasible").clone();
    println!(
        "base strategy: IC bound {:.3} (pessimistic), cost {:.1}\n",
        solution.ic, solution.cost_cycles
    );

    // --- 1. Alternative failure models. ----------------------------------
    let ev = problem.ic_evaluator();
    println!("IC of the same strategy under different failure models:");
    println!("  pessimistic (eq. 14)       : {:.3}", solution.ic);
    for p_down in [0.01, 0.05, 0.10] {
        println!(
            "  independent, p_down = {p_down:<4}: {:.3}",
            ev.ic(&solution.strategy, &IndependentFailure::new(p_down))
        );
    }
    let worst_host = (0..problem.placement.num_hosts())
        .map(|h| ev.ic(&solution.strategy, &HostDown::new(&problem.placement, h)))
        .fold(f64::INFINITY, f64::min);
    println!("  worst single-host crash    : {worst_host:.3}");

    // --- 2. The penalty model (soft constraints). -------------------------
    println!("\npenalty solves (λ per missing FIC tuple/s, goal IC 0.9 — infeasible hard):");
    let hard = Problem::new(gen.app.clone(), gen.placement.clone(), 0.9).unwrap();
    let bic_rate = hard.ic_evaluator().bic() / gen.app.billing_period();
    for lambda in [0.0, 100.0, 10_000.0] {
        let opts = FtSearchConfig {
            objective: Objective::Penalty(lambda),
            ..FtSearchConfig::with_time_limit(Duration::from_secs(20))
        };
        let report = ftsearch::solve(&hard, &opts).unwrap();
        match report.outcome.solution() {
            Some(s) => println!(
                "  λ = {lambda:>7}: {} cost {:>8.1}, IC {:.3}, shortfall {:.2} t/s",
                report.outcome.label(),
                s.cost_cycles,
                s.ic,
                (0.9 - s.ic).max(0.0) * bic_rate
            ),
            None => println!("  λ = {lambda:>7}: {}", report.outcome.label()),
        }
    }

    // --- 3. Placement interaction. ----------------------------------------
    // Deliberately worsen the placement by stacking onto two hosts, then
    // let the local search repair it.
    let np = gen.app.graph().num_pes();
    let stacked: Vec<HostId> = (0..np).flat_map(|_| [HostId(0), HostId(1)]).collect();
    let bad = Placement::new(gen.app.graph(), 2, gen.placement.hosts().to_vec(), stacked).unwrap();
    let result =
        optimize_placement(&gen.app, &bad, 0.5, &PlacementSearchConfig::default()).unwrap();
    println!(
        "\nplacement search: initial cost {:?}, final cost {:?} after {} moves ({})",
        result.initial_cost_rate,
        result.final_cost_rate,
        result.moves,
        result.report.outcome.label()
    );

    // --- 4. Descriptor profiling. ------------------------------------------
    let estimates = profile_application(&gen.app, &gen.placement, 3, 40.0);
    let identifiable = estimates.iter().filter(|e| e.identifiable).count();
    println!(
        "\nprofiling re-estimated {identifiable}/{} PE descriptors exactly \
         (fan-in PEs fed proportionally by one source fall back to effective values)",
        estimates.len()
    );

    // --- 5. Latency measurement. --------------------------------------------
    let trace = InputTrace::low_high_centered(gen.low_rate, gen.high_rate, 120.0, gen.p_high());
    let metrics = Simulation::new(
        &gen.app,
        &gen.placement,
        solution.strategy.clone(),
        &trace,
        FailurePlan::None,
        SimConfig {
            arrivals: laar_dsps::ArrivalProcess::Poisson { seed: 3 },
            ..SimConfig::default()
        },
    )
    .run();
    println!(
        "\nend-to-end latency under Poisson arrivals: mean {:.0} ms, p50 {:.0} ms, \
         p99 {:.0} ms, max {:.0} ms ({} samples)",
        1e3 * metrics.latency.mean(),
        1e3 * metrics.latency.quantile(0.5),
        1e3 * metrics.latency.quantile(0.99),
        1e3 * metrics.latency.max,
        metrics.latency.count
    );
}

//! A tour of the FT-Search optimizer (§4.5) on generated instances:
//! outcomes across IC constraints, pruning-strategy accounting, incumbent
//! seeding, and the penalty objective — everything observable about the
//! optimization layer in one run.
//!
//! Run with: `cargo run --release --example solver_tour`

use laar::prelude::*;
use laar_core::ftsearch::{solve, Objective, PruneKind};
use std::time::Duration;

fn main() {
    // A mid-size generated instance: 10 PEs over 3 hosts.
    let gen = laar_gen::generator::generate_app(
        &GenParams {
            num_pes: 10,
            num_hosts: 3,
            ..GenParams::default()
        },
        2024,
    );
    println!(
        "instance: {} PEs, {} hosts, rates {:.1}/{:.1} t/s, avg out-degree {:.2}\n",
        gen.app.graph().num_pes(),
        gen.placement.num_hosts(),
        gen.low_rate,
        gen.high_rate,
        gen.app.graph().average_out_degree()
    );

    // --- Outcomes across the IC sweep (Fig. 4 in miniature). -------------
    println!("IC sweep (FT-Search, 10 s limit):");
    println!(
        "{:>4} {:>8} {:>14} {:>12} {:>10}",
        "IC", "outcome", "cost", "IC achieved", "nodes"
    );
    for ic in [0.5, 0.6, 0.7, 0.8, 0.9] {
        let problem = Problem::new(gen.app.clone(), gen.placement.clone(), ic).unwrap();
        let report = solve(
            &problem,
            &FtSearchConfig::with_time_limit(Duration::from_secs(10)),
        )
        .unwrap();
        match report.outcome.solution() {
            Some(sol) => println!(
                "{ic:>4.1} {:>8} {:>14.1} {:>12.3} {:>10}",
                report.outcome.label(),
                sol.cost_cycles,
                sol.ic,
                report.stats.nodes
            ),
            None => println!(
                "{ic:>4.1} {:>8} {:>14} {:>12} {:>10}",
                report.outcome.label(),
                "-",
                "-",
                report.stats.nodes
            ),
        }
    }

    // --- Pruning accounting on one cold solve (Fig. 6 in miniature). -----
    let problem = Problem::new(gen.app.clone(), gen.placement.clone(), 0.6).unwrap();
    let cold = FtSearchConfig {
        seed_incumbent: false,
        ..FtSearchConfig::with_time_limit(Duration::from_secs(30))
    };
    let report = solve(&problem, &cold).unwrap();
    println!(
        "\npruning on the cold IC 0.6 solve ({} nodes, {}):",
        report.stats.nodes,
        report.outcome.label()
    );
    for kind in PruneKind::ALL {
        println!(
            "  {:<5}: {:>10} events ({:>5.1} % of prunes), avg height {:>6.1}",
            kind.label(),
            report.stats.prunes[kind.index()],
            100.0 * report.stats.prune_share(kind),
            report.stats.avg_prune_height(kind)
        );
    }
    if let (Some(c), Some(t)) = (
        report.stats.first_to_best_cost_ratio(),
        report.stats.first_to_best_time_ratio(),
    ) {
        println!(
            "  first/optimal cost ratio {c:.3} (paper mean 1.057), \
             time ratio {t:.3} (paper mean 0.37)"
        );
    }

    // --- Seeding and the penalty objective (extensions). -----------------
    let seeded = solve(
        &problem,
        &FtSearchConfig::with_time_limit(Duration::from_secs(30)),
    )
    .unwrap();
    println!(
        "\nwith greedy incumbent seeding: {} nodes ({} cold)",
        seeded.stats.nodes, report.stats.nodes
    );
    // A penalty steep enough that no saving pays for any IC shortfall
    // lands on the hard optimum.
    let steep = solve(
        &problem,
        &FtSearchConfig {
            objective: Objective::Penalty(1e8),
            ..FtSearchConfig::with_time_limit(Duration::from_secs(30))
        },
    )
    .unwrap();
    match (seeded.outcome.solution(), steep.outcome.solution()) {
        (Some(a), Some(b)) => {
            println!(
                "penalty objective at λ = 1e8 agrees: cost {:.1} vs {:.1} in {} nodes",
                b.cost_cycles, a.cost_cycles, steep.stats.nodes
            );
            assert!((a.cost_cycles - b.cost_cycles).abs() < 1e-6 * a.cost_cycles.max(1.0));
        }
        _ => println!("penalty objective: {}", steep.outcome.label()),
    }
}

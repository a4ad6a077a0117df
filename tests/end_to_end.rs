//! Cross-crate integration tests: the full LAAR pipeline — generate an
//! application, compute strategies, validate them analytically, simulate
//! them on the cluster, and check the measured behaviour against the
//! paper's guarantees.

use laar::prelude::*;
use laar_experiments::build_variants;
use std::time::Duration;

fn small_gen(seed: u64) -> GeneratedApp {
    laar_gen::generator::generate_app(
        &GenParams {
            num_pes: 8,
            num_hosts: 3,
            duration: 60.0,
            ..GenParams::default()
        },
        seed,
    )
}

#[test]
fn generated_apps_solve_and_satisfy_constraints() {
    for seed in [1u64, 2, 3] {
        let gen = small_gen(seed);
        for ic_req in [0.5, 0.7] {
            let problem = Problem::new(gen.app.clone(), gen.placement.clone(), ic_req).unwrap();
            let report = ftsearch::solve(
                &problem,
                &FtSearchConfig::with_time_limit(Duration::from_secs(10)),
            )
            .unwrap();
            if let Some(sol) = report.outcome.solution() {
                assert!(
                    problem.is_feasible(&sol.strategy),
                    "seed {seed} ic {ic_req}: {:?}",
                    problem.check(&sol.strategy)
                );
                assert!(sol.ic >= ic_req - 1e-9);
            }
        }
    }
}

#[test]
fn variant_cost_ordering_holds_end_to_end() {
    // Seed chosen so every variant (including the IC 0.7 SLA) is feasible.
    let gen = small_gen(6);
    let set = build_variants(&gen.app, &gen.placement, Duration::from_secs(10)).expect("solvable");
    let problem = Problem::new(gen.app.clone(), gen.placement.clone(), 0.0).unwrap();
    let cm = problem.cost_model();
    let cost = |k: VariantKind| cm.cost_cycles(&set.get(k).strategy);
    assert!(cost(VariantKind::NonReplicated) <= cost(VariantKind::Laar05) + 1e-9);
    assert!(cost(VariantKind::Laar05) <= cost(VariantKind::Laar06) + 1e-9);
    assert!(cost(VariantKind::Laar06) <= cost(VariantKind::Laar07) + 1e-9);
    assert!(cost(VariantKind::Laar07) <= cost(VariantKind::StaticReplication) + 1e-9);
    assert!(cost(VariantKind::Greedy) <= cost(VariantKind::StaticReplication) + 1e-9);
}

#[test]
fn simulated_worst_case_respects_analytic_bound() {
    // Seed chosen so build_variants succeeds and the bound is exercised.
    let gen = small_gen(9);
    let Ok(set) = build_variants(&gen.app, &gen.placement, Duration::from_secs(10)) else {
        return; // genuinely infeasible seed: nothing to verify
    };
    let trace = InputTrace::low_high_centered(
        gen.low_rate,
        gen.high_rate,
        gen.app.billing_period(),
        gen.p_high(),
    );
    let nr = set.get(VariantKind::NonReplicated);
    let reference = Simulation::new(
        &gen.app,
        &gen.placement,
        nr.strategy.clone(),
        &trace,
        FailurePlan::None,
        SimConfig::default(),
    )
    .run()
    .total_processed() as f64;
    assert!(reference > 0.0);

    for kind in [
        VariantKind::Laar05,
        VariantKind::Laar06,
        VariantKind::Laar07,
    ] {
        let entry = set.get(kind);
        let plan = FailurePlan::worst_case(&gen.app, &entry.strategy);
        let worst = Simulation::new(
            &gen.app,
            &gen.placement,
            entry.strategy.clone(),
            &trace,
            plan,
            SimConfig::default(),
        )
        .run();
        let measured = worst.total_processed() as f64 / reference;
        assert!(
            measured >= entry.guaranteed_ic - 0.08,
            "{}: measured {measured:.3} vs bound {:.3}",
            kind.label(),
            entry.guaranteed_ic
        );
    }
}

#[test]
fn static_replication_survives_worst_case_fully() {
    let gen = small_gen(6);
    let np = gen.app.graph().num_pes();
    let sr = ActivationStrategy::all_active(np, 2, 2);
    let trace = InputTrace::low_high_centered(gen.low_rate, gen.high_rate, 60.0, gen.p_high());
    let plan = FailurePlan::worst_case(&gen.app, &sr);
    let worst = Simulation::new(
        &gen.app,
        &gen.placement,
        sr.clone(),
        &trace,
        plan,
        SimConfig::default(),
    )
    .run();
    let clean = Simulation::new(
        &gen.app,
        &gen.placement,
        sr,
        &trace,
        FailurePlan::None,
        SimConfig::default(),
    )
    .run();
    // With one replica of each PE left, SR halves the load: the survivors
    // keep processing nearly everything the clean run did.
    let ratio = worst.total_processed() as f64 / clean.total_processed().max(1) as f64;
    assert!(ratio > 0.85, "SR worst-case ratio {ratio}");
}

#[test]
fn controller_json_drives_same_simulation() {
    // Strategy serialized to the HAController JSON document and parsed back
    // must produce identical simulation results.
    let gen = small_gen(7);
    let Ok(set) = build_variants(&gen.app, &gen.placement, Duration::from_secs(10)) else {
        return;
    };
    let entry = set.get(VariantKind::Laar06);
    let doc = entry.strategy.to_controller_json(gen.app.graph());
    let parsed = ActivationStrategy::from_controller_json(gen.app.graph(), &doc).unwrap();
    assert_eq!(parsed, entry.strategy);

    let trace = InputTrace::low_high_centered(gen.low_rate, gen.high_rate, 40.0, gen.p_high());
    let run = |s: ActivationStrategy| {
        Simulation::new(
            &gen.app,
            &gen.placement,
            s,
            &trace,
            FailurePlan::None,
            SimConfig::default(),
        )
        .run()
    };
    let a = run(entry.strategy.clone());
    let b = run(parsed);
    assert_eq!(a.total_processed(), b.total_processed());
    assert_eq!(a.queue_drops, b.queue_drops);
}

#[test]
fn decomposed_and_monolithic_agree_on_generated_instances() {
    for seed in [11u64, 12] {
        let gen = laar_gen::generator::generate_app(
            &GenParams {
                num_pes: 6,
                num_hosts: 2,
                duration: 30.0,
                ..GenParams::default()
            },
            seed,
        );
        // A penalty steep enough that no cost saving pays for any IC
        // shortfall: where the hard problem is feasible the penalty
        // optimum is the hard one, label and cost.
        for ic in [0.5, 0.7] {
            let problem = Problem::new(gen.app.clone(), gen.placement.clone(), ic).unwrap();
            let hard_opts = FtSearchConfig::with_time_limit(Duration::from_secs(20));
            let hard = ftsearch::solve(&problem, &hard_opts).unwrap();
            let steep = ftsearch::solve(
                &problem,
                &FtSearchConfig {
                    objective: ftsearch::Objective::Penalty(1e8),
                    ..hard_opts
                },
            )
            .unwrap();
            let Some(a) = hard.outcome.solution() else {
                assert_eq!(hard.outcome.label(), "NUL", "seed {seed} ic {ic}");
                continue;
            };
            assert_eq!(
                hard.outcome.label(),
                steep.outcome.label(),
                "seed {seed} ic {ic}"
            );
            let b = steep.outcome.solution().unwrap();
            assert!(
                (a.cost_cycles - b.cost_cycles).abs() < 1e-6 * a.cost_cycles.max(1.0),
                "seed {seed} ic {ic}: {} vs {}",
                a.cost_cycles,
                b.cost_cycles
            );
            assert!(b.ic >= ic - 1e-9, "seed {seed} ic {ic}: {}", b.ic);
        }
    }
}

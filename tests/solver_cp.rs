//! Soundness and anytime properties of the CP-style engine
//! (`SearchMode::Portfolio`): nogood learning, activity-guided branching,
//! geometric restarts, and LNS must never change *what* is proved — only
//! how fast. On small random instances the CP engine and the legacy
//! deterministic branch-and-bound must agree exactly (same verdict, same
//! optimal cost, including proved infeasibility), and the sequential CP
//! run must be deterministic and monotonically non-worsening as its node
//! budget grows.

use laar_core::ftsearch::{
    solve, solve_with_warm_start, CpConfig, FtSearchConfig, Outcome, SearchMode,
};
use laar_core::{CoreError, Problem};
use laar_gen::GenParams;
use proptest::prelude::*;
use std::time::Duration;

fn make_problem(seed: u64, num_pes: usize, num_hosts: usize, ic: f64) -> Problem {
    let gen = laar_gen::generator::generate_app(
        &GenParams {
            num_pes,
            num_hosts,
            duration: 30.0,
            ..GenParams::default()
        },
        seed,
    );
    Problem::new(gen.app, gen.placement, ic).unwrap()
}

fn cp_opts() -> FtSearchConfig {
    FtSearchConfig {
        mode: SearchMode::Portfolio,
        time_limit: Duration::from_secs(60),
        ..FtSearchConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Nogood pruning is sound: with learning, restarts, and LNS all
    /// active, the CP engine proves the same verdict as the legacy exact
    /// search — identical optimal cost on feasible instances, and
    /// infeasibility agreement on infeasible ones.
    #[test]
    fn cp_engine_agrees_with_legacy_exact_search(
        seed in any::<u64>(),
        np in 3usize..8,
        nh in 2usize..4,
        ic in 0.0f64..0.9,
    ) {
        let p = make_problem(seed, np, nh, ic);
        let legacy = solve(&p, &FtSearchConfig::default()).unwrap();
        let cp = solve(&p, &cp_opts()).unwrap();
        prop_assert!(legacy.stats.proved, "legacy must prove small instances");
        prop_assert!(cp.stats.proved, "cp must prove small instances");
        match (&legacy.outcome, &cp.outcome) {
            (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                prop_assert!(
                    (a.cost_cycles - b.cost_cycles).abs() <= 1e-6 * a.cost_cycles.max(1.0),
                    "optimal cost mismatch: legacy {} vs cp {}",
                    a.cost_cycles,
                    b.cost_cycles
                );
                prop_assert!(b.ic >= p.ic_requirement - 1e-6);
            }
            (Outcome::Infeasible, Outcome::Infeasible) => {}
            (a, b) => prop_assert!(
                false,
                "verdict mismatch: legacy {} vs cp {}",
                a.label(),
                b.label()
            ),
        }
    }

    /// Every CP incumbent — whether found by tree descent, a restart, or
    /// an LNS round — is a feasible strategy meeting the IC requirement.
    #[test]
    fn cp_incumbents_are_always_feasible(
        seed in any::<u64>(),
        np in 3usize..8,
        nh in 2usize..4,
        ic in 0.0f64..0.9,
        budget in 64u64..4096,
    ) {
        let p = make_problem(seed, np, nh, ic);
        let report = solve(
            &p,
            &FtSearchConfig {
                node_limit: Some(budget),
                ..cp_opts()
            },
        )
        .unwrap();
        if let Some(sol) = report.outcome.solution() {
            prop_assert!(
                p.is_feasible(&sol.strategy),
                "violations: {:?}",
                p.check(&sol.strategy)
            );
            prop_assert!(sol.ic >= p.ic_requirement * (1.0 - 1e-6) - 1e-9);
        }
    }
}

/// The sequential CP run is deterministic under node budgets, and because
/// a larger budget replays the same seeded schedule further, the incumbent
/// cost is monotonically non-worsening as the budget grows.
#[test]
fn cp_incumbent_monotone_over_node_budget() {
    let p = make_problem(0xC0FFEE, 14, 4, 0.5);
    let mut last: Option<f64> = None;
    for budget in [2_000u64, 8_000, 32_000, 128_000] {
        let report = solve(
            &p,
            &FtSearchConfig {
                node_limit: Some(budget),
                ..cp_opts()
            },
        )
        .unwrap();
        let sol = report
            .outcome
            .solution()
            .expect("seeded incumbent guarantees a solution");
        assert!(p.is_feasible(&sol.strategy));
        if let Some(prev) = last {
            assert!(
                sol.cost_cycles <= prev + 1e-9,
                "incumbent worsened as budget grew: {prev} -> {}",
                sol.cost_cycles
            );
        }
        last = Some(sol.cost_cycles);
        if report.stats.proved {
            break;
        }
    }
}

/// Sequential CP is bit-reproducible: the same configuration run twice
/// returns the identical strategy, cost, and IC.
#[test]
fn cp_sequential_runs_are_reproducible() {
    let p = make_problem(0xBEEF, 12, 4, 0.6);
    let opts = FtSearchConfig {
        node_limit: Some(50_000),
        ..cp_opts()
    };
    let a = solve(&p, &opts).unwrap();
    let b = solve(&p, &opts).unwrap();
    assert_eq!(a.outcome.label(), b.outcome.label());
    match (a.outcome.solution(), b.outcome.solution()) {
        (Some(x), Some(y)) => {
            assert_eq!(x.strategy, y.strategy);
            assert_eq!(x.cost_cycles.to_bits(), y.cost_cycles.to_bits());
            assert_eq!(x.ic.to_bits(), y.ic.to_bits());
        }
        (None, None) => {}
        _ => panic!("feasibility diverged between identical runs"),
    }
}

/// The portfolio driver at several thread counts always returns a proved
/// verdict consistent with the sequential CP run on instances both can
/// prove (the incumbent itself may differ between equal-cost optima).
#[test]
fn portfolio_verdicts_consistent_with_sequential() {
    for seed in [7u64, 21, 63] {
        let p = make_problem(seed, 8, 3, 0.5);
        let seq = solve(&p, &cp_opts()).unwrap();
        assert!(seq.stats.proved);
        for threads in [2usize, 4] {
            let par = solve(
                &p,
                &FtSearchConfig {
                    threads,
                    ..cp_opts()
                },
            )
            .unwrap();
            assert!(par.stats.proved, "portfolio must prove seed {seed}");
            assert_eq!(seq.outcome.label(), par.outcome.label(), "seed {seed}");
            if let (Some(a), Some(b)) = (seq.outcome.solution(), par.outcome.solution()) {
                assert!(
                    (a.cost_cycles - b.cost_cycles).abs() <= 1e-6 * a.cost_cycles.max(1.0),
                    "seed {seed}: cost {} vs {}",
                    a.cost_cycles,
                    b.cost_cycles
                );
            }
        }
    }
}

/// Beyond the sizes either engine can prove (80–320 PEs, the
/// `solver_corpus_large` ladder), the sequential CP run still answers: under
/// a 20 000-node budget every rung yields an incumbent that meets IC 0.7 and
/// passes the independent constraint check.
#[test]
fn cp_finds_feasible_incumbents_on_the_large_ladder() {
    let opts = FtSearchConfig {
        node_limit: Some(20_000),
        ..cp_opts()
    };
    for (rung, inst) in laar_gen::solver_corpus_large(0xF7_5EA7C4)
        .into_iter()
        .enumerate()
    {
        let p = Problem::new(inst.gen.app, inst.gen.placement, 0.7).unwrap();
        let report = solve(&p, &opts).unwrap();
        let sol = report
            .outcome
            .solution()
            .unwrap_or_else(|| panic!("rung {rung}: {}", report.outcome.label()));
        assert!(sol.ic >= 0.7, "rung {rung}: IC {}", sol.ic);
        let violations = p.check(&sol.strategy);
        assert!(violations.is_empty(), "rung {rung}: {violations:?}");
    }
}

/// Corpus of the `plan-proofs` workload.
const CORPUS_SEED: u64 = 0xF75E_A7C4;

/// A warm-started CP solve proves what it holds instead of spending its
/// budget: on corpus instance 26 at IC 0.6, warm-started from static
/// replication under the re-planner's 200 000-node budget, the proof run
/// from the first restart's incumbent finishes its tree, and the proved
/// cost is the deterministic engine's optimum to the bit. Before the proof
/// run existed this solve used all 200 000 nodes and ended `SOL`.
#[test]
fn warm_started_cp_solve_proves_the_deterministic_optimum() {
    let corpus = laar_gen::solver_corpus(40, CORPUS_SEED);
    let gen = &corpus[26].gen;
    let p = Problem::new(gen.app.clone(), gen.placement.clone(), 0.6).unwrap();
    let exact = solve(&p, &FtSearchConfig::default()).unwrap();
    assert_eq!(exact.outcome.label(), "BST");
    let opts = FtSearchConfig {
        mode: SearchMode::Portfolio,
        node_limit: Some(200_000),
        ..FtSearchConfig::default()
    };
    let warm = laar_core::static_replication(&p);
    let cp = solve_with_warm_start(&p, &opts, Some(&warm)).unwrap();
    assert_eq!(cp.outcome.label(), "BST", "proved within the budget");
    assert!(cp.stats.nodes < 200_000, "{} nodes", cp.stats.nodes);
    let bits = |r: &laar_core::SearchReport| r.outcome.solution().unwrap().cost_cycles.to_bits();
    assert_eq!(bits(&cp), bits(&exact), "the deterministic optimum");
}

/// A restart cap below the first restart's budget is a configuration
/// error, not a panic inside the restart schedule; a cap between the base
/// and the portfolio's shifted bases (`restart_base << 2` for every third
/// worker) is legal and runs.
#[test]
fn restart_cap_below_the_first_restart_is_an_error() {
    let corpus = laar_gen::solver_corpus(40, CORPUS_SEED);
    let gen = &corpus[2].gen;
    let p = Problem::new(gen.app.clone(), gen.placement.clone(), 0.6).unwrap();
    let opts = |restart_cap| FtSearchConfig {
        mode: SearchMode::Portfolio,
        node_limit: Some(100_000),
        cp: CpConfig {
            restart_cap,
            ..CpConfig::default()
        },
        ..FtSearchConfig::default()
    };
    let err = solve(&p, &opts(1000)).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::InvalidRestartCap {
                cap: 1000,
                first: 4096
            }
        ),
        "{err}"
    );
    let par = solve(
        &p,
        &FtSearchConfig {
            threads: 3,
            ..opts(8192)
        },
    )
    .unwrap();
    assert!(par.outcome.solution().is_some(), "{}", par.outcome.label());
}

/// Every portfolio worker starts from the caller's warm start. On
/// `plan-proofs` pair 2 @ 0.6 a two-worker portfolio under 1 000 nodes a
/// worker does not reach the deterministic optimum cold (it ends near
/// 825 against 814.84); warm-started from that optimum it returns it, cost
/// bits and all.
#[test]
fn portfolio_keeps_the_warm_start() {
    let corpus = laar_gen::solver_corpus(40, CORPUS_SEED);
    let gen = &corpus[2].gen;
    let p = Problem::new(gen.app.clone(), gen.placement.clone(), 0.6).unwrap();
    let exact = solve(&p, &FtSearchConfig::default()).unwrap();
    assert_eq!(exact.outcome.label(), "BST");
    let optimum = exact.outcome.solution().unwrap();
    let opts = FtSearchConfig {
        mode: SearchMode::Portfolio,
        threads: 2,
        node_limit: Some(1_000),
        ..FtSearchConfig::default()
    };
    let bits = |r: &laar_core::SearchReport| r.outcome.solution().map(|s| s.cost_cycles.to_bits());
    let cold = solve(&p, &opts).unwrap();
    assert_ne!(
        bits(&cold),
        Some(optimum.cost_cycles.to_bits()),
        "the budget is too small"
    );
    let warm = solve_with_warm_start(&p, &opts, Some(&optimum.strategy)).unwrap();
    assert_eq!(bits(&warm), Some(optimum.cost_cycles.to_bits()));
}

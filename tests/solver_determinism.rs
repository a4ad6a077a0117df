//! The deterministic search is sequential whatever `FtSearchConfig::threads`
//! says (the setting only sizes a `SearchMode::Portfolio` search): `solve`
//! must return an **identical report** — outcome label, assignment
//! (strategy), cost and IC compared bitwise, and the node and per-kind
//! prune counts — for any thread count, on the paper problem and on
//! generated instances. Only wall-clock statistics are not compared.

use laar_core::ftsearch::{solve, FtSearchConfig, Outcome, NUM_PRUNE_KINDS};
use laar_core::testutil::fig2_problem;
use laar_core::Problem;
use laar_gen::solver_corpus;
use laar_model::ActivationStrategy;
use std::time::Duration;

const THREAD_AXIS: [usize; 3] = [1, 2, 8];

/// Outcome label plus the incumbent's (strategy, cost, IC), when one exists.
type Incumbent = (&'static str, Option<(ActivationStrategy, f64, f64)>);

/// Node count, then prune counts by kind.
type Tree = (u64, [u64; NUM_PRUNE_KINDS]);

/// Solve `problem` at every thread count and assert the outcomes and the
/// trees coincide exactly. Returns the label of the (shared) outcome.
fn assert_identical_incumbent(problem: &Problem, what: &str) -> &'static str {
    let mut reference: Option<(Incumbent, Tree)> = None;
    for threads in THREAD_AXIS {
        let opts = FtSearchConfig {
            threads,
            time_limit: Duration::from_secs(60),
            ..FtSearchConfig::default()
        };
        let report = solve(problem, &opts).expect("k = 2");
        assert!(
            report.stats.proved,
            "{what}: threads={threads} did not prove within the limit; \
             the limit is wall-clock, so only completed runs are comparable"
        );
        let label = report.outcome.label();
        let incumbent = match &report.outcome {
            Outcome::Optimal(s) | Outcome::Feasible(s) => {
                Some((s.strategy.clone(), s.cost_cycles, s.ic))
            }
            Outcome::Infeasible | Outcome::Timeout => None,
        };
        let tree = (report.stats.nodes, report.stats.prunes);
        match &reference {
            None => reference = Some(((label, incumbent), tree)),
            Some(((ref_label, ref_inc), ref_tree)) => {
                assert_eq!(
                    *ref_tree, tree,
                    "{what}: nodes and prunes at threads={threads}"
                );
                assert_eq!(
                    *ref_label, label,
                    "{what}: outcome label at threads={threads}"
                );
                match (ref_inc, &incumbent) {
                    (None, None) => {}
                    (Some((rs, rc, ri)), Some((s, c, i))) => {
                        assert_eq!(rs, s, "{what}: strategy diverged at threads={threads}");
                        assert!(
                            rc.to_bits() == c.to_bits(),
                            "{what}: cost diverged at threads={threads}: {rc} vs {c}"
                        );
                        assert!(
                            ri.to_bits() == i.to_bits(),
                            "{what}: IC diverged at threads={threads}: {ri} vs {i}"
                        );
                    }
                    _ => panic!("{what}: feasibility diverged at threads={threads}"),
                }
            }
        }
    }
    reference.unwrap().0 .0
}

#[test]
fn paper_problem_identical_across_thread_counts() {
    // Fig. 2's pipeline at a satisfiable and at the boundary IC.
    for ic in [0.0, 0.6, 2.0 / 3.0] {
        let label = assert_identical_incumbent(&fig2_problem(ic), &format!("fig2@{ic}"));
        assert_eq!(label, "BST");
    }
    // And a proved-infeasible instance: identical NUL everywhere.
    let label = assert_identical_incumbent(&fig2_problem(0.9), "fig2@0.9");
    assert_eq!(label, "NUL");
}

#[test]
fn generated_problems_identical_across_thread_counts() {
    // The smallest solver-corpus instances (fewest replica slots) so the
    // full axis proves quickly; the corpus seed matches the solver
    // evaluation's generator.
    let mut all = solver_corpus(20, 7);
    all.sort_by_key(|inst| inst.num_hosts * inst.pes_per_host);
    let instances: Vec<_> = all.into_iter().take(3).collect();
    for (i, inst) in instances.iter().enumerate() {
        let problem = Problem::new(inst.gen.app.clone(), inst.gen.placement.clone(), 0.6)
            .expect("valid problem");
        assert_identical_incumbent(&problem, &format!("gen[{i}]"));
    }
}

//! Golden search trees: the exact shape of the solver's work on fixed
//! instances, the solver's counterpart of the simulator's golden digests.
//!
//! A change that only makes a node cheaper must leave every number here
//! alone: verdict, the bits of the optimal cost, the node count, and the
//! count and summed height of every kind of prune. The deterministic engine
//! is pinned on the `plan-proofs` pairs of the benchmark (the five that
//! search and one that ends at the root presolve), the CP engine on the
//! `adapt-drift` fixture under the node budget of one re-plan. Every value
//! was recorded at commit 9316435.

use laar_core::ftsearch::{solve, FtSearchConfig, SearchMode, SearchReport};
use laar_core::Problem;
use laar_gen::generator::generate_app;
use laar_gen::{solver_corpus, GenParams};

/// Corpus of the `plan-proofs` workload: `solver_corpus(40, CORPUS_SEED)`.
const CORPUS_SEED: u64 = 0xF75E_A7C4;

/// One recorded search tree.
struct Tree {
    label: &'static str,
    cost_bits: u64,
    nodes: u64,
    /// CPU, COMPL, COST, DOM, NOGOOD.
    prunes: [u64; 5],
    prune_heights: [u64; 5],
}

fn assert_tree(what: &str, report: &SearchReport, want: &Tree) {
    let s = &report.stats;
    let cost_bits = report
        .outcome
        .solution()
        .map_or(0, |sol| sol.cost_cycles.to_bits());
    assert_eq!(report.outcome.label(), want.label, "{what}: verdict");
    assert_eq!(cost_bits, want.cost_bits, "{what}: cost bits");
    assert_eq!(s.nodes, want.nodes, "{what}: nodes");
    assert_eq!(s.prunes, want.prunes, "{what}: prunes");
    assert_eq!(s.prune_heights, want.prune_heights, "{what}: prune heights");
}

/// `(instance, IC, tree)` of the default sequential `solve`.
const PROOFS: [(usize, f64, Tree); 6] = [
    (
        0,
        0.5,
        Tree {
            label: "NUL",
            cost_bits: 0,
            nodes: 0,
            prunes: [0; 5],
            prune_heights: [0; 5],
        },
    ),
    (
        2,
        0.7,
        Tree {
            label: "NUL",
            cost_bits: 0,
            nodes: 711_953,
            prunes: [70_658, 401_581, 0, 201_075, 0],
            prune_heights: [2_118_419, 12_463_751, 0, 5_499_788, 0],
        },
    ),
    (
        11,
        0.6,
        Tree {
            label: "NUL",
            cost_bits: 0,
            nodes: 1_129_868,
            prunes: [110_166, 637_184, 0, 398_230, 0],
            prune_heights: [3_415_383, 20_159_325, 0, 11_401_513, 0],
        },
    ),
    (
        17,
        0.5,
        Tree {
            label: "BST",
            cost_bits: 0x4095_c9e7_c8ce_df1c,
            nodes: 95_957,
            prunes: [3_417, 42_008, 17_161, 690, 0],
            prune_heights: [54_453, 296_672, 93_615, 11_516, 0],
        },
    ),
    (
        22,
        0.6,
        Tree {
            label: "BST",
            cost_bits: 0x4080_48ee_ce0e_457a,
            nodes: 434_706,
            prunes: [6_937, 173_465, 105_275, 44_423, 0],
            prune_heights: [121_630, 1_553_732, 910_458, 569_480, 0],
        },
    ),
    (
        33,
        0.7,
        Tree {
            label: "NUL",
            cost_bits: 0,
            nodes: 975_409,
            prunes: [169_337, 479_174, 0, 173_356, 0],
            prune_heights: [7_131_244, 20_552_644, 0, 5_747_196, 0],
        },
    ),
];

#[test]
fn deterministic_proofs_keep_their_trees() {
    let corpus = solver_corpus(40, CORPUS_SEED);
    for (instance, ic, want) in &PROOFS {
        let gen = &corpus[*instance].gen;
        let p = Problem::new(gen.app.clone(), gen.placement.clone(), *ic).unwrap();
        let report = solve(&p, &FtSearchConfig::default()).unwrap();
        assert!(report.stats.proved, "{instance} @ {ic}: proves");
        assert_eq!(
            report.stats.root_conflict.is_some(),
            want.nodes == 0,
            "{instance} @ {ic}: root verdict"
        );
        assert_tree(&format!("{instance} @ {ic}"), &report, want);
    }
}

#[test]
fn cp_run_on_the_drift_fixture_keeps_its_tree() {
    let gen = generate_app(
        &GenParams {
            duration: 120.0,
            ..GenParams::default()
        },
        8,
    );
    let p = Problem::new(gen.app, gen.placement, 0.6).unwrap();
    let report = solve(
        &p,
        &FtSearchConfig {
            mode: SearchMode::Portfolio,
            node_limit: Some(200_000),
            ..FtSearchConfig::default()
        },
    )
    .unwrap();
    assert_tree(
        "drift",
        &report,
        &Tree {
            label: "SOL",
            cost_bits: 0x4076_16e9_c111_dd37,
            nodes: 200_000,
            prunes: [17, 55_942, 12_652, 13_609, 15_936],
            prune_heights: [385, 475_493, 57_618, 351_892, 71_048],
        },
    );
    let s = &report.stats;
    assert_eq!(
        (s.restarts, s.lns_rounds, s.nogoods_learned),
        (3, 13, 81),
        "drift: restarts, LNS rounds, nogoods learned"
    );
}

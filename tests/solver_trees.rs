//! Golden search trees: the exact shape of the solver's work on fixed
//! instances, the solver's counterpart of the simulator's golden digests.
//!
//! A change that only makes a node cheaper must leave every number here
//! alone: verdict, the bits of the optimal cost, the node count, and the
//! count and summed height of every kind of prune. A change of exploration
//! order moves the tree on purpose, and then shows here every number it
//! moves; the verdicts and the optimal cost bits cannot move, because the
//! bounds are exact under any legal order. The deterministic engine is
//! pinned on the `plan-proofs` pairs of the benchmark (the five that search
//! and one that ends at the root presolve), the CP engine on the
//! `adapt-drift` fixture under the node budget of one re-plan.
//!
//! Every value was recorded at commit 9316435, then re-recorded on top of
//! d06a6a2 where the deterministic engine's fail-first order (the ready PE
//! with the heaviest downstream cone first) replaced the dense order: the
//! five searched trees shrank (3 347 893 → 219 436 nodes together); their
//! verdicts, both cost bits and the root-verdict entry are as at 9316435.
//! In the same change DOM prune heights started to count search positions
//! instead of variable indices, which moved the CP entry's DOM height sum
//! (351 892 → 101 409) and nothing else of it.
//!
//! The CP entry was re-recorded once more on top of 9db585c, where the CP
//! driver gained its one proof run: the deterministic engine, with its
//! proof bounds, run once from the first incumbent of a restart run. On this
//! cold solve the proof run does not finish within its 32 768 nodes, so the
//! verdict, the cost bits and the 200 000 nodes stay as they were; its
//! prunes join the CP runs' and the CP loop that follows gets fewer nodes
//! (3 → 2 restarts, 13 → 11 LNS rounds, nogoods learned still 81). The
//! deterministic entries are as before.

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
            nodes: 34_472,
            prunes: [3_803, 19_023, 0, 7_649, 0],
            prune_heights: [121_235, 634_678, 0, 219_284, 0],
        },
    ),
    (
        11,
        0.6,
        Tree {
            label: "NUL",
            cost_bits: 0,
            nodes: 39_500,
            prunes: [3_321, 22_257, 0, 13_973, 0],
            prune_heights: [113_068, 745_656, 0, 410_050, 0],
        },
    ),
    (
        17,
        0.5,
        Tree {
            label: "BST",
            cost_bits: 0x4095_c9e7_c8ce_df1c,
            nodes: 95_217,
            prunes: [1_513, 54_288, 6_798, 220, 0],
            prune_heights: [25_250, 356_112, 30_909, 3_768, 0],
        },
    ),
    (
        22,
        0.6,
        Tree {
            label: "BST",
            cost_bits: 0x4080_48ee_ce0e_457a,
            nodes: 48_107,
            prunes: [1_134, 18_337, 12_091, 3_690, 0],
            prune_heights: [20_230, 240_586, 181_051, 62_559, 0],
        },
    ),
    (
        33,
        0.7,
        Tree {
            label: "NUL",
            cost_bits: 0,
            nodes: 2_140,
            prunes: [429, 998, 0, 316, 0],
            prune_heights: [20_907, 49_526, 0, 12_266, 0],
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
            prunes: [17, 54_911, 16_093, 10_684, 15_824],
            prune_heights: [385, 849_988, 369_751, 137_165, 70_712],
        },
    );
    let s = &report.stats;
    assert_eq!(
        (s.restarts, s.lns_rounds, s.nogoods_learned),
        (2, 11, 81),
        "drift: restarts, LNS rounds, nogoods learned"
    );
}

//! # laar-experiments
//!
//! The experiment harness regenerating every evaluation figure of the LAAR
//! paper. Each figure has a binary in `src/bin/` printing the same series
//! the paper reports (with the paper's numbers alongside for comparison):
//!
//! | binary | paper figure |
//! |---|---|
//! | `fig3_pipeline` | Fig. 3 — two-host pipeline, SR vs LAAR time series |
//! | `fig4_solver_outcomes` | Fig. 4 — FT-Search outcomes vs IC constraint |
//! | `fig5_first_vs_optimal` | Fig. 5 — first/optimal cost & time ratios |
//! | `fig6_pruning` | Fig. 6 — pruning strategy effectiveness |
//! | `fig9_bestcase` | Fig. 9 — best-case CPU time and drops |
//! | `fig10_peak_rate` | Fig. 10 — output rate during the load peak |
//! | `fig11_worstcase` | Fig. 11 top — worst-case samples processed |
//! | `fig11_hostcrash` | Fig. 11 bottom — single host crash + recovery |
//! | `fig12_summary` | Fig. 12 — summary vs static replication |
//!
//! Scale flags: every binary accepts `--apps N` / `--instances N` and
//! `--time-limit SECS` (defaults are sized to finish in minutes on a laptop;
//! pass `--paper` for the full paper-scale population).

#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod evaluation;
pub mod fig3;
pub mod figures;
pub mod report;
pub mod solver_eval;
pub mod stats;
pub mod variants;

pub use cache::load_or_evaluate;
pub use evaluation::{evaluate_corpus, evaluate_host_crash, CorpusEvaluation, EvalConfig};
pub use solver_eval::{evaluate_solver_corpus, SolverEvalConfig, SolverRun};
pub use stats::{BoxPlot, Histogram};
pub use variants::{build_variants, VariantEntry, VariantSet};

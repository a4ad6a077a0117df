//! Builds the six replication variants of §5.2 for one generated
//! application: NR, SR, GRD, and the three LAAR strategies (L.5/L.6/L.7)
//! computed by FT-Search.

use laar_core::ftsearch::{solve_with_warm_start, FtSearchConfig, Outcome};
use laar_core::variants::{greedy, non_replicated, static_replication, VariantKind};
use laar_core::{PessimisticFailure, Problem};
use laar_model::{ActivationStrategy, Application, Placement};
use std::time::Duration;

/// One variant's strategy with its analytic (a-priori) objective values.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct VariantEntry {
    /// Which variant this is.
    pub kind: VariantKind,
    /// The activation strategy driving the HAController.
    pub strategy: ActivationStrategy,
    /// Guaranteed IC under the pessimistic failure model (eq. 8 + eq. 14).
    pub guaranteed_ic: f64,
    /// Expected cost per eq. 13 (CPU-seconds over the billing period, since
    /// the generator uses `K = 1`).
    pub expected_cost: f64,
    /// FT-Search outcome label for LAAR variants (`BST`/`SOL`), `None` for
    /// baselines.
    pub solver_label: Option<String>,
}

/// All six variants for one application ([`build_variants`] answers with a
/// reason instead when some LAAR instance is infeasible or timed out; the
/// harness skips such applications, mirroring the paper's use of solvable
/// instances).
pub struct VariantSet {
    /// Entries in `VariantKind::ALL` order.
    pub entries: Vec<VariantEntry>,
}

impl VariantSet {
    /// Look up one variant.
    pub fn get(&self, kind: VariantKind) -> &VariantEntry {
        self.entries
            .iter()
            .find(|e| e.kind == kind)
            .expect("all variants present")
    }
}

/// Build all six variants. Returns `Err(reason)` when FT-Search cannot
/// produce one of the LAAR strategies within `time_limit`.
pub fn build_variants(
    app: &Application,
    placement: &Placement,
    time_limit: Duration,
) -> Result<VariantSet, String> {
    let mut entries = Vec::with_capacity(6);

    // LAAR variants first (NR is derived from L.5). Solve strictest IC
    // first and warm-start the looser problems with the stricter solution:
    // an IC-0.7 strategy is feasible at 0.6 and 0.5, so the cascade
    // guarantees cost(L.5) <= cost(L.6) <= cost(L.7) even when the time
    // limit stops the search at a SOL outcome.
    let mut laar: Vec<(VariantKind, ActivationStrategy)> = Vec::new();
    let mut warm: Option<ActivationStrategy> = None;
    for kind in [
        VariantKind::Laar07,
        VariantKind::Laar06,
        VariantKind::Laar05,
    ] {
        let ic_req = kind.ic_requirement().unwrap();
        let problem =
            Problem::new(app.clone(), placement.clone(), ic_req).map_err(|e| e.to_string())?;
        let opts = FtSearchConfig::with_time_limit(time_limit);
        let report =
            solve_with_warm_start(&problem, &opts, warm.as_ref()).map_err(|e| e.to_string())?;
        match report.outcome {
            Outcome::Optimal(sol) | Outcome::Feasible(sol) => {
                let label = if report.stats.proved { "BST" } else { "SOL" }.to_owned();
                warm = Some(sol.strategy.clone());
                laar.push((kind, sol.strategy.clone()));
                entries.push(VariantEntry {
                    kind,
                    strategy: sol.strategy,
                    guaranteed_ic: sol.ic,
                    expected_cost: sol.cost_cycles,
                    solver_label: Some(label),
                });
            }
            Outcome::Infeasible => {
                return Err(format!("{} infeasible", kind.label()));
            }
            Outcome::Timeout => {
                return Err(format!("{} timed out", kind.label()));
            }
        }
    }

    // Baselines share one problem instance (the IC requirement is unused).
    let problem = Problem::new(app.clone(), placement.clone(), 0.0).map_err(|e| e.to_string())?;
    let ev = problem.ic_evaluator();
    let cm = problem.cost_model();
    let mut push_baseline = |kind: VariantKind, strategy: ActivationStrategy| {
        let guaranteed_ic = ev.ic(&strategy, &PessimisticFailure);
        let expected_cost = cm.cost_cycles(&strategy);
        entries.push(VariantEntry {
            kind,
            strategy,
            guaranteed_ic,
            expected_cost,
            solver_label: None,
        });
    };

    let l5 = laar
        .iter()
        .find(|(k, _)| *k == VariantKind::Laar05)
        .map(|(_, s)| s.clone())
        .expect("L.5 present");
    push_baseline(VariantKind::NonReplicated, non_replicated(&problem, &l5));
    push_baseline(VariantKind::StaticReplication, static_replication(&problem));
    push_baseline(VariantKind::Greedy, greedy(&problem).strategy);

    // Sort into the paper's reporting order.
    entries.sort_by_key(|e| VariantKind::ALL.iter().position(|k| *k == e.kind));
    Ok(VariantSet { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_gen::{GenParams, GeneratedApp};

    fn small_app(seed: u64) -> GeneratedApp {
        laar_gen::generator::generate_app(
            &GenParams {
                num_pes: 8,
                num_hosts: 3,
                ..GenParams::default()
            },
            seed,
        )
    }

    #[test]
    fn builds_all_six_variants() {
        // Seed chosen so the IC 0.7 SLA is feasible.
        let gen = small_app(6);
        let set =
            build_variants(&gen.app, &gen.placement, Duration::from_secs(10)).expect("variants");
        assert_eq!(set.entries.len(), 6);
        let labels: Vec<&str> = set.entries.iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels, vec!["NR", "SR", "GRD", "L.5", "L.6", "L.7"]);
    }

    #[test]
    fn guarantees_hold_per_variant() {
        let gen = small_app(7);
        let set = match build_variants(&gen.app, &gen.placement, Duration::from_secs(10)) {
            Ok(s) => s,
            Err(e) => {
                // Some seeds are genuinely infeasible at IC 0.7; that's a
                // valid generator outcome, not a bug.
                assert!(e.contains("infeasible") || e.contains("timed out"));
                return;
            }
        };
        assert_eq!(set.get(VariantKind::NonReplicated).guaranteed_ic, 0.0);
        assert!((set.get(VariantKind::StaticReplication).guaranteed_ic - 1.0).abs() < 1e-9);
        assert!(set.get(VariantKind::Laar05).guaranteed_ic >= 0.5 - 1e-9);
        assert!(set.get(VariantKind::Laar06).guaranteed_ic >= 0.6 - 1e-9);
        assert!(set.get(VariantKind::Laar07).guaranteed_ic >= 0.7 - 1e-9);
    }

    #[test]
    fn laar_cost_increases_with_ic() {
        let gen = small_app(6);
        if let Ok(set) = build_variants(&gen.app, &gen.placement, Duration::from_secs(10)) {
            let c5 = set.get(VariantKind::Laar05).expected_cost;
            let c6 = set.get(VariantKind::Laar06).expected_cost;
            let c7 = set.get(VariantKind::Laar07).expected_cost;
            let sr = set.get(VariantKind::StaticReplication).expected_cost;
            assert!(c5 <= c6 + 1e-9);
            assert!(c6 <= c7 + 1e-9);
            assert!(c7 <= sr + 1e-9);
        }
    }
}

//! The internal completeness (IC) metric (§4.3, eqs. 5–8) and failure models
//! (§4.4, eq. 14).
//!
//! IC measures, over a billing period `T`, the expected fraction of tuples
//! processed under a failure model relative to the failure-free case:
//!
//! ```text
//! BIC    = T · Σ_{c, xᵢ∈P, xⱼ∈pred(xᵢ)} P_C(c) · Δ(xⱼ, c)                 (eq. 5)
//! FIC(s) = T · Σ_{c, xᵢ∈P, xⱼ∈pred(xᵢ)} P_C(c) · φ(xᵢ,c,s) · Δ̂(xⱼ,c,s)   (eq. 6)
//! Δ̂(x)   = Δ(x)                        if x is a source                    (eq. 7)
//!        = φ(x,c,s) · Σⱼ δ(j,x)·Δ̂(j)   if x is a PE
//! IC(s)  = FIC(s) / BIC                                                    (eq. 8)
//! ```

use laar_model::{ActivationStrategy, Application, ComponentKind, ConfigId, RateTable};

/// A failure model: the probability `φ(xᵢ, c, s)` that at least one replica
/// of PE `xᵢ` is alive *and active* when the input configuration is `c` and
/// the activation strategy is `s`.
pub trait FailureModel {
    /// `φ(xᵢ, c, s)` for the PE with dense index `pe_dense`.
    fn phi(&self, pe_dense: usize, c: ConfigId, s: &ActivationStrategy) -> f64;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// No failures ever occur: `φ ≡ 1` as long as eq. 12 holds. Under this model
/// `FIC = BIC` and `IC = 1` for every valid strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFailure;

impl FailureModel for NoFailure {
    fn phi(&self, _pe_dense: usize, _c: ConfigId, _s: &ActivationStrategy) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "no-failure"
    }
}

/// The paper's *pessimistic* failure model (eq. 14): in any failure scenario
/// all replicas fail except one, the survivor is chosen among the inactive
/// replicas when possible, and failed replicas never recover. Hence a PE
/// survives (`φ = 1`) only in configurations where *all* `k` replicas are
/// active.
///
/// The IC computed under this model is a lower bound on the IC observed in
/// any real deployment (§4.4).
#[derive(Debug, Clone, Copy, Default)]
pub struct PessimisticFailure;

impl FailureModel for PessimisticFailure {
    fn phi(&self, pe_dense: usize, c: ConfigId, s: &ActivationStrategy) -> f64 {
        if s.fully_replicated(pe_dense, c) {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "pessimistic"
    }
}

/// An *independent-failure* model — the first of the paper's future-work
/// directions ("investigating the use of alternative failure models in the
/// optimization problem with the goal of providing tighter lower bounds on
/// IC values", §6).
///
/// Each replica is down with independent probability `p` at any point in
/// time (a steady-state availability view: `p = MTTR / (MTTF + MTTR)`).
/// A PE processes tuples when at least one of its *active* replicas is up:
///
/// ```text
/// φ(xᵢ, c, s) = 1 − p^(number of active replicas of xᵢ in c)
/// ```
///
/// Unlike the pessimistic model this is not a worst-case bound but an
/// expectation under the availability assumption. For realistic (small)
/// down probabilities it is far tighter (larger) than eq. 14's bound —
/// though not uniformly: at large `p` the chained survival probabilities
/// of eq. 7 can fall below the pessimistic model's full credit for fully
/// replicated cells.
#[derive(Debug, Clone, Copy)]
pub struct IndependentFailure {
    /// Probability that an individual replica is down.
    pub p_down: f64,
}

impl IndependentFailure {
    /// A model with the given per-replica down probability in `[0, 1]`.
    pub fn new(p_down: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_down) && p_down.is_finite());
        Self { p_down }
    }
}

impl FailureModel for IndependentFailure {
    fn phi(&self, pe_dense: usize, c: ConfigId, s: &ActivationStrategy) -> f64 {
        let active = s.active_count(pe_dense, c) as i32;
        1.0 - self.p_down.powi(active)
    }

    fn name(&self) -> &'static str {
        "independent"
    }
}

/// The deterministic "host `h` is down" model: `φ = 1` iff the PE has an
/// active replica on some other host. It mirrors the paper's host-crash
/// experiment (§5.3, Fig. 11 bottom) analytically; the minimum over `h` is
/// the IC a strategy keeps under any single host crash. With replicas on
/// distinct hosts (which `Placement` enforces) every fully replicated cell
/// survives any one crash, so each host's IC is at least the pessimistic
/// bound of eq. 14.
#[derive(Debug, Clone)]
pub struct HostDown {
    host_of: Vec<Vec<usize>>,
    /// The crashed host's dense index.
    pub host: usize,
}

impl HostDown {
    /// Model the crash of `host` under `placement`.
    pub fn new(placement: &laar_model::Placement, host: usize) -> Self {
        let k = placement.k();
        Self {
            host_of: (0..placement.num_pes())
                .map(|pe| (0..k).map(|r| placement.host_of(pe, r).index()).collect())
                .collect(),
            host,
        }
    }
}

impl FailureModel for HostDown {
    fn phi(&self, pe_dense: usize, c: ConfigId, s: &ActivationStrategy) -> f64 {
        let alive = self.host_of[pe_dense]
            .iter()
            .enumerate()
            .any(|(r, &rh)| rh != self.host && s.is_active(pe_dense, c, r));
        if alive {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "host-down"
    }
}

/// Evaluator for BIC / FIC / IC over one application.
///
/// Holds a borrowed [`RateTable`] so repeated evaluations (the optimizer
/// calls this with many candidate strategies) don't re-propagate rates.
#[derive(Debug, Clone)]
pub struct IcEvaluator<'a> {
    app: &'a Application,
    bic: f64,
}

impl<'a> IcEvaluator<'a> {
    /// Build an evaluator; precomputes BIC.
    pub fn new(app: &'a Application, rates: &'a RateTable) -> Self {
        let cs = app.configs();
        let t = app.billing_period();
        let mut bic = 0.0;
        for c in cs.configs() {
            let pc = cs.prob(c);
            for dense in 0..app.graph().num_pes() {
                bic += pc * rates.pe_input_rate(dense, c);
            }
        }
        Self { app, bic: t * bic }
    }

    /// Best-case internal completeness `BIC` (eq. 5): the statistically
    /// expected number of tuples processed by all PEs in a billing period
    /// with no failures.
    #[inline]
    pub fn bic(&self) -> f64 {
        self.bic
    }

    /// Failure internal completeness `FIC(s)` (eq. 6) under the given
    /// failure model.
    pub fn fic(&self, s: &ActivationStrategy, model: &dyn FailureModel) -> f64 {
        let g = self.app.graph();
        let cs = self.app.configs();
        let nq = cs.num_configs();
        // Δ̂ per component for the configuration currently being processed.
        let mut dhat = vec![0.0f64; g.num_components()];
        let mut fic = 0.0;
        for c in cs.configs() {
            let pc = cs.prob(c);
            if pc == 0.0 {
                continue;
            }
            for &x in g.topological_order() {
                match g.component(x).kind {
                    ComponentKind::Source => {
                        let si = g.source_dense_index(x).expect("source");
                        dhat[x.index()] = cs.source_rate(si, c);
                    }
                    ComponentKind::Pe => {
                        let dense = g.pe_dense_index(x).expect("pe");
                        let phi = model.phi(dense, c, s);
                        // Tuples expected to be *received and processed* by x:
                        // φ(x) · Σ_{j ∈ pred} Δ̂(j)  (eq. 6 inner term).
                        let received: f64 = g.in_edges(x).map(|e| dhat[e.from.index()]).sum();
                        fic += pc * phi * received;
                        // Expected output (eq. 7).
                        let weighted: f64 = g
                            .in_edges(x)
                            .map(|e| e.selectivity * dhat[e.from.index()])
                            .sum();
                        dhat[x.index()] = phi * weighted;
                    }
                    ComponentKind::Sink => {
                        dhat[x.index()] = g.in_edges(x).map(|e| dhat[e.from.index()]).sum();
                    }
                }
            }
            let _ = nq;
        }
        self.app.billing_period() * fic
    }

    /// Internal completeness `IC(s) = FIC(s) / BIC` (eq. 8).
    pub fn ic(&self, s: &ActivationStrategy, model: &dyn FailureModel) -> f64 {
        if self.bic == 0.0 {
            return 1.0;
        }
        self.fic(s, model) / self.bic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_model::{Application, ConfigSpace, GraphBuilder};

    /// The Fig. 1 pipeline: src -> pe1 -> pe2 -> sink, selectivity 1,
    /// Low = 4 t/s (p .8), High = 8 t/s (p .2), T = 300 s.
    fn fig1() -> Application {
        let mut b = GraphBuilder::new();
        let s = b.add_source("src");
        let p1 = b.add_pe("pe1");
        let p2 = b.add_pe("pe2");
        let k = b.add_sink("sink");
        b.connect(s, p1, 1.0, 100.0).unwrap();
        b.connect(p1, p2, 1.0, 100.0).unwrap();
        b.connect_sink(p2, k).unwrap();
        let g = b.build().unwrap();
        let cs = ConfigSpace::new(&g, vec![vec![4.0, 8.0]], vec![0.8, 0.2]).unwrap();
        Application::new("fig1", g, cs, 300.0).unwrap()
    }

    #[test]
    fn bic_of_fig1() {
        let app = fig1();
        let rates = RateTable::compute(&app);
        let ev = IcEvaluator::new(&app, &rates);
        // Expected per-second tuples processed: pe1 gets E[rate] = 4.8,
        // pe2 gets the same (selectivity 1). BIC = 300 * 9.6.
        assert!((ev.bic() - 300.0 * 9.6).abs() < 1e-9);
    }

    #[test]
    fn all_active_gives_ic_one_pessimistic() {
        let app = fig1();
        let rates = RateTable::compute(&app);
        let ev = IcEvaluator::new(&app, &rates);
        let s = ActivationStrategy::all_active(2, 2, 2);
        assert!((ev.ic(&s, &PessimisticFailure) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_failure_gives_ic_one_for_any_valid_strategy() {
        let app = fig1();
        let rates = RateTable::compute(&app);
        let ev = IcEvaluator::new(&app, &rates);
        let mut s = ActivationStrategy::all_active(2, 2, 2);
        s.set_active(0, ConfigId(1), 1, false);
        s.set_active(1, ConfigId(0), 0, false);
        assert!((ev.ic(&s, &NoFailure) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_replica_everywhere_gives_ic_zero_pessimistic() {
        let app = fig1();
        let rates = RateTable::compute(&app);
        let ev = IcEvaluator::new(&app, &rates);
        let mut s = ActivationStrategy::all_active(2, 2, 2);
        for pe in 0..2 {
            for c in 0..2 {
                s.set_active(pe, ConfigId(c), 1, false);
            }
        }
        assert_eq!(ev.ic(&s, &PessimisticFailure), 0.0);
    }

    #[test]
    fn deactivating_only_in_high_bounds_loss() {
        let app = fig1();
        let rates = RateTable::compute(&app);
        let ev = IcEvaluator::new(&app, &rates);
        // Fully replicated in Low, single replica in High (Fig. 2b).
        let mut s = ActivationStrategy::all_active(2, 2, 2);
        s.set_active(0, ConfigId(1), 1, false);
        s.set_active(1, ConfigId(1), 0, false);
        let ic = ev.ic(&s, &PessimisticFailure);
        // Low contributes 0.8 * (4 + 4) = 6.4 of BIC-rate 9.6 => IC = 2/3.
        assert!((ic - 6.4 / 9.6).abs() < 1e-9, "ic = {ic}");
    }

    #[test]
    fn upstream_failure_cascades_through_dhat() {
        let app = fig1();
        let rates = RateTable::compute(&app);
        let ev = IcEvaluator::new(&app, &rates);
        // pe1 single-active in Low, pe2 fully replicated everywhere: pe2's
        // input in Low is Δ̂(pe1) = 0, so only pe1... pe1 itself has φ=0 in
        // Low. High is fully replicated for both.
        let mut s = ActivationStrategy::all_active(2, 2, 2);
        s.set_active(0, ConfigId(0), 0, false);
        let ic = ev.ic(&s, &PessimisticFailure);
        // Low: pe1 φ=0 contributes 0; pe2 φ=1 but receives Δ̂(pe1)=0 => 0.
        // High: 0.2 * (8 + 8) = 3.2. IC = 3.2 / 9.6 = 1/3.
        assert!((ic - 3.2 / 9.6).abs() < 1e-9, "ic = {ic}");
    }

    #[test]
    fn ic_monotone_in_activations() {
        let app = fig1();
        let rates = RateTable::compute(&app);
        let ev = IcEvaluator::new(&app, &rates);
        let mut s = ActivationStrategy::all_active(2, 2, 2);
        s.set_active(0, ConfigId(0), 0, false);
        s.set_active(1, ConfigId(1), 0, false);
        let ic_before = ev.ic(&s, &PessimisticFailure);
        s.set_active(0, ConfigId(0), 0, true);
        let ic_after = ev.ic(&s, &PessimisticFailure);
        assert!(ic_after >= ic_before);
    }

    #[test]
    fn independent_model_is_tighter_than_pessimistic() {
        let app = fig1();
        let rates = RateTable::compute(&app);
        let ev = IcEvaluator::new(&app, &rates);
        // Fig. 2b strategy: single replicas at High.
        let mut s = ActivationStrategy::all_active(2, 2, 2);
        s.set_active(0, ConfigId(1), 1, false);
        s.set_active(1, ConfigId(1), 0, false);
        let pess = ev.ic(&s, &PessimisticFailure);
        // Tighter at realistic (small) down probabilities...
        for p in [0.0, 0.01, 0.05] {
            let ind = ev.ic(&s, &IndependentFailure::new(p));
            assert!(
                ind >= pess - 1e-12,
                "independent(p={p}) = {ind} below pessimistic {pess}"
            );
        }
        // ...but not uniformly: chained survival loses to eq. 14's full
        // credit for fully replicated cells at extreme p.
        assert!(ev.ic(&s, &IndependentFailure::new(0.5)) < pess);
        // p = 0: nothing ever fails -> IC 1 for any valid strategy.
        assert!((ev.ic(&s, &IndependentFailure::new(0.0)) - 1.0).abs() < 1e-12);
        // p = 1: everything always down -> IC 0.
        assert_eq!(ev.ic(&s, &IndependentFailure::new(1.0)), 0.0);
    }

    #[test]
    fn independent_model_monotone_in_p() {
        let app = fig1();
        let rates = RateTable::compute(&app);
        let ev = IcEvaluator::new(&app, &rates);
        let s = ActivationStrategy::all_active(2, 2, 2);
        let mut last = 1.1;
        for p in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let ic = ev.ic(&s, &IndependentFailure::new(p));
            assert!(ic <= last + 1e-12);
            last = ic;
        }
    }

    #[test]
    fn host_down_models_crash_exactly() {
        use laar_model::{Host, HostId, Placement};
        let app = fig1();
        let rates = RateTable::compute(&app);
        let ev = IcEvaluator::new(&app, &rates);
        let g = app.graph();
        let hosts = vec![
            Host {
                id: HostId(0),
                name: "h0".into(),
                capacity: 1000.0,
            },
            Host {
                id: HostId(1),
                name: "h1".into(),
                capacity: 1000.0,
            },
        ];
        let placement = Placement::new(
            g,
            2,
            hosts,
            vec![HostId(0), HostId(1), HostId(0), HostId(1)],
        )
        .unwrap();
        let host_ics = |s: &ActivationStrategy| -> Vec<f64> {
            (0..2)
                .map(|h| ev.ic(s, &HostDown::new(&placement, h)))
                .collect()
        };
        let sr = ActivationStrategy::all_active(2, 2, 2);
        // Full replication survives any single host crash completely.
        for ic in host_ics(&sr) {
            assert!((ic - 1.0).abs() < 1e-12);
        }

        // Fig. 2b strategy: at High, pe1 is active only on host 0 and pe2
        // only on host 1 — either crash silences one PE at High, and with
        // it the downstream chain share. Losing host 0 silences the whole
        // chain at High, which is exactly the pessimistic bound (2/3);
        // losing host 1 keeps pe1's share.
        let mut s = sr.clone();
        s.set_active(0, ConfigId(1), 1, false);
        s.set_active(1, ConfigId(1), 0, false);
        let pess = ev.ic(&s, &PessimisticFailure);
        let ics = host_ics(&s);
        assert!((ics[0] - pess).abs() < 1e-12, "{ics:?} vs {pess}");
        assert!(ics[1] > pess && ics[1] < 1.0, "{ics:?}");
    }

    #[test]
    fn fan_in_partial_credit() {
        // Two sources feeding one PE; PE fully replicated: it still receives
        // both sources even if... sources never fail in this model.
        let mut b = GraphBuilder::new();
        let s1 = b.add_source("s1");
        let s2 = b.add_source("s2");
        let p = b.add_pe("p");
        let k = b.add_sink("k");
        b.connect(s1, p, 1.0, 1.0).unwrap();
        b.connect(s2, p, 1.0, 1.0).unwrap();
        b.connect_sink(p, k).unwrap();
        let g = b.build().unwrap();
        let cs = ConfigSpace::new(&g, vec![vec![3.0], vec![5.0]], vec![1.0]).unwrap();
        let app = Application::new("fanin", g, cs, 10.0).unwrap();
        let rates = RateTable::compute(&app);
        let ev = IcEvaluator::new(&app, &rates);
        assert!((ev.bic() - 10.0 * 8.0).abs() < 1e-9);
        let s = ActivationStrategy::all_active(1, 1, 2);
        assert!((ev.ic(&s, &PessimisticFailure) - 1.0).abs() < 1e-12);
    }
}

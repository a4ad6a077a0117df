//! # laar-adapt
//!
//! Online re-optimization for LAAR: the loop from *observation* back to
//! *strategy* that the paper leaves offline.
//!
//! The paper computes the replica activation strategy once, against a
//! declared descriptor; production traffic drifts, and a stale strategy
//! silently erodes both the IC guarantee and the CPU savings. This crate
//! closes the loop in three stages, each usable on its own:
//!
//! 1. [`DriftDetector`] — windowed/EWMA estimation of per-source rates
//!    against the declared rate levels, with hysteresis bands and
//!    quantized re-estimation (deterministic across engines);
//! 2. [`replan`] — FT-Search warm-started from the incumbent strategy
//!    under a deterministic anytime node budget, with a penalty-model
//!    fallback (the same engine and budget, the IC goal priced instead of
//!    required) when that pass finds no strategy at the contracted IC;
//! 3. [`AdaptiveController`] — the decision policy gluing them together:
//!    when to check, when to re-plan, and whether the re-planned strategy
//!    is enough of an improvement to justify a live hot-swap (executed by
//!    `laar-exec`'s swap protocol inside the engines).
//!
//! The controller is engine-agnostic: both the virtual-time simulator
//! (`laar-dsps`) and the live threaded engine (`laar-runtime`) drive the
//! same `observe` entry point from their control planes and apply the
//! returned [`AdaptOutcome`] through `ControlLoop::swap_strategy`.

#![warn(missing_docs)]

pub mod detector;
pub mod replanner;

pub use detector::{DriftConfig, DriftDetector};
pub use replanner::{replan, ReplanConfig, ReplanResult};

use laar_core::{PessimisticFailure, Problem};
use laar_model::{ActivationStrategy, Application, ConfigSpace, DescriptorEstimate, Placement};
use serde::Serialize;

/// Policy parameters of the adaptation loop.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Contracted IC requirement the re-planner optimizes against.
    pub ic_requirement: f64,
    /// Seconds between drift checks.
    pub check_interval: f64,
    /// No checks before this time (lets the rate monitor fill its window).
    pub warmup: f64,
    /// Minimum relative cost improvement required to swap while the
    /// incumbent is still feasible under the corrected descriptor (an
    /// infeasible incumbent is always swapped away from).
    pub min_swap_gain: f64,
    /// Minimum seconds between swaps.
    pub cooldown: f64,
    /// Drift detector parameters.
    pub drift: DriftConfig,
    /// Re-planner budgets.
    pub replan: ReplanConfig,
}

impl AdaptConfig {
    /// Defaults for a given IC requirement: 1 s checks after a 2 s warmup,
    /// 2 % minimum swap gain, 10 s cooldown.
    pub fn new(ic_requirement: f64) -> Self {
        Self {
            ic_requirement,
            check_interval: 1.0,
            warmup: 2.0,
            min_swap_gain: 0.02,
            cooldown: 10.0,
            drift: DriftConfig::default(),
            replan: ReplanConfig::default(),
        }
    }
}

/// A swap decision: the strategy to install and the descriptor it was
/// planned against.
#[derive(Debug, Clone)]
pub struct AdaptOutcome {
    /// The re-planned strategy to hot-swap in.
    pub strategy: ActivationStrategy,
    /// The re-estimated configuration space (for re-indexing the
    /// HAController's rate→configuration selection).
    pub space: ConfigSpace,
    /// The raw descriptor estimate behind it.
    pub estimate: DescriptorEstimate,
    /// Planned cost (eq. 13) of the new strategy under the corrected
    /// descriptor.
    pub planned_cost: f64,
    /// Planned IC (eq. 14) of the new strategy under the corrected
    /// descriptor.
    pub planned_ic: f64,
    /// `true` when the penalty-model fallback produced the strategy.
    pub soft: bool,
}

/// Accounting of one adaptation run (serialized into bench reports).
#[derive(Debug, Clone, Default, Serialize)]
pub struct AdaptReport {
    /// Drift checks performed.
    pub checks: u64,
    /// Times drift was newly declared.
    pub detections: u64,
    /// Engine time of the first detection.
    pub detected_at: Option<f64>,
    /// Re-planning passes run.
    pub replans: u64,
    /// Hot-swaps issued.
    pub swaps: u64,
    /// Engine time of the last swap.
    pub last_swap_at: Option<f64>,
    /// Search-tree nodes of the last re-plan.
    pub replan_nodes: u64,
    /// Wall-clock milliseconds of the last re-plan.
    pub replan_wall_ms: f64,
    /// Wall-clock milliseconds until the last re-plan found its best
    /// strategy ("time to best").
    pub replan_time_to_best_ms: f64,
    /// Re-plans that took the soft (penalty-model) fallback.
    pub soft_fallbacks: u64,
    /// Incumbent cost under the corrected descriptor at the last re-plan.
    pub stale_cost: Option<f64>,
    /// Incumbent IC under the corrected descriptor at the last re-plan.
    pub stale_ic: Option<f64>,
    /// Whether the incumbent was still feasible under the corrected
    /// descriptor at the last re-plan.
    pub stale_feasible: Option<bool>,
    /// Planned cost of the last installed strategy.
    pub planned_cost: Option<f64>,
    /// Planned IC of the last installed strategy.
    pub planned_ic: Option<f64>,
}

/// The adaptation decision loop: drift detection → warm-started re-plan →
/// swap decision. Engines call [`observe`](Self::observe) at every due
/// check with the monitor's current rate estimates and apply any returned
/// [`AdaptOutcome`] through their control loop's swap path.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    cfg: AdaptConfig,
    /// Current descriptor belief (declared at start; replaced by the
    /// re-estimated application after every confirmed drift episode).
    app: Application,
    placement: Placement,
    detector: DriftDetector,
    next_check: f64,
    last_swap: Option<f64>,
    report: AdaptReport,
}

impl AdaptiveController {
    /// A controller believing the declared descriptor of `app`.
    pub fn new(app: &Application, placement: &Placement, cfg: AdaptConfig) -> Self {
        let detector = DriftDetector::new(app.configs(), cfg.drift.clone());
        let first = cfg.warmup.max(cfg.check_interval);
        Self {
            cfg,
            app: app.clone(),
            placement: placement.clone(),
            detector,
            next_check: first,
            last_swap: None,
            report: AdaptReport::default(),
        }
    }

    /// The next instant a drift check is due — engines fold this into
    /// their event horizon.
    #[inline]
    pub fn next_check(&self) -> f64 {
        self.next_check
    }

    /// `true` when a drift check is due at `now`.
    #[inline]
    pub fn due(&self, now: f64) -> bool {
        now >= self.next_check
    }

    /// The accounting so far.
    #[inline]
    pub fn report(&self) -> &AdaptReport {
        &self.report
    }

    /// Consume the controller, returning its accounting.
    pub fn into_report(self) -> AdaptReport {
        self.report
    }

    /// Run one due drift check at `now` over the monitor's measured
    /// `rates`, with `incumbent` the strategy currently driving the
    /// engine. Returns a swap decision when drift is confirmed and the
    /// re-planned strategy is worth installing.
    ///
    /// On every confirmed drift episode — swap or not — the controller
    /// *adopts* the re-estimated descriptor as its new belief and restarts
    /// the detector against it, so one drift episode triggers one re-plan
    /// rather than one per check.
    pub fn observe(
        &mut self,
        now: f64,
        rates: &[f64],
        incumbent: &ActivationStrategy,
    ) -> Option<AdaptOutcome> {
        // Catch-up cadence, like the live control loop's: one check per
        // elapsed interval even if the caller oversleeps.
        self.next_check = ((now / self.cfg.check_interval).floor() + 1.0) * self.cfg.check_interval;
        self.report.checks += 1;
        self.detector.observe(rates);
        if !self.detector.drifted() {
            return None;
        }
        if self.report.detected_at.is_none() {
            self.report.detected_at = Some(now);
        }
        if let Some(t) = self.last_swap {
            if now - t < self.cfg.cooldown {
                return None;
            }
        }
        self.report.detections += 1;

        // Re-estimate, re-assess the incumbent, re-plan.
        let estimate = self.detector.estimate();
        let est_app = estimate.apply(&self.app).ok()?;
        let problem = Problem::new(
            est_app.clone(),
            self.placement.clone(),
            self.cfg.ic_requirement,
        )
        .ok()?;
        let stale_cost = problem.cost_model().cost_cycles(incumbent);
        let stale_ic = problem.ic_evaluator().ic(incumbent, &PessimisticFailure);
        let stale_feasible = problem.is_feasible(incumbent);
        self.report.stale_cost = Some(stale_cost);
        self.report.stale_ic = Some(stale_ic);
        self.report.stale_feasible = Some(stale_feasible);

        self.report.replans += 1;
        let result = replan(&problem, incumbent, &self.cfg.replan);

        // Adopt the corrected descriptor as the new belief either way:
        // this drift episode is handled, the detector restarts from the
        // new baseline, and only *further* drift re-triggers.
        self.app = est_app;
        self.detector = DriftDetector::new(self.app.configs(), self.cfg.drift.clone());

        let result = result?;
        self.report.replan_nodes = result.nodes;
        self.report.replan_wall_ms = result.wall.as_secs_f64() * 1e3;
        self.report.replan_time_to_best_ms = result.time_to_best.as_secs_f64() * 1e3;
        if result.soft {
            self.report.soft_fallbacks += 1;
        }

        // Swap when the incumbent no longer holds up under the corrected
        // descriptor, or when the re-plan saves materially on cost.
        let improves = result.planned_cost < stale_cost * (1.0 - self.cfg.min_swap_gain);
        let should_swap = (!stale_feasible || improves) && result.strategy != *incumbent;
        if !should_swap {
            return None;
        }
        self.last_swap = Some(now);
        self.report.swaps += 1;
        self.report.last_swap_at = Some(now);
        self.report.planned_cost = Some(result.planned_cost);
        self.report.planned_ic = Some(result.planned_ic);
        Some(AdaptOutcome {
            strategy: result.strategy,
            space: self.app.configs().clone(),
            estimate,
            planned_cost: result.planned_cost,
            planned_ic: result.planned_ic,
            soft: result.soft,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_core::static_replication;
    use laar_core::testutil::fig2_problem;

    fn fig2b() -> ActivationStrategy {
        let mut s = ActivationStrategy::all_active(2, 2, 2);
        s.set_active(0, laar_model::ConfigId(1), 1, false);
        s.set_active(1, laar_model::ConfigId(1), 0, false);
        s
    }

    /// Fig2-shaped deployment with double-capacity hosts, so the drifted
    /// High level (12 t/s) still admits single-replica strategies.
    fn roomy_fig2() -> (Application, Placement) {
        let p = fig2_problem(0.6);
        let hosts = p
            .placement
            .hosts()
            .iter()
            .map(|h| laar_model::Host {
                id: h.id,
                name: h.name.clone(),
                capacity: 2000.0,
            })
            .collect();
        let assignment = (0..4).map(|i| p.placement.host_of(i / 2, i % 2)).collect();
        let placement = Placement::new(p.app.graph(), 2, hosts, assignment).unwrap();
        (p.app.clone(), placement)
    }

    #[test]
    fn no_drift_no_decision() {
        let (app, placement) = roomy_fig2();
        let mut ac = AdaptiveController::new(&app, &placement, AdaptConfig::new(0.6));
        let inc = fig2b();
        for t in 2..30 {
            assert!(ac.observe(t as f64, &[4.0], &inc).is_none());
        }
        assert_eq!(ac.report().replans, 0);
        assert!(ac.report().detected_at.is_none());
    }

    #[test]
    fn confirmed_drift_replans_and_swaps_once() {
        let (app, placement) = roomy_fig2();
        let mut ac = AdaptiveController::new(&app, &placement, AdaptConfig::new(0.7));
        // SR is optimal at IC 0.7 under the declared descriptor (staggered
        // singles only reach 2/3); at the drifted High=12 it overloads.
        let inc = static_replication(&fig2_problem(0.7));
        let mut out = None;
        for t in 2..40 {
            if let Some(o) = ac.observe(t as f64, &[12.0], &inc) {
                out = Some((t, o));
                break;
            }
        }
        let (t, o) = out.expect("drift must eventually trigger a swap");
        // confirm=3 consecutive checks starting at t=2 → earliest t=4.
        assert!(t >= 4, "confirm hysteresis delays the decision");
        assert_eq!(o.space.rate_set(0), &[4.0, 12.0]);
        assert!(!o.strategy.fully_replicated(0, laar_model::ConfigId(1)));
        assert_eq!(ac.report().swaps, 1);
        assert_eq!(ac.report().stale_feasible, Some(false));
        // The belief was re-baselined: steady 12 t/s no longer drifts.
        for t in 41..60 {
            assert!(ac.observe(t as f64, &[12.0], &inc).is_none());
        }
        assert_eq!(ac.report().replans, 1, "one episode, one re-plan");
    }

    #[test]
    fn feasible_incumbent_needs_material_gain() {
        let (app, placement) = roomy_fig2();
        let mut ac = AdaptiveController::new(&app, &placement, AdaptConfig::new(0.6));
        // Optimal under declared *and* corrected descriptors: staggered
        // singles at High stay optimal when High merely moves 8 -> 12 on
        // 2000-cycle hosts.
        let p = Problem::new(app.clone(), placement.clone(), 0.6).unwrap();
        let opt = laar_core::ftsearch::solve(&p, &Default::default())
            .unwrap()
            .outcome
            .solution()
            .unwrap()
            .strategy
            .clone();
        for t in 2..40 {
            assert!(
                ac.observe(t as f64, &[12.0], &opt).is_none(),
                "no swap when the incumbent stays optimal"
            );
        }
        assert_eq!(ac.report().replans, 1, "it still re-planned once");
        assert_eq!(ac.report().swaps, 0);
    }
}

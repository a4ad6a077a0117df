//! Failure injection (§5.3).
//!
//! The paper evaluates three failure modes: (i) no failures (*best case*);
//! (ii) the *pessimistic worst case* of eq. 14 — one replica of each PE is
//! permanently crashed, the survivor chosen among the inactive replicas when
//! possible; (iii) a *single host crash* lasting 16 seconds (the time
//! InfoSphere Streams needs to detect the failure and migrate PEs \[19\]),
//! injected during a "High" period, followed by recovery.
//!
//! A [`FailurePlan`] describes *what* fails and when; each execution
//! backend decides *how* the failure manifests (the simulator consults
//! [`FailurePlan::is_dead`] every quantum, the live engine flips per-host
//! crash flags its workers observe) and routes the resulting transitions
//! through [`ProxyState`](crate::proxy::ProxyState).

use laar_model::{ActivationStrategy, Application, ConfigId, HostId, Placement};
use serde::{Deserialize, Serialize};

/// The failure scenario a run is subjected to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FailurePlan {
    /// Best case: nothing ever fails.
    None,
    /// Pessimistic worst case: the listed replica of each PE (indexed by
    /// dense PE index) is dead from the start and never recovers.
    WorstCase {
        /// `crashed[pe_dense]` = replica index that is permanently dead.
        crashed: Vec<usize>,
    },
    /// One host crashes at `at` seconds and recovers after `duration`
    /// seconds (the paper uses 16 s).
    HostCrash {
        /// The crashing host.
        host: HostId,
        /// Crash time (seconds from trace start).
        at: f64,
        /// Outage duration in seconds.
        duration: f64,
    },
}

impl FailurePlan {
    /// The paper's default host-outage length: 16 seconds.
    pub const STREAMS_RECOVERY_SECS: f64 = 16.0;

    /// Build the pessimistic worst-case plan for a strategy (§4.4): for each
    /// PE, crash the replica whose loss hurts most — the one that most often
    /// (weighted by `P_C`) is the *only* active replica, so the survivor is
    /// "chosen among the inactive ones". Ties crash replica 0.
    pub fn worst_case(app: &Application, strategy: &ActivationStrategy) -> Self {
        let cs = app.configs();
        let np = strategy.num_pes();
        let k = strategy.k();
        let mut crashed = Vec::with_capacity(np);
        for pe in 0..np {
            let mut best_r = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for r in 0..k {
                // Probability mass of configurations where r is the sole
                // active replica: killing r there silences the PE.
                let score: f64 = cs
                    .configs()
                    .map(|c| {
                        let solo =
                            strategy.is_active(pe, c, r) && strategy.active_count(pe, c) == 1;
                        if solo {
                            cs.prob(c)
                        } else {
                            0.0
                        }
                    })
                    .sum();
                if score > best_score {
                    best_score = score;
                    best_r = r;
                }
            }
            crashed.push(best_r);
        }
        FailurePlan::WorstCase { crashed }
    }

    /// A host crash of the paper's default length at `at` seconds.
    pub fn host_crash(host: HostId, at: f64) -> Self {
        FailurePlan::HostCrash {
            host,
            at,
            duration: Self::STREAMS_RECOVERY_SECS,
        }
    }

    /// The next time strictly after `t` at which the plan's dead-set
    /// changes. `None` and `WorstCase` never change after the start of the
    /// run (the worst-case crashes apply from `t = 0`); a host crash
    /// transitions at the outage start and again at recovery.
    pub fn next_transition(&self, t: f64) -> Option<f64> {
        match self {
            FailurePlan::None | FailurePlan::WorstCase { .. } => None,
            FailurePlan::HostCrash { at, duration, .. } => {
                if t < *at {
                    Some(*at)
                } else if t < *at + *duration {
                    Some(*at + *duration)
                } else {
                    None
                }
            }
        }
    }

    /// Is the given replica dead at time `t` under this plan?
    pub fn is_dead(&self, placement: &Placement, pe_dense: usize, replica: usize, t: f64) -> bool {
        let host = placement.host_of(pe_dense, replica).index();
        self.is_dead_on(host, pe_dense, replica, t)
    }

    /// [`Self::is_dead`] for a caller that already knows the dense index of
    /// the host the replica runs on (the simulator keeps it per slot and
    /// asks once per slot per quantum, hence the inline hint).
    #[inline]
    pub fn is_dead_on(&self, host_index: usize, pe_dense: usize, replica: usize, t: f64) -> bool {
        match self {
            FailurePlan::None => false,
            FailurePlan::WorstCase { crashed } => crashed[pe_dense] == replica,
            FailurePlan::HostCrash { host, at, duration } => {
                host_index == host.index() && t >= *at && t < *at + *duration
            }
        }
    }
}

/// Analytic sanity check used by tests and the harness: the IC that the
/// worst-case plan can cost, recomputed by silencing the crashed replicas in
/// the strategy — every configuration where the crashed replica was the only
/// active one contributes nothing.
pub fn strategy_after_worst_case(
    strategy: &ActivationStrategy,
    crashed: &[usize],
) -> ActivationStrategy {
    let mut s = strategy.clone();
    for (pe, &r) in crashed.iter().enumerate() {
        for c in 0..s.num_configs() {
            s.set_active(pe, ConfigId(c as u32), r, false);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_core::testutil::fig2_problem;
    use laar_core::{ftsearch, FtSearchConfig};

    #[test]
    fn worst_case_kills_solo_active_replica() {
        let p = fig2_problem(0.6);
        // Fig. 2b-like strategy: both at Low; at High only replica 0 of pe0
        // and only replica 1 of pe1.
        let mut s = laar_model::ActivationStrategy::all_active(2, 2, 2);
        s.set_active(0, ConfigId(1), 1, false);
        s.set_active(1, ConfigId(1), 0, false);
        let plan = FailurePlan::worst_case(&p.app, &s);
        match &plan {
            FailurePlan::WorstCase { crashed } => {
                assert_eq!(crashed, &vec![0, 1]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn worst_case_on_all_active_strategy_kills_replica_zero() {
        let p = fig2_problem(0.5);
        let s = laar_model::ActivationStrategy::all_active(2, 2, 2);
        let plan = FailurePlan::worst_case(&p.app, &s);
        match &plan {
            FailurePlan::WorstCase { crashed } => assert_eq!(crashed, &vec![0, 0]),
            _ => panic!(),
        }
    }

    #[test]
    fn is_dead_semantics() {
        let p = fig2_problem(0.5);
        let plan = FailurePlan::WorstCase {
            crashed: vec![1, 0],
        };
        assert!(plan.is_dead(&p.placement, 0, 1, 0.0));
        assert!(!plan.is_dead(&p.placement, 0, 0, 1e9));
        assert!(plan.is_dead(&p.placement, 1, 0, 42.0));

        let crash = FailurePlan::host_crash(HostId(0), 100.0);
        // pe0 replica 0 is on host 0.
        assert!(!crash.is_dead(&p.placement, 0, 0, 99.0));
        assert!(crash.is_dead(&p.placement, 0, 0, 100.0));
        assert!(crash.is_dead(&p.placement, 0, 0, 115.9));
        assert!(!crash.is_dead(&p.placement, 0, 0, 116.0));
        // pe0 replica 1 is on host 1: unaffected.
        assert!(!crash.is_dead(&p.placement, 0, 1, 105.0));
    }

    #[test]
    fn silenced_strategy_ic_matches_pessimistic_bound() {
        // Crashing per the worst-case plan and evaluating with NoFailure on
        // the silenced strategy must give IC >= the pessimistic IC of the
        // original (the bound is conservative; single-active configurations
        // whose sole replica survives still count at runtime).
        let p = fig2_problem(0.5);
        let report = ftsearch::solve(&p, &FtSearchConfig::default()).unwrap();
        let sol = report.outcome.solution().expect("feasible");
        let plan = FailurePlan::worst_case(&p.app, &sol.strategy);
        let crashed = match &plan {
            FailurePlan::WorstCase { crashed } => crashed.clone(),
            _ => unreachable!(),
        };
        let silenced = strategy_after_worst_case(&sol.strategy, &crashed);
        let ev = p.ic_evaluator();
        // The silenced strategy, evaluated as "whatever is still active
        // processes" (phi = 1 if any replica active), i.e. with the
        // active_count >= 1 criterion:
        struct AnyActive;
        impl laar_core::FailureModel for AnyActive {
            fn phi(&self, pe: usize, c: ConfigId, s: &laar_model::ActivationStrategy) -> f64 {
                if s.active_count(pe, c) >= 1 {
                    1.0
                } else {
                    0.0
                }
            }
            fn name(&self) -> &'static str {
                "any-active"
            }
        }
        let realized = ev.fic(&silenced, &AnyActive) / ev.bic();
        let bound = sol.ic;
        assert!(
            realized >= bound - 1e-9,
            "realized {realized} below bound {bound}"
        );
    }
}

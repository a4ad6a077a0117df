//! Drift detection over measured source rates.
//!
//! The Rate Monitor (§4.6) yields one measured rate per source every
//! control interval. The [`DriftDetector`] folds those measurements into
//! per-(source, declared-level) EWMA estimates — each measurement is
//! classified to the nearest *declared* rate level and sharpens that
//! level's estimate — plus an occupancy histogram over the declared
//! configuration lattice. Drift is declared when the worst relative
//! deviation of any estimated level from its declared value leaves a
//! hysteresis band for several consecutive checks, and cleared only when
//! it falls back under a strictly lower exit threshold: the
//! enter/confirm/exit structure is what keeps the adaptation loop from
//! oscillating on measurement noise (the standard windowed/weighted
//! estimator discipline of streaming autoscalers).
//!
//! Under the linear load model every per-configuration rate, CPU load, and
//! cost term is linear in the source rates (eqs. 5–13), so a relative
//! deviation of `ε` on a rate level bounds the relative error of every
//! number the incumbent strategy was optimized against by the same `ε` —
//! the enter threshold is therefore a direct bound on how wrong the
//! incumbent's cost/IC figures may already be.
//!
//! The re-estimated descriptor is *quantized*: estimated levels snap to a
//! relative grid around the declared value. Quantization makes the
//! re-estimation deterministic across engines — the virtual-time simulator
//! and the wall-clock runtime measure minutely different rates, but both
//! land on the same grid point, re-derive the same descriptor, and (with a
//! node-budgeted re-plan) install the identical strategy.

use laar_model::{ConfigSpace, DescriptorEstimate};

/// Estimator and hysteresis parameters of the drift detector.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// EWMA weight of a new measurement (0 < α ≤ 1).
    pub alpha: f64,
    /// Relative level deviation at which drift is suspected.
    pub enter: f64,
    /// Relative level deviation below which drift clears (must be below
    /// `enter`: the gap is the hysteresis band).
    pub exit: f64,
    /// Consecutive suspicious checks before drift is *declared*.
    pub confirm: u32,
    /// Relative quantization grid for re-estimated levels: an estimate
    /// `factor × declared` snaps to the nearest multiple of `quantum` in
    /// `factor`. Coarse on purpose — see the module docs on determinism.
    pub quantum: f64,
    /// Also re-estimate the configuration pmf from observed occupancy.
    /// Off by default: short observation windows say little about the
    /// long-run mixture, and the rate levels are what the CPU constraint
    /// feels.
    pub reestimate_probs: bool,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            enter: 0.2,
            exit: 0.1,
            confirm: 3,
            quantum: 0.25,
            reestimate_probs: false,
        }
    }
}

/// Windowed/EWMA drift detector over one declared configuration space.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftConfig,
    /// The declared descriptor: rate levels, pmf and configuration encoding.
    space: ConfigSpace,
    /// EWMA estimate per (source, level), initialized to the declared value.
    ewma: Vec<Vec<f64>>,
    /// Measurements folded into each (source, level) estimate.
    seen: Vec<Vec<u64>>,
    /// Observed occupancy per configuration (each check classifies the full
    /// measured vector to its nearest configuration).
    occupancy: Vec<u64>,
    streak: u32,
    drifted: bool,
    deviation: f64,
}

impl DriftDetector {
    /// A detector calibrated against the declared `space`.
    pub fn new(space: &ConfigSpace, cfg: DriftConfig) -> Self {
        assert!(cfg.alpha > 0.0 && cfg.alpha <= 1.0);
        assert!(cfg.exit < cfg.enter, "hysteresis band must be non-empty");
        assert!(cfg.quantum > 0.0);
        let declared = || (0..space.num_sources()).map(|s| space.rate_set(s));
        Self {
            cfg,
            ewma: declared().map(<[f64]>::to_vec).collect(),
            seen: declared().map(|r| vec![0; r.len()]).collect(),
            occupancy: vec![0; space.num_configs()],
            space: space.clone(),
            streak: 0,
            drifted: false,
            deviation: 0.0,
        }
    }

    /// Index of the declared level nearest to `rate` (lowest index wins
    /// ties — deterministic across engines).
    fn classify(levels: &[f64], rate: f64) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (l, &v) in levels.iter().enumerate() {
            let d = (rate - v).abs();
            if d < best_d {
                best_d = d;
                best = l;
            }
        }
        best
    }

    /// Fold one measured rate vector (one per source) into the estimators
    /// and update the hysteresis state.
    pub fn observe(&mut self, rates: &[f64]) {
        let space = &self.space;
        let config = space.config_from_indices((0..space.num_sources()).map(|s| {
            let r = rates.get(s).copied().unwrap_or(0.0);
            let l = Self::classify(space.rate_set(s), r);
            let e = &mut self.ewma[s][l];
            *e = self.cfg.alpha * r + (1.0 - self.cfg.alpha) * *e;
            self.seen[s][l] += 1;
            l
        }));
        self.occupancy[config.index()] += 1;

        // Worst relative deviation over levels with at least one sample.
        let mut dev = 0.0f64;
        for s in 0..self.space.num_sources() {
            for (l, &d) in self.space.rate_set(s).iter().enumerate() {
                if self.seen[s][l] > 0 && d > 0.0 {
                    dev = dev.max((self.ewma[s][l] - d).abs() / d);
                }
            }
        }
        self.deviation = dev;

        if self.drifted {
            if dev <= self.cfg.exit {
                self.drifted = false;
                self.streak = 0;
            }
        } else if dev >= self.cfg.enter {
            self.streak += 1;
            if self.streak >= self.cfg.confirm {
                self.drifted = true;
            }
        } else {
            self.streak = 0;
        }
    }

    /// `true` while the observed distribution is declared to have drifted
    /// from the descriptor (hysteresis applied).
    #[inline]
    pub fn drifted(&self) -> bool {
        self.drifted
    }

    /// The current worst relative level deviation — under the linear load
    /// model, a bound on the relative cost/load error of any strategy
    /// optimized against the declared descriptor.
    #[inline]
    pub fn deviation(&self) -> f64 {
        self.deviation
    }

    /// The quantized re-estimated descriptor: levels with samples snap to
    /// the relative grid, unobserved levels keep their declared values, and
    /// levels are kept non-decreasing (a drifted-up lower level never
    /// crosses above its neighbor). The pmf is re-estimated from occupancy
    /// only when [`DriftConfig::reestimate_probs`] is set.
    pub fn estimate(&self) -> DescriptorEstimate {
        let mut rates = Vec::with_capacity(self.space.num_sources());
        for s in 0..self.space.num_sources() {
            let levels = self.space.rate_set(s);
            let mut out = Vec::with_capacity(levels.len());
            let mut prev = 0.0f64;
            for (l, &d) in levels.iter().enumerate() {
                let mut v = d;
                if self.seen[s][l] > 0 && d > 0.0 {
                    let factor =
                        (self.ewma[s][l] / d / self.cfg.quantum).round() * self.cfg.quantum;
                    v = d * factor.max(self.cfg.quantum);
                }
                v = v.max(prev);
                prev = v;
                out.push(v);
            }
            rates.push(out);
        }
        let total: u64 = self.occupancy.iter().sum();
        let probs = if self.cfg.reestimate_probs && total > 0 {
            self.occupancy
                .iter()
                .map(|&n| n as f64 / total as f64)
                .collect()
        } else {
            self.space.configs().map(|c| self.space.prob(c)).collect()
        };
        DescriptorEstimate { rates, probs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_model::GraphBuilder;

    fn space() -> ConfigSpace {
        let mut b = GraphBuilder::new();
        let s = b.add_source("s");
        let p = b.add_pe("p");
        let k = b.add_sink("k");
        b.connect(s, p, 1.0, 100.0).unwrap();
        b.connect_sink(p, k).unwrap();
        let g = b.build().unwrap();
        ConfigSpace::new(&g, vec![vec![4.0, 8.0]], vec![0.8, 0.2]).unwrap()
    }

    #[test]
    fn no_drift_on_declared_rates() {
        let mut d = DriftDetector::new(&space(), DriftConfig::default());
        for _ in 0..20 {
            d.observe(&[4.0]);
            d.observe(&[8.0]);
        }
        assert!(!d.drifted());
        assert!(d.deviation() < 1e-9);
        let e = d.estimate();
        assert_eq!(e.rates, vec![vec![4.0, 8.0]]);
    }

    #[test]
    fn sustained_drift_is_confirmed_then_estimated() {
        let mut d = DriftDetector::new(&space(), DriftConfig::default());
        d.observe(&[12.0]);
        d.observe(&[12.0]);
        assert!(!d.drifted(), "needs `confirm` consecutive checks");
        for _ in 0..6 {
            d.observe(&[12.0]);
        }
        assert!(d.drifted());
        let e = d.estimate();
        // EWMA has converged close to 12; the 0.25 grid snaps to 1.5×8.
        assert_eq!(e.rates[0][1], 12.0);
        assert_eq!(e.rates[0][0], 4.0, "unobserved level keeps declared");
    }

    #[test]
    fn transient_spike_does_not_trigger() {
        let mut d = DriftDetector::new(&space(), DriftConfig::default());
        for _ in 0..10 {
            d.observe(&[8.0]);
        }
        d.observe(&[12.0]); // one bad check
        for _ in 0..10 {
            d.observe(&[8.0]);
        }
        assert!(!d.drifted());
    }

    #[test]
    fn hysteresis_clears_only_below_exit() {
        let cfg = DriftConfig {
            confirm: 1,
            ..DriftConfig::default()
        };
        let mut d = DriftDetector::new(&space(), cfg);
        for _ in 0..8 {
            d.observe(&[12.0]);
        }
        assert!(d.drifted());
        // Deviation decays toward zero only as declared-rate checks pull
        // the EWMA back; while inside the band (exit < dev < enter) the
        // drifted state must hold.
        let mut was_inside_band = false;
        for _ in 0..40 {
            d.observe(&[8.0]);
            if d.deviation() > 0.1 && d.deviation() < 0.2 {
                was_inside_band = true;
                assert!(d.drifted(), "must not clear inside the band");
            }
        }
        assert!(was_inside_band);
        assert!(!d.drifted(), "cleared once below exit");
    }

    #[test]
    fn quantization_absorbs_measurement_jitter() {
        let mut a = DriftDetector::new(&space(), DriftConfig::default());
        let mut b = DriftDetector::new(&space(), DriftConfig::default());
        for _ in 0..10 {
            a.observe(&[12.0]); // the simulator's exact measurement
            b.observe(&[11.82]); // the live engine's jittered one
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn occupancy_reestimates_probs_when_enabled() {
        let cfg = DriftConfig {
            reestimate_probs: true,
            ..DriftConfig::default()
        };
        let mut d = DriftDetector::new(&space(), cfg);
        for _ in 0..3 {
            d.observe(&[4.0]);
        }
        d.observe(&[8.0]);
        let e = d.estimate();
        assert_eq!(e.probs, vec![0.75, 0.25]);
    }

    #[test]
    fn levels_stay_monotone_after_estimation() {
        // The Low level drifts up past the declared High level; the
        // estimate must stay non-decreasing so the config lattice keeps
        // its meaning.
        let mut d = DriftDetector::new(&space(), DriftConfig::default());
        for _ in 0..20 {
            d.observe(&[5.9]); // classified Low (nearest 4), ewma -> 5.9
        }
        let e = d.estimate();
        assert!(e.rates[0][0] <= e.rates[0][1]);
    }
}

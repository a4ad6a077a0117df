//! Metrics collected by the simulator — the quantities the paper's
//! evaluation reports (Figs. 3, 9–12).

use laar_exec::Conservation;
use serde::{Deserialize, Serialize};

/// Per-second time series of a rate (tuples/s) or utilization.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// One sample per second of simulated time.
    pub samples: Vec<f64>,
}

impl TimeSeries {
    /// Mean over a window `[from, to)` of seconds (clamped to the data).
    pub fn mean_over(&self, from: f64, to: f64) -> f64 {
        let a = (from.max(0.0) as usize).min(self.samples.len());
        let b = (to.max(0.0) as usize).min(self.samples.len());
        if b <= a {
            return 0.0;
        }
        self.samples[a..b].iter().sum::<f64>() / (b - a) as f64
    }

    /// Mean over the whole series.
    pub fn mean(&self) -> f64 {
        self.mean_over(0.0, self.samples.len() as f64)
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Add another series sample-by-sample (used to merge per-thread series
    /// collected by the live runtime). The result has the longer length.
    pub fn merge(&mut self, other: &TimeSeries) {
        if other.samples.len() > self.samples.len() {
            self.samples.resize(other.samples.len(), 0.0);
        }
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            *a += *b;
        }
    }

    /// The `p`-th percentile of the samples (`p` in `[0, 100]`), by nearest-
    /// rank on a sorted copy: `p = 0` is the minimum, `p = 100` the maximum.
    /// Returns 0 for an empty series.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let frac = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
        sorted[frac.round() as usize]
    }
}

/// Streaming end-to-end latency statistics: fixed 10 ms histogram buckets
/// over `[0, 10 s)` plus an overflow bucket, enough for mean/max and
/// percentile queries without storing samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Bucket width in seconds.
    pub bucket_width: f64,
    /// Counts per bucket; the last bucket collects overflow.
    pub buckets: Vec<u64>,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (seconds).
    pub sum: f64,
    /// Maximum sample (seconds).
    pub max: f64,
}

impl Default for LatencyStats {
    fn default() -> Self {
        Self {
            bucket_width: 0.01,
            buckets: vec![0; 1001],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }
}

impl LatencyStats {
    /// Record one latency sample (seconds).
    pub fn record(&mut self, latency: f64) {
        let l = latency.max(0.0);
        let b = ((l / self.bucket_width) as usize).min(self.buckets.len() - 1);
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += l;
        self.max = self.max.max(l);
    }

    /// Mean latency in seconds (0 with no samples).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merge another histogram into this one. Both must share the same
    /// bucket layout (the live runtime merges per-host-thread histograms
    /// built from the same `Default` layout).
    pub fn merge(&mut self, other: &LatencyStats) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "bucket width mismatch"
        );
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Approximate `q`-quantile (`0 < q <= 1`) from the histogram: the upper
    /// edge of the bucket containing the quantile rank.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank.max(1) {
                return (i + 1) as f64 * self.bucket_width;
            }
        }
        self.max
    }
}

/// Everything measured during one simulation run.
///
/// `PartialEq` compares every field bit-for-bit (floats included): the
/// equivalence suite asserts that the horizon jump and every thread count
/// agree with the every-quantum march *exactly*, not within a tolerance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Simulated duration (seconds).
    pub duration: f64,
    /// Tuples emitted by each source.
    pub source_emitted: Vec<u64>,
    /// CPU seconds consumed on each host (cycles used / capacity).
    pub host_cpu_seconds: Vec<f64>,
    /// Logical tuples processed per PE (tuples processed by the replica that
    /// was primary at the time — secondaries mirror the same logical work).
    pub pe_processed: Vec<u64>,
    /// Tuples dropped because an input queue was full.
    pub queue_drops: u64,
    /// Tuples discarded because the receiving replica was idle
    /// (deactivated), dead, or re-synchronizing. Not counted as queue drops:
    /// the paper's Fig. 9 counts only queue-overflow losses.
    pub idle_discards: u64,
    /// Tuples received by each sink.
    pub sink_received: Vec<u64>,
    /// Per-second total source input rate.
    pub input_rate: TimeSeries,
    /// Per-second total sink output rate.
    pub output_rate: TimeSeries,
    /// Per-second CPU utilization (0–1) per host.
    pub host_utilization: Vec<TimeSeries>,
    /// Configuration switches performed by the HAController.
    pub config_switches: u64,
    /// Activation/deactivation commands delivered to replicas.
    pub commands_applied: u64,
    /// Primary fail-overs (a secondary promoted after a failure).
    pub failovers: u64,
    /// End-to-end latency of tuples reaching the sinks (source birth to
    /// sink delivery).
    pub latency: LatencyStats,
    /// Per replica (dense `pe * k + r`): tuples processed per input port —
    /// the raw material for descriptor profiling.
    pub replica_port_processed: Vec<Vec<u64>>,
    /// Per replica: output tuples emitted (forwarded or not).
    pub replica_emitted: Vec<u64>,
    /// Per replica: CPU cycles consumed.
    pub replica_cycles: Vec<f64>,
    /// Strategy hot-swaps performed by the online adaptation subsystem
    /// (`laar-adapt`), when enabled.
    pub strategy_swaps: u64,
    /// Control-plane passes during an in-flight swap in which some PE had
    /// no elected primary. The two-phase swap protocol keeps the union of
    /// the old and new activations live, so this should stay zero unless
    /// failures overlap the swap window.
    pub swap_downtime_quanta: u64,
    /// Source tuples emitted during those degraded passes — the tuple-
    /// denominated swap downtime.
    pub swap_downtime_tuples: u64,
    /// The full tuple-conservation ledger of the run. For the simulator the
    /// transport terms (`transport_dropped`, `ring_residual`) are zero by
    /// construction and the ledger balances exactly; the live runtime fills
    /// them from its SPSC rings. `queue_drops`/`idle_discards` above are the
    /// corresponding ledger entries, kept flat for convenience.
    pub conservation: Conservation,
}

impl SimMetrics {
    /// Total CPU seconds across hosts.
    pub fn total_cpu_seconds(&self) -> f64 {
        self.host_cpu_seconds.iter().sum()
    }

    /// Total logical tuples processed by all PEs — the "samples processed"
    /// quantity of Fig. 11.
    pub fn total_processed(&self) -> u64 {
        self.pe_processed.iter().sum()
    }

    /// Total tuples received by all sinks.
    pub fn total_sink_output(&self) -> u64 {
        self.sink_received.iter().sum()
    }

    /// Mean output rate during `[from, to)` — used for the load-peak output
    /// rate of Fig. 10.
    pub fn output_rate_over(&self, from: f64, to: f64) -> f64 {
        self.output_rate.mean_over(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_windows() {
        let ts = TimeSeries {
            samples: vec![1.0, 2.0, 3.0, 4.0],
        };
        assert!((ts.mean() - 2.5).abs() < 1e-12);
        assert!((ts.mean_over(1.0, 3.0) - 2.5).abs() < 1e-12);
        assert_eq!(ts.mean_over(10.0, 20.0), 0.0);
        assert_eq!(ts.max(), 4.0);
    }

    #[test]
    fn latency_stats_mean_and_quantiles() {
        let mut l = LatencyStats::default();
        for i in 1..=100 {
            l.record(i as f64 * 0.01); // 10 ms .. 1 s
        }
        assert_eq!(l.count, 100);
        assert!((l.mean() - 0.505).abs() < 1e-9);
        assert!((l.max - 1.0).abs() < 1e-12);
        let p50 = l.quantile(0.5);
        assert!((0.45..=0.56).contains(&p50), "p50 = {p50}");
        let p99 = l.quantile(0.99);
        assert!(p99 >= 0.98, "p99 = {p99}");
        assert_eq!(LatencyStats::default().quantile(0.5), 0.0);
    }

    #[test]
    fn latency_overflow_bucket() {
        let mut l = LatencyStats::default();
        l.record(42.0);
        assert_eq!(l.count, 1);
        assert_eq!(l.max, 42.0);
        assert_eq!(*l.buckets.last().unwrap(), 1);
    }

    #[test]
    fn time_series_percentiles() {
        let ts = TimeSeries {
            samples: vec![4.0, 1.0, 3.0, 2.0, 5.0],
        };
        assert_eq!(ts.percentile(0.0), 1.0);
        assert_eq!(ts.percentile(50.0), 3.0);
        assert_eq!(ts.percentile(100.0), 5.0);
        // Out-of-range p clamps rather than panicking.
        assert_eq!(ts.percentile(-10.0), 1.0);
        assert_eq!(ts.percentile(250.0), 5.0);
        // Empty series yields 0 (matches mean()/max() conventions).
        assert_eq!(TimeSeries::default().percentile(50.0), 0.0);
        // Single sample: every percentile is that sample.
        let one = TimeSeries { samples: vec![7.0] };
        assert_eq!(one.percentile(0.0), 7.0);
        assert_eq!(one.percentile(99.0), 7.0);
    }

    #[test]
    fn latency_quantile_lands_in_overflow_bucket() {
        // All mass beyond the histogram range: quantiles must still answer
        // (the overflow bucket's upper edge), never scan past the end.
        let mut l = LatencyStats::default();
        for _ in 0..10 {
            l.record(99.0);
        }
        let p50 = l.quantile(0.5);
        let histogram_span = l.bucket_width * l.buckets.len() as f64;
        assert!(p50 >= histogram_span - 1e-9, "p50 = {p50}");
        assert_eq!(l.max, 99.0);
    }

    #[test]
    fn latency_empty_stats_are_all_zero() {
        let l = LatencyStats::default();
        assert_eq!(l.count, 0);
        assert_eq!(l.mean(), 0.0);
        assert_eq!(l.max, 0.0);
        assert_eq!(l.quantile(0.0), 0.0);
        assert_eq!(l.quantile(1.0), 0.0);
    }

    #[test]
    fn latency_negative_samples_clamp_to_zero_bucket() {
        let mut l = LatencyStats::default();
        l.record(-1.0);
        assert_eq!(l.count, 1);
        assert_eq!(l.buckets[0], 1);
        assert_eq!(l.sum, 0.0);
    }

    #[test]
    fn time_series_merge_pads_shorter_series() {
        let mut a = TimeSeries {
            samples: vec![1.0, 2.0],
        };
        a.merge(&TimeSeries {
            samples: vec![10.0, 10.0, 10.0],
        });
        assert_eq!(a.samples, vec![11.0, 12.0, 10.0]);
    }

    #[test]
    fn latency_merge_combines_histograms() {
        let mut a = LatencyStats::default();
        let mut b = LatencyStats::default();
        a.record(0.1);
        b.record(0.3);
        b.record(42.0); // overflow bucket
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.max, 42.0);
        assert!((a.sum - 42.4).abs() < 1e-9);
        assert_eq!(*a.buckets.last().unwrap(), 1);
        // Quantiles answer over the combined mass.
        assert!(a.quantile(0.3) <= 0.2);
    }

    #[test]
    fn aggregates() {
        let m = SimMetrics {
            host_cpu_seconds: vec![1.5, 2.5],
            pe_processed: vec![10, 20, 30],
            sink_received: vec![7, 3],
            ..Default::default()
        };
        assert!((m.total_cpu_seconds() - 4.0).abs() < 1e-12);
        assert_eq!(m.total_processed(), 60);
        assert_eq!(m.total_sink_output(), 10);
    }
}

//! # laar-runtime
//!
//! A live, multi-threaded execution engine for LAAR applications — the
//! same [`laar_model::Application`] + [`laar_model::Placement`] +
//! [`laar_model::ActivationStrategy`] the simulator takes, executed on
//! real OS threads with the simulator as its oracle.
//!
//! The engine maps each host of the placement onto one worker thread;
//! replicas placed on a host are multiplexed on its thread under the same
//! water-filling processor sharing the simulator models. Tuples travel
//! between threads through bounded lock-free SPSC rings with
//! drop-on-overflow, sources are paced by a scaled wall clock, and the
//! LAAR control loop (Rate Monitor → HAController → activation commands →
//! HAProxy-style primary election with heartbeat failure detection) runs
//! live on the coordinator thread. See [`engine`] for the architecture and
//! the documented divergence tolerance versus the simulator.
//!
//! ```no_run
//! use laar_runtime::{LiveRuntime, RuntimeConfig};
//! # fn demo(app: &laar_model::Application, placement: &laar_model::Placement,
//! #         strategy: laar_model::ActivationStrategy, trace: &laar_dsps::InputTrace) {
//! let report = LiveRuntime::new(
//!     app,
//!     placement,
//!     strategy,
//!     trace,
//!     laar_dsps::FailurePlan::None,
//!     RuntimeConfig::accelerated(25.0), // 25x faster than real time
//! )
//! .run();
//! assert!(report.conservation.is_balanced());
//! println!("processed {} tuples", report.metrics.total_processed());
//! # }
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod engine;
pub mod spsc;

pub use clock::ScaledClock;
pub use engine::{
    Conservation, LiveReport, LiveRuntime, RuntimeConfig, TransportEdge, TransportFrom,
};

#[cfg(test)]
mod tests {
    use super::*;
    use laar_core::testutil::fig2_problem;
    use laar_dsps::trace::InputTrace;
    use laar_dsps::FailurePlan;
    use laar_model::{ActivationStrategy, ConfigId};

    fn fig2_strategy_laar() -> ActivationStrategy {
        let mut s = ActivationStrategy::all_active(2, 2, 2);
        s.set_active(0, ConfigId(1), 1, false);
        s.set_active(1, ConfigId(1), 0, false);
        s
    }

    fn fast() -> RuntimeConfig {
        RuntimeConfig::accelerated(40.0)
    }

    #[test]
    fn clean_run_processes_and_conserves() {
        let p = fig2_problem(0.6);
        let trace = InputTrace::constant(&[4.0], 20.0);
        let report = LiveRuntime::new(
            &p.app,
            &p.placement,
            ActivationStrategy::all_active(2, 2, 2),
            &trace,
            FailurePlan::None,
            fast(),
        )
        .run();
        let m = &report.metrics;
        // Emission is exact: 4 t/s for 20 s.
        assert_eq!(m.source_emitted[0], 80);
        assert!(
            report.conservation.is_balanced(),
            "ledger {:?}",
            report.conservation
        );
        // The pipeline is unloaded: most tuples flow through to the sink.
        assert!(
            m.total_sink_output() >= 60,
            "sink got {} of 80",
            m.total_sink_output()
        );
        assert_eq!(m.replica_emitted.len(), 4);
        assert!(m.latency.count > 0);
    }

    #[test]
    fn controller_switches_configurations_live() {
        // Fig. 3b live: the LAAR strategy deactivates replicas during the
        // High phase and reactivates them after — the control loop must
        // observe the measured rates and issue the switches in real time.
        let p = fig2_problem(0.6);
        let trace = InputTrace::low_high_centered(4.0, 8.0, 60.0, 1.0 / 3.0);
        let report = LiveRuntime::new(
            &p.app,
            &p.placement,
            fig2_strategy_laar(),
            &trace,
            FailurePlan::None,
            fast(),
        )
        .run();
        let m = &report.metrics;
        assert!(
            m.config_switches >= 2,
            "Low->High->Low expected, got {}",
            m.config_switches
        );
        assert!(m.commands_applied > 0);
        // Output keeps up with input during the High window.
        let in_high = m.input_rate.mean_over(25.0, 40.0);
        let out_high = m.output_rate.mean_over(25.0, 40.0);
        assert!(
            out_high > in_high * 0.7,
            "in {in_high} vs out {out_high} should keep up"
        );
        assert!(report.conservation.is_balanced());
    }

    #[test]
    fn worst_case_with_nr_strategy_silences_the_pipeline() {
        let p = fig2_problem(0.6);
        let mut nr = ActivationStrategy::all_inactive(2, 2, 2);
        for pe in 0..2 {
            for c in 0..2 {
                nr.set_active(pe, ConfigId(c), 0, true);
            }
        }
        let plan = FailurePlan::worst_case(&p.app, &nr);
        let trace = InputTrace::constant(&[4.0], 10.0);
        let report = LiveRuntime::new(&p.app, &p.placement, nr, &trace, plan, fast()).run();
        assert_eq!(report.metrics.total_sink_output(), 0);
        assert!(report.conservation.is_balanced());
    }

    #[test]
    fn host_crash_fails_over_and_output_survives() {
        let p = fig2_problem(0.6);
        let trace = InputTrace::constant(&[4.0], 40.0);
        let plan = FailurePlan::host_crash(laar_model::HostId(0), 10.0);
        let report = LiveRuntime::new(
            &p.app,
            &p.placement,
            ActivationStrategy::all_active(2, 2, 2),
            &trace,
            plan,
            fast(),
        )
        .run();
        let m = &report.metrics;
        assert!(m.failovers >= 2, "failovers = {}", m.failovers);
        assert!(
            m.total_sink_output() as f64 >= 0.7 * m.source_emitted[0] as f64,
            "output {} of input {}",
            m.total_sink_output(),
            m.source_emitted[0]
        );
        assert!(report.conservation.is_balanced());
    }

    #[test]
    fn zero_length_trace_returns_an_empty_balanced_report() {
        // `seconds` is clamped to one bucket, so neither the worker's nor
        // the coordinator's `seconds - 1` can underflow.
        let p = fig2_problem(0.6);
        let trace = InputTrace::constant(&[4.0], 0.0);
        let report = LiveRuntime::new(
            &p.app,
            &p.placement,
            ActivationStrategy::all_active(2, 2, 2),
            &trace,
            FailurePlan::None,
            fast(),
        )
        .run();
        let m = &report.metrics;
        assert_eq!(m.source_emitted, vec![0]);
        assert_eq!(m.total_processed(), 0);
        assert_eq!(m.total_sink_output(), 0);
        assert_eq!(report.conservation, Conservation::default());
        assert!(report.conservation.is_balanced());
        assert!(report
            .transport_edges
            .iter()
            .all(|e| e.pushed == 0 && e.dropped == 0));
        assert_eq!(m.replica_emitted, vec![0; 4]);
    }
}

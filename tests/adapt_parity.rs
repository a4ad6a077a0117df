//! End-to-end online adaptation: a drifting trace through both engines
//! with `laar-adapt` enabled — drift detection → warm-started re-plan →
//! live hot-swap — asserting that
//!
//! * both engines detect the drift and install the **same** strategy (the
//!   quantized descriptor re-estimation and the node-limited re-plan make
//!   the decision deterministic, machine speed and clock notwithstanding);
//! * the two-phase swap never leaves a PE without an active replica and
//!   the conservation ledger stays balanced through the swap;
//! * the adapted run strictly beats riding the stale strategy on drops
//!   and delivered output.
//!
//! The fixture: Fig. 2 on double-capacity hosts,
//! declared High = 8 t/s, optimal incumbent at IC 0.7 = all replicas
//! active. The source then sustains 12 t/s: all-active demands 2400 >
//! 2000 cycles/s per host (drops), while staggered single replicas fit at
//! 1200 — but only reach IC 2/3 < 0.7, so the re-plan must take the exact
//! penalty-model fallback and still come out ahead.
//!
//! Set `CI_FAST=1` to accelerate the live engine 400× (vs 40×).

use laar::adapt::AdaptConfig;
use laar::core::ftsearch::{self, FtSearchConfig};
use laar::core::testutil::fig2_problem;
use laar::prelude::*;

const REL_TOL: f64 = 0.12;

const DURATION: f64 = 30.0;
const DRIFT_AT: f64 = 10.0;

fn cfgs() -> (RuntimeConfig, SimConfig) {
    let fast = std::env::var("CI_FAST").map(|v| v == "1").unwrap_or(false);
    let scale = if fast { 400.0 } else { 40.0 };
    let mut rt = RuntimeConfig::accelerated(scale);
    rt.detection_delay = rt.detection_delay.max(0.02 * scale);
    rt.adapt = Some(AdaptConfig::new(0.7));
    let sim = rt.sim_config();
    (rt, sim)
}

/// Fig. 2 on 2000-cycle hosts: room for single replicas at the drifted
/// rate, not for all-active.
fn fixture() -> (Application, Placement) {
    let p = fig2_problem(0.7);
    let hosts = p
        .placement
        .hosts()
        .iter()
        .map(|h| Host {
            id: h.id,
            name: h.name.clone(),
            capacity: 2000.0,
        })
        .collect();
    let assignment = (0..4).map(|i| p.placement.host_of(i / 2, i % 2)).collect();
    let placement = Placement::new(p.app.graph(), 2, hosts, assignment).unwrap();
    (p.app.clone(), placement)
}

fn drift_trace() -> InputTrace {
    InputTrace {
        schedules: vec![RateSchedule::from_segments(vec![
            (0.0, 4.0),
            (DRIFT_AT, 12.0),
        ])],
        duration: DURATION,
    }
}

/// The declared-optimal incumbent at IC 0.7 (all replicas active).
fn incumbent(app: &Application, placement: &Placement) -> ActivationStrategy {
    let p = Problem::new(app.clone(), placement.clone(), 0.7).unwrap();
    ftsearch::solve(&p, &FtSearchConfig::default())
        .unwrap()
        .outcome
        .solution()
        .expect("declared descriptor is feasible at IC 0.7")
        .strategy
        .clone()
}

fn close(live: u64, sim: u64, what: &str) {
    let rel = (live as f64 - sim as f64).abs() / (sim as f64).max(1.0);
    assert!(
        rel <= REL_TOL,
        "{what}: live {live} vs sim {sim} diverges by {:.1}% (> {:.0}%)",
        100.0 * rel,
        100.0 * REL_TOL
    );
}

#[test]
fn drift_triggers_detection_replan_and_swap_in_both_engines() {
    let (app, placement) = fixture();
    let trace = drift_trace();
    let stale = incumbent(&app, &placement);
    let (rt_cfg, sim_cfg) = cfgs();

    // Control: ride the stale strategy to the end.
    let stale_m = Simulation::new(
        &app,
        &placement,
        stale.clone(),
        &trace,
        FailurePlan::None,
        SimConfig {
            adapt: None,
            ..sim_cfg.clone()
        },
    )
    .run();
    assert!(
        stale_m.queue_drops > 0,
        "the drifted rate must overload the stale strategy for this test to bite"
    );

    // Adapted simulator run.
    let (sim_m, sim_report) = Simulation::new(
        &app,
        &placement,
        stale.clone(),
        &trace,
        FailurePlan::None,
        sim_cfg,
    )
    .run_adaptive();
    let sim_report = sim_report.expect("adapt enabled");

    // The loop closed: detection after the drift, one re-plan (the soft
    // fallback — IC 0.7 is unreachable at 12 t/s), one swap.
    let detected = sim_report.detected_at.expect("drift must be detected");
    assert!(detected >= DRIFT_AT, "detected at {detected}");
    assert_eq!(sim_report.swaps, 1);
    assert_eq!(sim_report.soft_fallbacks, 1);
    assert_eq!(sim_report.stale_feasible, Some(false));
    assert_eq!(sim_m.strategy_swaps, 1);

    // The swap was clean: no control pass saw a primary-less PE, and the
    // ledger balances through the Activate/Deactivate churn.
    assert_eq!(sim_m.swap_downtime_quanta, 0, "two-phase swap leaked");
    assert_eq!(sim_m.swap_downtime_tuples, 0);
    assert!(sim_m.conservation.is_balanced(), "{:?}", sim_m.conservation);

    // Adapting beats riding the stale strategy: fewer drops, more output.
    assert!(
        sim_m.queue_drops < stale_m.queue_drops,
        "adapted {} vs stale {} drops",
        sim_m.queue_drops,
        stale_m.queue_drops
    );
    assert!(sim_m.total_sink_output() > stale_m.total_sink_output());

    // Live engine under the same configuration.
    let live = LiveRuntime::new(&app, &placement, stale, &trace, FailurePlan::None, rt_cfg).run();
    let live_report = live.adapt.as_ref().expect("adapt enabled");

    // Same deterministic decision on both engines...
    assert_eq!(live_report.swaps, 1, "live engine must swap exactly once");
    assert_eq!(live_report.soft_fallbacks, 1);
    assert_eq!(live.metrics.strategy_swaps, 1);
    assert_eq!(
        live_report.planned_cost, sim_report.planned_cost,
        "both engines must re-plan to the identical strategy"
    );
    assert_eq!(live_report.planned_ic, sim_report.planned_ic);

    // ...and the same guarantees: balanced ledger, exact emission parity,
    // volume parity within the documented tolerance.
    assert!(live.conservation.is_balanced(), "{:?}", live.conservation);
    assert_eq!(live.metrics.source_emitted, sim_m.source_emitted);
    close(
        live.metrics.total_processed(),
        sim_m.total_processed(),
        "processed",
    );
    close(
        live.metrics.total_sink_output(),
        sim_m.total_sink_output(),
        "sink output",
    );

    // The live adapted run also beats a live stale control (same engine,
    // same clock — drop counts at this fixture size are too small to
    // compare across engines).
    let (mut stale_rt, _) = cfgs();
    stale_rt.adapt = None;
    let live_stale = LiveRuntime::new(
        &app,
        &placement,
        incumbent(&app, &placement),
        &trace,
        FailurePlan::None,
        stale_rt,
    )
    .run();
    let drops = |r: &LiveReport| r.metrics.queue_drops + r.conservation.transport_dropped;
    assert!(
        drops(&live) < drops(&live_stale),
        "live adapted {} vs live stale {} drops",
        drops(&live),
        drops(&live_stale)
    );
    assert!(live.metrics.total_sink_output() > live_stale.metrics.total_sink_output());
}

#[test]
fn steady_traffic_never_swaps() {
    let (app, placement) = fixture();
    let trace = InputTrace::constant(&[4.0], 20.0);
    let stale = incumbent(&app, &placement);
    let (_, sim_cfg) = cfgs();
    let (m, report) =
        Simulation::new(&app, &placement, stale, &trace, FailurePlan::None, sim_cfg).run_adaptive();
    let report = report.expect("adapt enabled");
    assert!(report.checks > 0, "the loop must actually run");
    assert_eq!(report.replans, 0);
    assert_eq!(report.swaps, 0);
    assert_eq!(m.strategy_swaps, 0);
    assert!(m.conservation.is_balanced());
}

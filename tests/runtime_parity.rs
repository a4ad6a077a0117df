//! Live engine vs. simulator parity: the same deployment (application,
//! placement, strategy, trace, failure plan) through both engines with the
//! same control-loop parameters ([`RuntimeConfig::sim_config`]).
//!
//! The simulator is deterministic; the live engine runs on real threads
//! paced by a scaled wall clock, so volumes agree only within a tolerance
//! (OS scheduling quantizes CPU budgets and control-plane observation; see
//! `laar_runtime::engine` docs). Source emission is exact in both, so
//! `source_emitted` must match tuple-for-tuple. Volume comparisons use
//! `REL_TOL`.
//!
//! These tests spend real wall time (traces run 40× accelerated). Set
//! `CI_FAST=1` to run them 10× harder-accelerated (400×) with the
//! detection delay widened so scheduler jitter on a busy CI box is never
//! misread as a host crash — the whole suite then fits the fast lane's
//! budget while still exercising the live engine end to end.

use laar::core::testutil::fig2_problem;
use laar::prelude::*;

/// Documented live-vs-sim agreement tolerance on tuple volumes.
const REL_TOL: f64 = 0.12;

fn cfgs() -> (RuntimeConfig, SimConfig) {
    let fast = std::env::var("CI_FAST").map(|v| v == "1").unwrap_or(false);
    let scale = if fast { 400.0 } else { 40.0 };
    let mut rt = RuntimeConfig::accelerated(scale);
    // J wall-seconds of OS jitter ages heartbeats by J × scale trace-
    // seconds; tolerate ~20 ms so acceleration never fakes a failure.
    rt.detection_delay = rt.detection_delay.max(0.02 * scale);
    let sim = rt.sim_config();
    (rt, sim)
}

fn fig2_strategy_laar() -> ActivationStrategy {
    let mut s = ActivationStrategy::all_active(2, 2, 2);
    s.set_active(0, ConfigId(1), 1, false);
    s.set_active(1, ConfigId(1), 0, false);
    s
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
fn clean_run_agrees_with_simulator() {
    let p = fig2_problem(0.6);
    let trace = InputTrace::constant(&[4.0], 30.0);
    let strategy = ActivationStrategy::all_active(2, 2, 2);
    let (rt_cfg, sim_cfg) = cfgs();
    let sim = Simulation::new(
        &p.app,
        &p.placement,
        strategy.clone(),
        &trace,
        FailurePlan::None,
        sim_cfg,
    )
    .run();
    let live = LiveRuntime::new(
        &p.app,
        &p.placement,
        strategy,
        &trace,
        FailurePlan::None,
        rt_cfg,
    )
    .run();
    let m = &live.metrics;

    // Emission is exact on both sides.
    assert_eq!(m.source_emitted, sim.source_emitted);
    // Unloaded pipeline: neither engine drops.
    assert_eq!(sim.queue_drops, 0);
    assert_eq!(m.queue_drops, 0);
    close(m.total_processed(), sim.total_processed(), "processed");
    close(
        m.total_sink_output(),
        sim.total_sink_output(),
        "sink output",
    );
    assert!(live.conservation.is_balanced(), "{:?}", live.conservation);
}

#[test]
fn saturation_drops_in_both_engines() {
    // Static replication at the High rate overloads both hosts: both
    // engines must drop on the bounded queues and output must lag input.
    let p = fig2_problem(0.6);
    let trace = InputTrace::constant(&[8.0], 30.0);
    let strategy = ActivationStrategy::all_active(2, 2, 2);
    let (mut rt_cfg, mut sim_cfg) = cfgs();
    rt_cfg.controller_enabled = false;
    sim_cfg.controller_enabled = false;
    let sim = Simulation::new(
        &p.app,
        &p.placement,
        strategy.clone(),
        &trace,
        FailurePlan::None,
        sim_cfg,
    )
    .run();
    let live = LiveRuntime::new(
        &p.app,
        &p.placement,
        strategy,
        &trace,
        FailurePlan::None,
        rt_cfg,
    )
    .run();
    let m = &live.metrics;

    assert!(sim.queue_drops > 0, "oracle must saturate");
    assert!(m.queue_drops > 0, "live engine must saturate too");
    close(
        m.total_sink_output(),
        sim.total_sink_output(),
        "sink output",
    );
    for metrics in [&sim, m] {
        let input = metrics.input_rate.mean_over(5.0, 30.0);
        let output = metrics.output_rate.mean_over(5.0, 30.0);
        assert!(
            output < input * 0.8,
            "in {input} vs out {output} should saturate"
        );
    }
    assert!(live.conservation.is_balanced(), "{:?}", live.conservation);
}

#[test]
fn worst_case_ic_bound_holds_live() {
    // Fig. 2b strategy under the pessimistic worst case: the live engine
    // must deliver the same ~2/3 internal completeness the analysis
    // guarantees and the simulator measures.
    let p = fig2_problem(0.6);
    let strategy = fig2_strategy_laar();
    let plan = FailurePlan::worst_case(&p.app, &strategy);
    let trace = InputTrace::low_high_centered(4.0, 8.0, 60.0, 0.2);
    let (rt_cfg, sim_cfg) = cfgs();

    let run_sim = |plan: FailurePlan| {
        Simulation::new(
            &p.app,
            &p.placement,
            strategy.clone(),
            &trace,
            plan,
            sim_cfg.clone(),
        )
        .run()
    };
    let run_live = |plan: FailurePlan| {
        LiveRuntime::new(
            &p.app,
            &p.placement,
            strategy.clone(),
            &trace,
            plan,
            rt_cfg.clone(),
        )
        .run()
        .metrics
    };

    let sim_ic = run_sim(plan.clone()).total_processed() as f64
        / run_sim(FailurePlan::None).total_processed() as f64;
    let live_ic = run_live(plan).total_processed() as f64
        / run_live(FailurePlan::None).total_processed() as f64;

    assert!(
        live_ic > 0.5 && live_ic < 0.9,
        "live worst-case IC = {live_ic} (expected ~2/3)"
    );
    assert!(
        (live_ic - sim_ic).abs() <= 0.15,
        "live IC {live_ic} vs sim IC {sim_ic}"
    );
}

#[test]
fn activation_schedule_agrees() {
    // The live control loop must observe the Low->High->Low trace and
    // issue the same configuration switches the simulated loop issues.
    let p = fig2_problem(0.6);
    let strategy = fig2_strategy_laar();
    let trace = InputTrace::low_high_centered(4.0, 8.0, 60.0, 1.0 / 3.0);
    let (rt_cfg, sim_cfg) = cfgs();
    let sim = Simulation::new(
        &p.app,
        &p.placement,
        strategy.clone(),
        &trace,
        FailurePlan::None,
        sim_cfg,
    )
    .run();
    let live = LiveRuntime::new(
        &p.app,
        &p.placement,
        strategy,
        &trace,
        FailurePlan::None,
        rt_cfg,
    )
    .run()
    .metrics;

    assert!(sim.config_switches >= 2, "sim: {}", sim.config_switches);
    assert!(live.config_switches >= 2, "live: {}", live.config_switches);
    // Rate-measurement jitter may add (paired) extra switches at phase
    // boundaries, never more than a couple over a single Low/High/Low cycle.
    assert!(
        live.config_switches.abs_diff(sim.config_switches) <= 2,
        "live {} vs sim {} switches",
        live.config_switches,
        sim.config_switches
    );
    assert!(live.commands_applied > 0);
}

#[test]
fn crash_and_config_switches_cross_the_sync_boundary() {
    // One run that takes every path across the worker's hot/cold sync
    // boundary: the LAAR strategy's Low->High->Low switches deactivate and
    // re-activate a replica of each PE (`on_deactivate` / `on_activate`),
    // and host 0 crashes at 10 s and restarts 16 s later, inside the trace
    // (`on_kill` / `on_recover`). Whatever the interleaving, every tuple
    // must be accounted for, per replica and per edge.
    let p = fig2_problem(0.6);
    let trace = InputTrace::low_high_centered(4.0, 8.0, 60.0, 1.0 / 3.0);
    let (rt_cfg, _) = cfgs();
    let live = LiveRuntime::new(
        &p.app,
        &p.placement,
        fig2_strategy_laar(),
        &trace,
        FailurePlan::host_crash(HostId(0), 10.0),
        rt_cfg,
    )
    .run();
    let m = &live.metrics;
    let ledger = &live.conservation;

    assert!(m.config_switches >= 2, "switches: {}", m.config_switches);
    assert!(m.commands_applied > 0);
    assert!(m.failovers >= 1, "failovers: {}", m.failovers);
    assert!(ledger.is_balanced(), "{ledger:?}");
    // Deactivated and crashed replicas answered for the tuples they were
    // sent, and lost what they had queued.
    assert!(ledger.idle_discards > 0, "{ledger:?}");
    assert_eq!(m.idle_discards, ledger.idle_discards);
    assert_eq!(
        live.transport_edges.iter().map(|e| e.pushed).sum::<u64>(),
        ledger.pushed
    );
    assert_eq!(
        live.transport_edges.iter().map(|e| e.dropped).sum::<u64>(),
        ledger.transport_dropped
    );
    // The restarted host works again after its sync window.
    assert!(m.total_sink_output() > 0);
    assert_eq!(m.replica_cycles.len(), 4);
    assert!(
        m.replica_cycles.iter().all(|&c| c > 0.0),
        "{:?}",
        m.replica_cycles
    );
}

//! Equivalence suite for the simulator's one run loop. Every fixture is
//! held to three references at once:
//!
//! * **the every-quantum march** ([`Simulation::run_every_quantum`],
//!   `threads = 1`): the same loop without the horizon jump, so the
//!   event-driven run and the staged multi-chunk phases
//!   (`SimConfig::threads > 1`) are compared with an independent execution
//!   and must produce **bit-identical** [`SimMetrics`] — same drops, sink
//!   counts, latency histogram, utilization samples, conservation ledger;
//! * **a golden digest**: a 64-bit FNV-1a over every `SimMetrics` field,
//!   recorded from the deleted array-of-structs engine (see [`digest`]),
//!   so whole-run agreement with that engine outlives it (one, the
//!   off-grid crash, from the last engine that consulted the failure plan
//!   and re-elected every quantum);
//! * a balanced conservation ledger.
//!
//! Thread counts {1, 2} are always exercised; set `LAAR_EQ_THREADS=N` to
//! add another count (CI runs the suite a second time with `N=8`).

use laar_adapt::AdaptConfig;
use laar_core::testutil::fig2_problem;
use laar_dsps::trace::ArrivalProcess;
use laar_dsps::{
    FailurePlan, InputTrace, LatencyStats, RateSchedule, SimConfig, SimMetrics, Simulation,
    TimeSeries,
};
use laar_exec::Conservation;
use laar_gen::{generator::generate_app, GenParams};
use laar_model::{ActivationStrategy, Application, ConfigId, Host, HostId, Placement};
use proptest::prelude::*;

/// Thread counts every fixture is held to: the single-chunk path, the
/// smallest staged split, and (when `LAAR_EQ_THREADS` is set) whatever
/// the CI matrix asks for.
fn thread_axis() -> Vec<usize> {
    let mut axis = vec![1, 2];
    if let Ok(v) = std::env::var("LAAR_EQ_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 && !axis.contains(&n) {
                axis.push(n);
            }
        }
    }
    axis
}

/// 64-bit FNV-1a over a stream of 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn words(&mut self, v: &[u64]) {
        self.word(v.len() as u64);
        v.iter().for_each(|&x| self.word(x));
    }
    fn floats(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        v.iter().for_each(|x| self.word(x.to_bits()));
    }
}

/// Digest of every [`SimMetrics`] field in declaration order (`f64` by
/// `to_bits`, vectors length-prefixed and in order). The destructuring
/// patterns are exhaustive, so a new field fails to compile here until it
/// is hashed.
///
/// The golden constants below were recorded at commit 037e4aa, the last
/// one carrying the array-of-structs engine, from this file with
/// `layout: Legacy, advance: FixedQuantum` added next to `threads` in
/// every `SimConfig` literal (and `run_every_quantum()` spelled `run()`,
/// which that configuration makes the every-quantum march):
/// `cargo test -p laar-dsps --release --test equivalence` there reports
/// `expected`/`got` for each fixture whose constant differs.
fn digest(m: &SimMetrics) -> u64 {
    let SimMetrics {
        duration,
        source_emitted,
        host_cpu_seconds,
        pe_processed,
        queue_drops,
        idle_discards,
        sink_received,
        input_rate,
        output_rate,
        host_utilization,
        config_switches,
        commands_applied,
        failovers,
        latency,
        replica_port_processed,
        replica_emitted,
        replica_cycles,
        strategy_swaps,
        swap_downtime_quanta,
        swap_downtime_tuples,
        conservation,
    } = m;
    let LatencyStats {
        bucket_width,
        buckets,
        count,
        sum,
        max,
    } = latency;
    let Conservation {
        pushed,
        transport_dropped,
        ring_residual,
        queue_drops: ledger_drops,
        idle_discards: ledger_discards,
        processed,
        port_residual,
    } = conservation;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(duration.to_bits());
    h.words(source_emitted);
    h.floats(host_cpu_seconds);
    h.words(pe_processed);
    h.word(*queue_drops);
    h.word(*idle_discards);
    h.words(sink_received);
    h.floats(&input_rate.samples);
    h.floats(&output_rate.samples);
    h.word(host_utilization.len() as u64);
    for TimeSeries { samples } in host_utilization {
        h.floats(samples);
    }
    h.word(*config_switches);
    h.word(*commands_applied);
    h.word(*failovers);
    h.word(bucket_width.to_bits());
    h.words(buckets);
    h.word(*count);
    h.word(sum.to_bits());
    h.word(max.to_bits());
    h.word(replica_port_processed.len() as u64);
    for ports in replica_port_processed {
        h.words(ports);
    }
    h.words(replica_emitted);
    h.floats(replica_cycles);
    h.word(*strategy_swaps);
    h.word(*swap_downtime_quanta);
    h.word(*swap_downtime_tuples);
    for v in [
        pushed,
        transport_dropped,
        ring_residual,
        ledger_drops,
        ledger_discards,
        processed,
        port_residual,
    ] {
        h.word(*v);
    }
    h.0
}

/// Run one problem as the every-quantum march at `threads = 1` (the
/// reference), check its golden digest, then hold the event-driven run
/// and the every-quantum march to it across the thread axis.
fn assert_equivalent(
    app: &Application,
    placement: &Placement,
    strategy: &ActivationStrategy,
    trace: &InputTrace,
    plan: &FailurePlan,
    base: &SimConfig,
    golden: u64,
) -> SimMetrics {
    let sim = |threads: usize| {
        Simulation::new(
            app,
            placement,
            strategy.clone(),
            trace,
            plan.clone(),
            SimConfig {
                threads,
                ..base.clone()
            },
        )
    };
    let reference = sim(1).run_every_quantum();
    let got = digest(&reference);
    assert_eq!(
        got, golden,
        "golden digest: expected {golden:#018x}, got {got:#018x}"
    );
    for threads in thread_axis() {
        assert_eq!(
            reference,
            sim(threads).run(),
            "event-driven metrics diverged at threads={threads}"
        );
        if threads > 1 {
            assert_eq!(
                reference,
                sim(threads).run_every_quantum(),
                "every-quantum metrics diverged at threads={threads}"
            );
        }
    }
    assert!(
        reference.conservation.is_balanced(),
        "{:?}",
        reference.conservation
    );
    reference
}

fn fig2_strategy_laar() -> ActivationStrategy {
    let mut s = ActivationStrategy::all_active(2, 2, 2);
    s.set_active(0, ConfigId(1), 1, false);
    s.set_active(1, ConfigId(1), 0, false);
    s
}

#[test]
fn fig3_pipeline_all_variants_and_plans() {
    let p = fig2_problem(0.6);
    let trace = InputTrace::low_high_centered(4.0, 8.0, 60.0, 1.0 / 3.0);
    let sr = ActivationStrategy::all_active(2, 2, 2);
    let laar = fig2_strategy_laar();
    let crash = FailurePlan::host_crash(HostId(0), 20.0);
    let cases = [
        (&sr, FailurePlan::None, GOLDEN_FIG3_SR_NONE),
        (
            &sr,
            FailurePlan::worst_case(&p.app, &sr),
            GOLDEN_FIG3_SR_WORST,
        ),
        (&sr, crash.clone(), GOLDEN_FIG3_SR_CRASH),
        (&laar, FailurePlan::None, GOLDEN_FIG3_LAAR_NONE),
        (
            &laar,
            FailurePlan::worst_case(&p.app, &laar),
            GOLDEN_FIG3_LAAR_WORST,
        ),
        (&laar, crash, GOLDEN_FIG3_LAAR_CRASH),
    ];
    for (strategy, plan, golden) in &cases {
        let m = assert_equivalent(
            &p.app,
            &p.placement,
            strategy,
            &trace,
            plan,
            &SimConfig::default(),
            *golden,
        );
        assert!(m.source_emitted[0] > 0, "{plan:?}: no tuples emitted");
    }
}

const GOLDEN_FIG3_SR_NONE: u64 = 0xeefc_13c2_82bf_8c4e;
const GOLDEN_FIG3_SR_WORST: u64 = 0x39ef_0898_9543_4b1b;
const GOLDEN_FIG3_SR_CRASH: u64 = 0xe626_f594_3793_f870;
const GOLDEN_FIG3_LAAR_NONE: u64 = 0x32ca_fb80_9f2f_e7ed;
const GOLDEN_FIG3_LAAR_WORST: u64 = 0x931f_04ed_cdd8_cfc1;
const GOLDEN_FIG3_LAAR_CRASH: u64 = 0xd0f9_00ee_c2b0_612a;

#[test]
fn fig3_pipeline_controller_disabled_and_coarse_quantum() {
    let p = fig2_problem(0.6);
    let trace = InputTrace::low_high_centered(4.0, 8.0, 60.0, 1.0 / 3.0);
    let cases = [
        (
            SimConfig {
                controller_enabled: false,
                ..SimConfig::default()
            },
            GOLDEN_FIG3_CONTROLLER_OFF,
        ),
        (
            SimConfig {
                quantum: 0.05,
                ..SimConfig::default()
            },
            GOLDEN_FIG3_QUANTUM_50MS,
        ),
        (
            SimConfig {
                arrivals: ArrivalProcess::Poisson { seed: 11 },
                ..SimConfig::default()
            },
            GOLDEN_FIG3_POISSON_11,
        ),
    ];
    for (cfg, golden) in &cases {
        assert_equivalent(
            &p.app,
            &p.placement,
            &fig2_strategy_laar(),
            &trace,
            &FailurePlan::None,
            cfg,
            *golden,
        );
    }
}

const GOLDEN_FIG3_CONTROLLER_OFF: u64 = 0xcedb_99ab_04c6_869d;
const GOLDEN_FIG3_QUANTUM_50MS: u64 = 0x1f7c_ce48_286e_4ff5;
const GOLDEN_FIG3_POISSON_11: u64 = 0x392c_ee26_a94a_db06;

#[test]
fn quiescent_heavy_trace_still_matches_exactly() {
    // The horizon jump's bread and butter: long stretches with no work at
    // all. Sparse arrivals (one tuple every 2 s) with the controller
    // polling every second.
    let p = fig2_problem(0.6);
    let trace = InputTrace::constant(&[0.5], 120.0);
    assert_equivalent(
        &p.app,
        &p.placement,
        &ActivationStrategy::all_active(2, 2, 2),
        &trace,
        &FailurePlan::None,
        &SimConfig::default(),
        GOLDEN_QUIESCENT,
    );
}

const GOLDEN_QUIESCENT: u64 = 0xe40c_20f0_f830_2578;

#[test]
fn zero_duration_trace_returns_empty_balanced_metrics() {
    // `samples` is empty, so the per-second bucket bound has nothing to
    // subtract from; no quantum runs and the ledger balances at zero.
    let p = fig2_problem(0.6);
    let trace = InputTrace::constant(&[4.0], 0.0);
    let sim = |threads: usize| {
        Simulation::new(
            &p.app,
            &p.placement,
            fig2_strategy_laar(),
            &trace,
            FailurePlan::None,
            SimConfig {
                threads,
                ..SimConfig::default()
            },
        )
    };
    let m = sim(1).run();
    assert_eq!(m, sim(1).run_every_quantum());
    assert_eq!(m, sim(2).run());
    assert_eq!(m.source_emitted, [0]);
    assert!(m.input_rate.samples.is_empty());
    assert_eq!(m.conservation.pushed, 0);
    assert!(m.conservation.is_balanced(), "{:?}", m.conservation);
}

#[test]
fn adaptive_hot_swap_matches_exactly() {
    // The hot-swap path: Fig. 2 on double-capacity hosts running all
    // replicas, with the source drifting from the declared Low (4 t/s) to
    // 12 t/s — past the detector's hysteresis band and past what
    // all-active can carry (2400 > 2000 cycles/s per host). The re-plan
    // finds a strategy meeting IC 0.6 under the corrected descriptor and
    // the two-phase swap rides the ordinary command path, so every swap
    // command crosses the hot/cold sync boundary in `control_plane`.
    let p = fig2_problem(0.6);
    let hosts = p
        .placement
        .hosts()
        .iter()
        .map(|h| Host {
            capacity: 2000.0,
            ..h.clone()
        })
        .collect();
    let assignment = (0..4).map(|i| p.placement.host_of(i / 2, i % 2)).collect();
    let placement = Placement::new(p.app.graph(), 2, hosts, assignment).unwrap();
    let trace = InputTrace {
        schedules: vec![RateSchedule::from_segments(vec![(0.0, 4.0), (10.0, 12.0)])],
        duration: 30.0,
    };
    let m = assert_equivalent(
        &p.app,
        &placement,
        &ActivationStrategy::all_active(2, 2, 2),
        &trace,
        &FailurePlan::None,
        &SimConfig {
            adapt: Some(AdaptConfig::new(0.6)),
            ..SimConfig::default()
        },
        GOLDEN_ADAPTIVE_SWAP,
    );
    assert!(m.strategy_swaps >= 1, "no swap happened");
    assert_eq!(m.swap_downtime_quanta, 0, "two-phase swap leaked");
}

const GOLDEN_ADAPTIVE_SWAP: u64 = 0x6a4d_1d39_6ab3_5302;

#[test]
fn paper_scale_24pe_with_failures() {
    // The Fig. 9–12 unit of work: a generated 24-PE application over the
    // full 300 s billing period, under all three failure modes.
    let gen = generate_app(&GenParams::default(), 7);
    let np = gen.app.graph().num_pes();
    let sr = ActivationStrategy::all_active(np, 2, 2);
    let trace = InputTrace::low_high_centered(
        gen.low_rate,
        gen.high_rate,
        gen.app.billing_period(),
        gen.p_high(),
    );
    let cases = [
        (FailurePlan::None, GOLDEN_24PE_NONE),
        (FailurePlan::worst_case(&gen.app, &sr), GOLDEN_24PE_WORST),
        (FailurePlan::host_crash(HostId(0), 140.0), GOLDEN_24PE_CRASH),
    ];
    for (plan, golden) in &cases {
        let m = assert_equivalent(
            &gen.app,
            &gen.placement,
            &sr,
            &trace,
            plan,
            &SimConfig::default(),
            *golden,
        );
        assert!(m.total_processed() > 0, "{plan:?}: nothing processed");
    }
}

const GOLDEN_24PE_NONE: u64 = 0x364d_8b9c_5906_8065;
const GOLDEN_24PE_WORST: u64 = 0x97ca_644c_4e9e_24d2;
const GOLDEN_24PE_CRASH: u64 = 0xdd8c_b255_ba2f_6dad;

#[test]
fn scaled_1k_pe_host_crash() {
    // A 1k-PE `scaled_bench` fixture (the benchmark's `sim-wide` shape), held
    // to the same bar as the paper-scale fixtures across the thread axis
    // (LAAR_EQ_THREADS=8 in CI), under a mid-run host crash. The trace is
    // short — at this scale a couple of seconds of saturated input already
    // exercises queue overflow, water-filling compaction, failover, and
    // the sentinel sync boundary.
    let gen = generate_app(&GenParams::scaled_bench(1000.0 / 24.0), 7);
    let np = gen.app.graph().num_pes();
    assert_eq!(np, 1000);
    let sr = ActivationStrategy::all_active(np, 2, 2);
    let trace = InputTrace::constant(&[gen.high_rate], 2.0);
    let m = assert_equivalent(
        &gen.app,
        &gen.placement,
        &sr,
        &trace,
        &FailurePlan::host_crash(HostId(0), 0.8),
        &SimConfig::default(),
        GOLDEN_1K_PE_CRASH,
    );
    assert!(m.total_processed() > 0, "nothing processed at 1k PEs");
}

const GOLDEN_1K_PE_CRASH: u64 = 0x93a1_16c2_ecd1_59f7;

#[test]
fn off_grid_crash_inside_a_sync_window() {
    // The control-plane gate's hard case: with a 1 s sync delay the
    // High → Low switch re-activates pe0/r1 and pe1/r0 at 42.05 s, and
    // host 0 (pe0/r0, the sitting primary, and pe1/r0, still syncing)
    // crashes and recovers inside that window, at instants off the 10 ms
    // quantum grid. The failure plan must be consulted at exactly the first
    // quantum past each instant, and pe0 re-elected at exactly the end of
    // r1's window (43.05 s, after the detection blackout) — no earlier
    // quantum elects, no later one is needed.
    let p = fig2_problem(0.6);
    let trace = InputTrace::low_high_centered(4.0, 8.0, 60.0, 1.0 / 3.0);
    let m = assert_equivalent(
        &p.app,
        &p.placement,
        &fig2_strategy_laar(),
        &trace,
        &FailurePlan::HostCrash {
            host: HostId(0),
            at: 42.3137,
            duration: 0.4771,
        },
        &SimConfig {
            sync_delay: 1.0,
            ..SimConfig::default()
        },
        GOLDEN_OFF_GRID_CRASH,
    );
    assert_eq!(m.failovers, 1, "pe0 fails over to r1 once");
    assert_eq!(m.commands_applied, 8, "initial, Low, High, Low: two each");
}

/// Recorded at commit ce99718, the last one whose control plane consulted
/// the failure plan and re-elected every quantum.
const GOLDEN_OFF_GRID_CRASH: u64 = 0xa18c_12f7_0013_881f;

/// Deterministic strategy sampler mirroring `tests/proptest_sim.rs`.
fn random_strategy(np: usize, nq: usize, seed: u64) -> ActivationStrategy {
    let mut s = ActivationStrategy::all_inactive(np, nq, 2);
    let mut x = seed | 1;
    for pe in 0..np {
        for c in 0..nq {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let cfg = ConfigId(c as u32);
            match (x >> 61) % 3 {
                0 => s.set_active(pe, cfg, 0, true),
                1 => s.set_active(pe, cfg, 1, true),
                _ => {
                    s.set_active(pe, cfg, 0, true);
                    s.set_active(pe, cfg, 1, true);
                }
            }
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of arrivals (deterministic and Poisson, bursty
    /// schedules), HAController command traffic (random strategies force
    /// switches), and failures: the event-driven run, single-chunk and
    /// staged, stays in lockstep with the every-quantum march.
    #[test]
    fn random_interleavings_are_equivalent(
        seed in any::<u64>(),
        sseed in any::<u64>(),
        mode in 0u8..6,
    ) {
        let gen = generate_app(
            &GenParams {
                num_pes: 5,
                num_hosts: 2,
                duration: 25.0,
                ..GenParams::default()
            },
            seed,
        );
        let strategy = random_strategy(5, 2, sseed);
        let trace = if mode % 2 == 0 {
            InputTrace::low_high_centered(gen.low_rate, gen.high_rate, 25.0, gen.p_high())
        } else {
            InputTrace::low_high_bursts(gen.low_rate, gen.high_rate, 25.0, 0.3, 3)
        };
        let plan = match mode / 2 {
            0 => FailurePlan::None,
            1 => FailurePlan::worst_case(&gen.app, &strategy),
            _ => FailurePlan::host_crash(HostId((seed % 2) as u32), 8.0),
        };
        let cfg = SimConfig {
            arrivals: if seed % 3 == 0 {
                ArrivalProcess::Poisson { seed: sseed }
            } else {
                ArrivalProcess::Deterministic
            },
            ..SimConfig::default()
        };
        let sim = |threads: usize| {
            Simulation::new(
                &gen.app,
                &gen.placement,
                strategy.clone(),
                &trace,
                plan.clone(),
                SimConfig { threads, ..cfg.clone() },
            )
        };
        let reference = sim(1).run_every_quantum();
        prop_assert_eq!(&reference, &sim(1).run());
        prop_assert_eq!(&reference, &sim(2).run());
    }
}

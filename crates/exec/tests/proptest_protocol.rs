//! Property-based tests driving the extracted protocol state machine
//! directly — no engine in between — with random interleavings of offers,
//! processing, HAController commands, failures, recoveries, and elections.
//!
//! Invariants checked at every step:
//!
//! * the data-plane [`Replica`] and the control-plane [`SlotState`] shadow
//!   never drift apart when fed the same transitions (the live runtime's
//!   correctness hangs on this);
//! * two [`ProxyState`]s fed identical inputs elect identical primaries and
//!   count identical fail-overs (determinism, including tie-breaks);
//! * an elected primary is always eligible;
//! * an ineligible replica never holds queued work, and processing it is a
//!   no-op (no processing while Dead/Idle/Syncing);
//! * activation is never Active→Active: commands are issued like a real
//!   controller (Activate only to inactive slots, Deactivate only to active
//!   ones) and the resulting status is exactly the expected one;
//! * the conservation ledger balances exactly under every interleaving.
//!
//! Two further properties are what lets the simulator consult the failure
//! plan and re-elect only when due instead of every quantum:
//! [`FailurePlan::is_dead_on`] is constant on `[t, next_transition(t))`,
//! and [`SlotState::eligible`] flips by itself only at
//! [`SlotState::next_transition`].

use laar_core::controller::{Command, ReplicaSlot};
use laar_exec::replica::{InPort, Replica};
use laar_exec::{Conservation, FailurePlan, ProxyState, ReplicaStatus, SlotState};
use laar_model::HostId;
use proptest::prelude::*;

const NUM_PES: usize = 2;
const K: usize = 2;
const SYNC_DELAY: f64 = 0.25;
const DETECTION_DELAY: f64 = 0.5;

/// Deterministic LCG so one `u64` seed drives the whole op sequence.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn fresh_replicas() -> Vec<Replica> {
    let mut reps = Vec::new();
    for pe in 0..NUM_PES {
        for r in 0..K {
            // One port, 1 cycle/tuple, selectivity 1, small queue so the
            // overflow path is exercised.
            reps.push(Replica::new(pe, r, r, vec![InPort::new(1.0, 1.0, 8)]));
        }
    }
    reps
}

fn slot(pe: usize, r: usize) -> ReplicaSlot {
    ReplicaSlot {
        pe_dense: pe,
        replica: r,
    }
}

/// Two instants of `[t, end)` (`end` defaulting to `t + 100`): `frac` of the
/// way through it, and the last `f64` before `end`.
fn probes_before(t: f64, end: Option<f64>, frac: f64) -> impl Iterator<Item = f64> {
    let stop = end.unwrap_or(t + 100.0);
    let last = f64::from_bits(stop.to_bits() - 1);
    let inside = (t + frac * (stop - t)).min(last);
    [inside, last].into_iter().filter(move |&probe| probe >= t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_interleavings_preserve_protocol_invariants(seed in any::<u64>()) {
        let mut rng = Lcg(seed | 1);
        let mut replicas = fresh_replicas();
        let mut shadow = vec![SlotState::default(); NUM_PES * K];
        let mut proxy_data = ProxyState::new(NUM_PES, K);
        let mut proxy_shadow = ProxyState::new(NUM_PES, K);
        let mut now = 0.0f64;
        let mut pushed = 0u64;

        for _ in 0..300 {
            match rng.next() % 8 {
                // Offer a batch to all k replicas of a random PE.
                0 | 1 => {
                    let pe = (rng.next() as usize) % NUM_PES;
                    let n = 1 + (rng.next() as usize) % 6;
                    let batch = vec![now; n];
                    for r in 0..K {
                        replicas[pe * K + r].offer(0, &batch, now);
                    }
                    pushed += (n * K) as u64;
                }
                // Process a random budget everywhere; ineligible replicas
                // must refuse work.
                2 | 3 => {
                    let budget = (1 + rng.next() % 10) as f64;
                    for rep in &mut replicas {
                        let was_eligible = rep.eligible(now);
                        let used = rep.process(budget);
                        if !was_eligible {
                            // Ineligible replicas must refuse to do work.
                            prop_assert_eq!(used, 0.0);
                        }
                    }
                }
                // A controller-shaped command: Activate only inactive
                // slots, Deactivate only active ones (a real HAController
                // diffs configurations, so it never double-activates).
                4 => {
                    let pe = (rng.next() as usize) % NUM_PES;
                    let r = (rng.next() as usize) % K;
                    let i = pe * K + r;
                    let before = shadow[i];
                    let cmd = if before.active {
                        Command::Deactivate(slot(pe, r))
                    } else {
                        Command::Activate(slot(pe, r))
                    };
                    proxy_data.apply_command(&mut replicas, &cmd, now, SYNC_DELAY);
                    proxy_shadow.apply_command(&mut shadow, &cmd, now, SYNC_DELAY);
                    let status = shadow[i].status(now);
                    match cmd {
                        Command::Activate(_) if before.alive => {
                            prop_assert_eq!(status, ReplicaStatus::Syncing);
                            prop_assert_eq!(
                                shadow[i].status(now + SYNC_DELAY),
                                ReplicaStatus::Running
                            );
                        }
                        Command::Activate(_) => {
                            // Bounced off a dead slot.
                            prop_assert_eq!(status, ReplicaStatus::Dead);
                        }
                        Command::Deactivate(_) => {
                            if before.alive {
                                prop_assert_eq!(status, ReplicaStatus::Idle);
                            } else {
                                prop_assert_eq!(status, ReplicaStatus::Dead);
                            }
                        }
                    }
                }
                // Failure with delayed detection.
                5 => {
                    let pe = (rng.next() as usize) % NUM_PES;
                    let r = (rng.next() as usize) % K;
                    let detected = now + DETECTION_DELAY;
                    proxy_data.fail_slot(&mut replicas, pe, r, detected);
                    proxy_shadow.fail_slot(&mut shadow, pe, r, detected);
                    prop_assert_eq!(shadow[pe * K + r].status(now), ReplicaStatus::Dead);
                }
                // Recovery with re-sync. Engines only recover dead slots
                // (recovery is the supervisor's answer to a detected
                // failure), so the test does too.
                6 => {
                    let pe = (rng.next() as usize) % NUM_PES;
                    let r = (rng.next() as usize) % K;
                    if !shadow[pe * K + r].alive {
                        proxy_data.recover_slot(&mut replicas, pe, r, now, SYNC_DELAY);
                        proxy_shadow.recover_slot(&mut shadow, pe, r, now, SYNC_DELAY);
                    }
                }
                // Time advances.
                _ => {
                    now += (rng.next() % 100) as f64 / 100.0;
                }
            }

            proxy_data.elect(&replicas, now);
            proxy_shadow.elect(&shadow, now);

            for pe in 0..NUM_PES {
                // Determinism: both views elect the same primary.
                prop_assert_eq!(proxy_data.primary(pe), proxy_shadow.primary(pe));
                // An elected primary is always eligible.
                if let Some(r) = proxy_data.primary(pe) {
                    prop_assert!(replicas[pe * K + r].eligible(now), "ineligible primary");
                }
            }
            prop_assert_eq!(proxy_data.failovers(), proxy_shadow.failovers());

            for (rep, shadow_slot) in replicas.iter().zip(&shadow) {
                // The data-plane state machine and the control-plane shadow
                // agree on every protocol-visible bit.
                prop_assert_eq!(&rep.state, shadow_slot);
                // Every path out of Running clears or refuses queued input.
                if !rep.eligible(now) {
                    prop_assert!(!rep.has_work(), "ineligible replica holds work");
                }
            }
        }

        // Every tuple offered to a replica terminates in exactly one ledger
        // bucket, no matter how the ops interleaved.
        let mut ledger = Conservation {
            pushed,
            ..Default::default()
        };
        for rep in &replicas {
            ledger.tally_replica(rep);
        }
        prop_assert!(ledger.is_balanced(), "{ledger:?}");
    }

    #[test]
    fn election_is_a_pure_function_of_slot_states(seed in any::<u64>()) {
        // Replaying the same transition sequence from scratch yields the
        // same primaries at every step — no hidden state outside ProxyState.
        let mut rng = Lcg(seed | 1);
        let script: Vec<(u64, u64, u64)> =
            (0..50).map(|_| (rng.next(), rng.next(), rng.next())).collect();

        let run = |script: &[(u64, u64, u64)]| {
            let mut shadow = vec![SlotState::default(); NUM_PES * K];
            let mut proxy = ProxyState::new(NUM_PES, K);
            let mut now = 0.0;
            let mut trail = Vec::new();
            for &(a, b, c) in script {
                let pe = (a as usize) % NUM_PES;
                let r = (b as usize) % K;
                match c % 5 {
                    0 => proxy.apply_command(
                        &mut shadow,
                        &Command::Activate(slot(pe, r)),
                        now,
                        SYNC_DELAY,
                    ),
                    1 => proxy.apply_command(
                        &mut shadow,
                        &Command::Deactivate(slot(pe, r)),
                        now,
                        SYNC_DELAY,
                    ),
                    2 => proxy.fail_slot(&mut shadow, pe, r, now + DETECTION_DELAY),
                    3 => proxy.recover_slot(&mut shadow, pe, r, now, SYNC_DELAY),
                    _ => now += (c % 100) as f64 / 50.0,
                }
                proxy.elect(&shadow, now);
                trail.push((0..NUM_PES).map(|p| proxy.primary(p)).collect::<Vec<_>>());
            }
            (trail, proxy.failovers())
        };

        let (trail_a, failovers_a) = run(&script);
        let (trail_b, failovers_b) = run(&script);
        prop_assert_eq!(trail_a, trail_b);
        prop_assert_eq!(failovers_a, failovers_b);
    }

    #[test]
    fn failure_plan_is_constant_up_to_its_next_transition(
        kind in 0usize..3,
        at in 0.0f64..50.0,
        duration in 0.001f64..30.0,
        t in 0.0f64..100.0,
        frac in 0.0f64..1.0,
    ) {
        // Off-grid crash and recovery instants; two hosts, replica r on host r.
        let plan = match kind {
            0 => FailurePlan::None,
            1 => FailurePlan::WorstCase { crashed: vec![0, 1] },
            _ => FailurePlan::HostCrash { host: HostId(1), at, duration },
        };
        let dead_set = |t: f64| -> Vec<bool> {
            (0..NUM_PES * K).map(|i| plan.is_dead_on(i % K, i / K, i % K, t)).collect()
        };
        let end = plan.next_transition(t);
        prop_assert!(end.is_none_or(|e| e > t), "transition {end:?} not after {t}");
        for probe in probes_before(t, end, frac) {
            prop_assert!(
                dead_set(probe) == dead_set(t),
                "dead-set changes at {probe}, inside [{t}, {end:?})"
            );
        }
        // A transition the plan announces is one: the dead-set changes there.
        if let Some(e) = end {
            prop_assert!(dead_set(e) != dead_set(t), "nothing changes at {e}");
        }
    }

    #[test]
    fn eligibility_flips_only_at_the_slot_next_transition(
        alive in any::<bool>(),
        active in any::<bool>(),
        sync_until in (any::<bool>(), -5.0f64..50.0),
        now in 0.0f64..50.0,
        frac in 0.0f64..1.0,
    ) {
        let state = SlotState { alive, active, sync_until: sync_until.0.then_some(sync_until.1) };
        let end = state.next_transition(now);
        for probe in probes_before(now, end, frac) {
            prop_assert_eq!(state.eligible(probe), state.eligible(now));
            // The hot arena's sentinel says the same.
            prop_assert_eq!(state.eligible_from() <= probe, state.eligible(probe));
        }
        // A pending sync window is the only self-transition: ineligible
        // before its end, eligible from it on.
        if let Some(e) = end {
            prop_assert!(!state.eligible(now) && state.eligible(e));
            prop_assert_eq!(state.eligible_from(), e);
        }
    }
}

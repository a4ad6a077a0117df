//! Property test for the struct-of-arrays hot arena: across random
//! interleavings of commands (activate/deactivate), failures
//! (kill/recover), offers, and processing, the [`HotArena`] mirrored at
//! the sync boundary never diverges from the legacy [`Replica`] hot path
//! — every counter, queue, accumulator, and round-robin cursor stays
//! bit-identical, the `eligible_from` sentinel always encodes exactly
//! the cold [`SlotState`]'s eligibility, and `queued[i]` always equals the
//! tuples on replica `i`'s port queues (what lets the multi-port tuple
//! loop probe cyclically for a non-empty port without a stop condition).
//!
//! Two sides run the same op sequence:
//! * **legacy**: protocol transitions and data ops both applied to a
//!   `Vec<Replica>` — the pre-SoA engine's state.
//! * **hot**: protocol transitions applied to a cold `Vec<Replica>` and
//!   mirrored into a [`HotArena`] (exactly the simulator's sync-boundary
//!   calls); data ops applied to the hot arena only, the cold structs
//!   never touched — the SoA engine's split.
//!
//! A second property holds the fused [`HotChunk::water_fill`] — a whole
//! host's GPS pass, the one both engines run — to the plain water-filling
//! loop over [`Replica`]s that the live worker ran before it moved onto the
//! arena ([`reference_water_fill`]).
//!
//! [`HotChunk::water_fill`]: laar_dsps::HotChunk::water_fill

use laar_dsps::arena::WfScratch;
use laar_dsps::{HotArena, InPort, Replica};
use laar_exec::{HaSlot, SlotState};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Offer `n` tuples to one port of one slot.
    Offer {
        slot: usize,
        port: usize,
        n: usize,
    },
    /// Give one slot a CPU budget, as the water-filling loop would.
    Process {
        slot: usize,
        budget: f64,
    },
    Activate {
        slot: usize,
        sync: bool,
    },
    Deactivate {
        slot: usize,
    },
    Kill {
        slot: usize,
    },
    Recover {
        slot: usize,
        sync: bool,
    },
    /// Advance virtual time (sync windows expire, offers stamp later).
    Tick,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted mix: mostly data-plane traffic (offers + processing) with a
    // steady trickle of commands, failures, and time advancement.
    (
        0usize..14,
        0usize..8,
        0usize..12,
        0usize..6,
        0.0f64..30.0,
        any::<bool>(),
    )
        .prop_map(|(kind, slot, port, n, budget, sync)| match kind {
            0..=3 => Op::Offer { slot, port, n },
            4..=7 => Op::Process { slot, budget },
            8 => Op::Activate { slot, sync },
            9 => Op::Deactivate { slot },
            10 => Op::Kill { slot },
            11 => Op::Recover { slot, sync },
            _ => Op::Tick,
        })
}

/// 4 PEs × k=2 across two hosts, with mixed port shapes (a two-port and a
/// four-port fan-in PE) and small queue capacities so overflow drops
/// happen. Offers land on one port at a time, so the four-port replicas
/// spend most steps with empty ports on both sides of the round-robin
/// cursor, and budgets of a few tuples end in the middle of a wrap.
fn fixture() -> Vec<Replica> {
    let fan_in = || {
        vec![
            InPort::new(1.5, 0.7, 4),
            InPort::new(2.5, 1.2, 3),
            InPort::new(0.0, 1.0, 5),
            InPort::new(6.0, 0.4, 2),
        ]
    };
    vec![
        Replica::new(0, 0, 0, vec![InPort::new(4.0, 1.0, 4)]),
        Replica::new(0, 1, 1, vec![InPort::new(4.0, 1.0, 4)]),
        Replica::new(
            1,
            0,
            0,
            vec![InPort::new(2.0, 0.5, 6), InPort::new(3.0, 1.5, 3)],
        ),
        Replica::new(
            1,
            1,
            1,
            vec![InPort::new(2.0, 0.5, 6), InPort::new(3.0, 1.5, 3)],
        ),
        Replica::new(2, 0, 1, vec![InPort::new(7.0, 0.8, 5)]),
        Replica::new(2, 1, 0, vec![InPort::new(7.0, 0.8, 5)]),
        Replica::new(3, 0, 0, fan_in()),
        Replica::new(3, 1, 1, fan_in()),
    ]
}

/// Assert the hot arena matches the legacy replicas bit for bit, and that
/// its sentinel matches the hot side's cold protocol state.
fn assert_in_lockstep(hot: &HotArena, hot_cold: &[Replica], legacy: &[Replica], ctx: &str) {
    for (i, l) in legacy.iter().enumerate() {
        assert_eq!(
            hot.eligible_from[i].to_bits(),
            hot_cold[i].state.eligible_from().to_bits(),
            "{ctx}: slot {i} sentinel diverged from cold state"
        );
        assert_eq!(hot_cold[i].state, l.state, "{ctx}: slot {i} protocol state");
        assert_eq!(hot.processed[i], l.processed, "{ctx}: slot {i} processed");
        assert_eq!(hot.emitted[i], l.emitted, "{ctx}: slot {i} emitted");
        assert_eq!(
            hot.idle_discards[i], l.idle_discards,
            "{ctx}: slot {i} idle_discards"
        );
        assert_eq!(
            hot.out_acc[i].to_bits(),
            l.out_acc.to_bits(),
            "{ctx}: slot {i} out_acc"
        );
        assert_eq!(
            hot.cycles_used[i].to_bits(),
            l.cycles_used.to_bits(),
            "{ctx}: slot {i} cycles_used"
        );
        assert_eq!(hot.rr[i] as usize, l.rr_cursor(), "{ctx}: slot {i} rr");
        assert_eq!(
            hot.out_births[i], l.out_births,
            "{ctx}: slot {i} out_births"
        );
        let (p0, _) = hot.port_range(i);
        let mut queued = 0u32;
        for (pi, port) in l.ports.iter().enumerate() {
            let hot_port = &hot.ports[p0 + pi];
            let hot_q: Vec<f64> = hot_port.queue.iter().collect();
            let cold_q: Vec<f64> = port.queue.iter().copied().collect();
            assert_eq!(hot_q, cold_q, "{ctx}: slot {i} port {pi} queue");
            assert_eq!(
                hot.drops[p0 + pi],
                port.drops,
                "{ctx}: slot {i} port {pi} drops"
            );
            assert_eq!(
                hot_port.processed, port.processed,
                "{ctx}: slot {i} port {pi} processed"
            );
            assert_eq!(
                hot_port.head_progress.to_bits(),
                port.head_progress.to_bits(),
                "{ctx}: slot {i} port {pi} head_progress"
            );
            queued += hot_port.queue.len() as u32;
        }
        // The invariant `process_rr`'s probe terminates on.
        assert_eq!(hot.queued[i], queued, "{ctx}: slot {i} queued counter");
    }
    assert_eq!(
        hot.has_any_work(),
        legacy.iter().any(|r| r.has_work()),
        "{ctx}: has_any_work"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hot_arena_never_diverges_from_cold_state(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut legacy = fixture();
        let mut hot_cold = fixture();
        let mut hot = HotArena::from_cold(&hot_cold);
        let mut now = 0.0f64;
        let sync_delay = 0.5f64;

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Offer { slot, port, n } => {
                    let nports = legacy[slot].ports.len();
                    let port = port % nports;
                    let births: Vec<f64> = (0..n).map(|j| now + j as f64 * 0.01).collect();
                    legacy[slot].offer(port, &births, now);
                    hot.full().offer(slot, port, &births, now);
                }
                Op::Process { slot, budget } => {
                    let a = legacy[slot].process(budget);
                    let b = hot.full().process(slot, budget);
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                Op::Activate { slot, sync } => {
                    let delay = if sync { sync_delay } else { 0.0 };
                    legacy[slot].activate(now, delay);
                    hot_cold[slot].activate(now, delay);
                    let state = hot_cold[slot].state;
                    hot.on_activate(slot, &state);
                }
                Op::Deactivate { slot } => {
                    legacy[slot].deactivate();
                    hot_cold[slot].deactivate();
                    let state = hot_cold[slot].state;
                    hot.on_deactivate(slot, &state);
                }
                Op::Kill { slot } => {
                    legacy[slot].kill();
                    hot_cold[slot].kill();
                    let state = hot_cold[slot].state;
                    hot.on_kill(slot, &state);
                }
                Op::Recover { slot, sync } => {
                    let delay = if sync { sync_delay } else { 0.0 };
                    legacy[slot].recover(now, delay);
                    hot_cold[slot].recover(now, delay);
                    let state = hot_cold[slot].state;
                    hot.on_recover(slot, &state);
                }
                Op::Tick => now += 0.25,
            }
            assert_in_lockstep(&hot, &hot_cold, &legacy, &format!("step {step} ({op:?})"));
        }
    }
}

/// `queued[i]` and the ring indices are `u32`: a port, or a replica's ports
/// together, that could hold more is refused when the arena is built — in
/// release builds too — instead of wrapping a counter later.
#[test]
#[should_panic(expected = "(pe 3, port 1, capacity 2147483648)")]
fn from_cold_refuses_capacities_past_the_u32_counters() {
    let half = InPort::new(1.0, 1.0, 1 << 31);
    HotArena::from_cold(&[Replica::new(3, 0, 0, vec![half.clone(), half])]);
}

/// GPS water-filling written the obvious way over [`Replica`]s: every
/// round the eligible replicas with queued work share what is left of the
/// budget equally, until the budget or the work runs out. Returns the
/// unspent remainder. This was `laar-runtime`'s worker loop; it stays as
/// the reference [`HotChunk::water_fill`](laar_dsps::HotChunk::water_fill)
/// is bit-compatible with.
fn reference_water_fill(replicas: &mut [Replica], now: f64, budget: f64) -> f64 {
    let mut remaining = budget;
    loop {
        let busy: Vec<usize> = (0..replicas.len())
            .filter(|&i| replicas[i].eligible(now) && replicas[i].has_work())
            .collect();
        if busy.is_empty() || remaining <= budget * 1e-12 {
            break;
        }
        let share = remaining / busy.len() as f64;
        let mut progressed = false;
        for &i in &busy {
            let used = replicas[i].process(share);
            remaining -= used;
            if used > 0.0 {
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    remaining
}

/// One input port: `(cost, selectivity, capacity)`; one draw in eight is a
/// zero-cost port (its tuples complete on any share).
fn port_strategy() -> impl Strategy<Value = (f64, f64, usize)> {
    (0usize..8, 0.5f64..9.0, 0.2f64..2.0, 1usize..8)
        .prop_map(|(free, cost, sel, cap)| (if free == 0 { 0.0 } else { cost }, sel, cap))
}

/// One pass of a host: `(replica, port, n)` offers, the trace time that
/// elapsed before it, and its CPU budget.
type Pass = (Vec<(usize, usize, usize)>, f64, f64);

fn pass_strategy() -> impl Strategy<Value = Pass> {
    (
        proptest::collection::vec((0usize..64, 0usize..4, 0usize..7), 0..10),
        0.0f64..0.4,
        0.0f64..40.0,
    )
}

/// Offer `n` tuples born around `now` to both sides.
fn offer_both(
    legacy: &mut [Replica],
    hot: &mut HotArena,
    (slot, port, n): (usize, usize, usize),
    now: f64,
) {
    let slot = slot % legacy.len();
    let nports = legacy[slot].ports.len();
    if nports == 0 {
        return;
    }
    let births: Vec<f64> = (0..n).map(|j| now + j as f64 * 0.01).collect();
    legacy[slot].offer(port % nports, &births, now);
    hot.full().offer(slot, port % nports, &births, now);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn water_fill_matches_the_reference_gps_loop(
        // Replicas of zero to three ports, each with an eligibility kind.
        shapes in proptest::collection::vec(
            (proptest::collection::vec(port_strategy(), 0..4), 0usize..6),
            1..8,
        ),
        backlog in proptest::collection::vec((0usize..64, 0usize..4, 0usize..7), 0..16),
        passes in proptest::collection::vec(pass_strategy(), 1..6),
    ) {
        let mut legacy: Vec<Replica> = shapes
            .iter()
            .enumerate()
            .map(|(i, (ports, _))| {
                let ports = ports.iter().map(|&(c, s, cap)| InPort::new(c, s, cap)).collect();
                Replica::new(i, 0, 0, ports)
            })
            .collect();
        // Queue a backlog while everything runs, then put every replica in
        // its drawn state — so the busy scan meets every sentinel with and
        // without queued work: running, inside a sync window that a later
        // pass outlives, past one, idle, dead.
        for &(slot, port, n) in &backlog {
            let rep = &mut legacy[slot % shapes.len()];
            if !rep.ports.is_empty() {
                rep.offer_n(port % rep.ports.len(), n, 0.0, 0.0);
            }
        }
        for (rep, (_, kind)) in legacy.iter_mut().zip(&shapes) {
            rep.state = match kind {
                0 => SlotState { sync_until: Some(0.3), ..SlotState::default() },
                1 => SlotState { sync_until: Some(-1.0), ..SlotState::default() },
                2 => SlotState { active: false, ..SlotState::default() },
                3 => SlotState { alive: false, ..SlotState::default() },
                _ => SlotState::default(),
            };
        }
        // The snapshot carries queues, counters and sentinels alike.
        let mut hot = HotArena::from_cold(&legacy);
        let mut scratch = WfScratch::default();
        let n = legacy.len();
        let mut now = 0.0f64;
        for (pi, (offers, dt, budget)) in passes.iter().enumerate() {
            now += dt;
            for &o in offers {
                offer_both(&mut legacy, &mut hot, o, now);
            }
            let want = reference_water_fill(&mut legacy, now, *budget);
            let got = hot.full().water_fill(0, n, now, *budget, &mut scratch);
            assert_eq!(want.to_bits(), got.to_bits(), "pass {pi}: remainder");
            assert_in_lockstep(&hot, &legacy, &legacy, &format!("pass {pi}"));
        }
    }
}

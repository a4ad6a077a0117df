//! Correctness of the batched SPSC ring operations.
//!
//! Three angles: (1) a property test driving two rings — one through the
//! batched `push_slice`/`drain_into`/`drain_slices` API, one through
//! scalar `push`/`pop` — with the same random operation sequence,
//! asserting they are observation-equivalent (same accepted counts, same
//! popped values, same residuals); (2) a two-thread stress test moving a
//! million tuples through a capacity-8 ring in slices, asserting no loss,
//! duplication, or reordering; (3) a wrap-around leak test with a
//! drop-counting payload, asserting every value ever created is dropped
//! exactly once.

use laar_runtime::spsc;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One step of the interleaving the property test explores.
#[derive(Debug, Clone)]
enum Op {
    /// Push a slice of `n` fresh values (batched ring: one `push_slice`;
    /// reference ring: scalar `push` per value).
    PushSlice(usize),
    /// Pop up to `n` single values from both rings.
    Pop(usize),
    /// Drain everything (batched ring: `drain_into`; reference: pop-loop).
    Drain,
    /// Drain everything without a staging buffer (batched ring:
    /// `drain_slices`; reference: pop-loop).
    DrainSlices,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..4, 0usize..13).prop_map(|(kind, n)| match kind {
        0 => Op::PushSlice(n),
        1 => Op::Pop(n),
        2 => Op::Drain,
        _ => Op::DrainSlices,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batched_ops_are_observation_equivalent_to_scalar_ops(
        cap in 1usize..12,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let (mut btx, mut brx) = spsc::channel::<u64>(cap);
        let (mut stx, mut srx) = spsc::channel::<u64>(cap);
        let mut next = 0u64; // fresh values shared by both rings
        for op in &ops {
            match *op {
                Op::PushSlice(n) => {
                    let vals: Vec<u64> = (next..next + n as u64).collect();
                    next += n as u64;
                    let acc_b = btx.push_slice(&vals);
                    let mut acc_s = 0;
                    for &v in &vals {
                        if stx.push(v).is_ok() {
                            acc_s += 1;
                        }
                    }
                    prop_assert_eq!(acc_b, acc_s);
                }
                Op::Pop(n) => {
                    for _ in 0..n {
                        prop_assert_eq!(brx.pop(), srx.pop());
                    }
                }
                Op::Drain => {
                    let mut got_b = Vec::new();
                    brx.drain_into(&mut got_b);
                    let got_s: Vec<u64> = std::iter::from_fn(|| srx.pop()).collect();
                    prop_assert_eq!(got_b, got_s);
                }
                Op::DrainSlices => {
                    // With capacities 1–11 and pushes of up to 12 the
                    // sequences meet full, empty and wrapped rings alike.
                    let mut got_b = Vec::new();
                    let mut slices = 0;
                    let n = brx.drain_slices(|s| {
                        assert!(!s.is_empty(), "an empty slice is never handed over");
                        slices += 1;
                        got_b.extend_from_slice(s);
                    });
                    let got_s: Vec<u64> = std::iter::from_fn(|| srx.pop()).collect();
                    prop_assert_eq!(n, got_s.len());
                    prop_assert!(slices <= 2, "one run wraps at most once");
                    prop_assert_eq!(slices == 0, got_s.is_empty());
                    prop_assert_eq!(got_b, got_s);
                }
            }
            prop_assert_eq!(brx.len(), srx.len());
        }
        // Residual contents must match too.
        let mut rest_b = Vec::new();
        brx.drain_into(&mut rest_b);
        let rest_s: Vec<u64> = std::iter::from_fn(|| srx.pop()).collect();
        prop_assert_eq!(rest_b, rest_s);
    }
}

#[test]
fn two_thread_slice_stress_loses_and_duplicates_nothing() {
    const N: u64 = 1_000_000;
    let (mut tx, mut rx) = spsc::channel::<u64>(8);
    let producer = std::thread::spawn(move || {
        let mut sent = 0u64;
        let mut chunk = Vec::with_capacity(13);
        while sent < N {
            chunk.clear();
            chunk.extend(sent..(sent + 13).min(N));
            let mut offset = 0;
            while offset < chunk.len() {
                let acc = tx.push_slice(&chunk[offset..]);
                offset += acc;
                if acc == 0 {
                    std::thread::yield_now();
                }
            }
            sent += chunk.len() as u64;
        }
    });
    let mut next = 0u64;
    let mut buf = Vec::new();
    while next < N {
        buf.clear();
        if rx.drain_into(&mut buf) == 0 {
            std::thread::yield_now();
            continue;
        }
        for &v in &buf {
            assert_eq!(v, next, "tuple lost, duplicated, or reordered");
            next += 1;
        }
    }
    producer.join().unwrap();
    assert!(
        rx.pop().is_none(),
        "ring must be empty after the last tuple"
    );
}

/// A payload that counts its drops, to prove the ring neither leaks nor
/// double-drops across index wrap-around.
struct Counted(#[allow(dead_code)] u64, Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.1.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn wrap_around_drop_releases_every_item_exactly_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    let mut created = 0usize;
    let (mut tx, mut rx) = spsc::channel::<Counted>(4);
    // Cycle far past the capacity so head/tail wrap several times, with a
    // mix of consumed, rejected, and still-queued items.
    for round in 0..10u64 {
        for i in 0..3u64 {
            created += 1;
            // A rejected push hands the value back; dropping it here is
            // the caller's "transport drop" and must count exactly once.
            let _ = tx.push(Counted(round * 3 + i, drops.clone()));
        }
        let mut out = Vec::new();
        if round % 2 == 0 {
            rx.drain_into(&mut out);
        } else {
            rx.pop();
        }
    }
    // Some items remain queued; dropping both ends must free them all.
    drop(tx);
    drop(rx);
    assert_eq!(drops.load(Ordering::Relaxed), created);
}

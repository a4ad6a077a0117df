//! Struct-of-arrays hot state: the data-plane kernel of both engines.
//!
//! The simulator runs one [`HotArena`] over every replica of the
//! deployment, a quantum at a time; each host worker of `laar-runtime`
//! runs one over its host's replicas, a wall-clock pass at a time. Offers,
//! GPS water-filling, the sync boundary and the final accounting
//! ([`HotArena::tally_replica`]) are the same code under both drivers.
//!
//! The per-quantum hot path (GPS water-filling and forwarding) touches a
//! handful of fields per replica, while the full [`Replica`] carries the
//! whole protocol state machine. [`HotArena`] keeps the per-replica ones —
//! eligibility, queue depth, accumulators, counters — as dense, host-major
//! parallel `Vec`s, because the busy scan streams two of them over every
//! replica every quantum, and everything about an input port — cost,
//! selectivity, head progress, queue — as one [`Port`] record of exactly a
//! cache line, because a port operation wants all of one port and nothing
//! of its neighbours.
//!
//! **Hot/cold split.** The cold [`Replica`] arena in the simulator stays
//! the protocol source of truth: commands, failures, recoveries, and
//! elections are applied to it through the one shared proxy state machine.
//! The hot arena mirrors the *data-plane consequences* of those
//! transitions at an explicit sync boundary — the `on_activate` /
//! `on_deactivate` / `on_kill` / `on_recover` methods, called at the three
//! places the simulator mutates slot state (due commands, failure
//! injection, recovery). Between control events the hot arena evolves
//! alone; the cold replicas never receive offers, so their data-plane
//! fields stay at their initial values and the hot arena owns every queue,
//! counter, and accumulator. A live worker keeps only a [`SlotState`] per
//! replica as its cold side and calls the same four methods: after a
//! command from its ring, and when its host's crash flag flips.
//!
//! Eligibility is a single f64 sentinel per replica
//! ([`SlotState::eligible_from`]): `+INF` while dead or idle, the
//! sync-window end while syncing, `-INF` while running. The water-filling
//! busy scan is then one branch-light compare per replica over a flat f64
//! array — no status enum, no `Option`, no indirection.
//!
//! Everything here is bit-compatible with [`Replica`]: the floating-point
//! operation order of `process`, the drop/discard bookkeeping of `offer`,
//! and the clear-on-transition semantics are replicated operation for
//! operation: `tests/proptest_arena.rs` holds the two to bitwise lockstep
//! after every operation of random sequences, and the golden digests in
//! `tests/equivalence.rs` pin whole runs to the `Replica`-based engine
//! this arena replaced.

use crate::metrics::SimMetrics;
use laar_exec::proxy::SlotState;
use laar_exec::replica::Replica;
use laar_exec::Conservation;

/// Longest queue a [`Ring`] holds (and the largest port capacity
/// [`HotArena::from_cold`] accepts): the power-of-two buffer length must
/// fit the `u32` head/length pair.
const MAX_QUEUE: usize = 1 << 31;

/// A growable power-of-two ring buffer of `f64` birth timestamps — the
/// struct-of-arrays replacement for `VecDeque<f64>` port queues, with
/// slice-batched pushes and no per-element capacity checks on the pop
/// path. Three words, so that it fits inside the one-line [`Port`].
#[derive(Debug, Clone, Default)]
pub struct Ring {
    buf: Box<[f64]>,
    head: u32,
    len: u32,
}

impl Ring {
    /// Number of queued entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `vals` in order, growing (by power-of-two doubling) as
    /// needed. The caller bounds admission; the ring itself never drops.
    pub fn push_slice(&mut self, vals: &[f64]) {
        if vals.is_empty() {
            return;
        }
        let needed = self.len() + vals.len();
        if needed > self.buf.len() {
            self.grow(needed);
        }
        let cap = self.buf.len();
        let start = (self.head as usize + self.len()) & (cap - 1);
        let n1 = vals.len().min(cap - start);
        self.buf[start..start + n1].copy_from_slice(&vals[..n1]);
        self.buf[..vals.len() - n1].copy_from_slice(&vals[n1..]);
        self.len = needed as u32;
    }

    /// Pop the head entry. Callers must check [`Ring::is_empty`] first.
    #[inline]
    pub fn pop_front(&mut self) -> f64 {
        debug_assert!(self.len > 0, "pop_front on empty ring");
        // SAFETY: a non-empty ring has a power-of-two buffer and `head`
        // is only ever advanced under the `buf.len() - 1` mask, so it
        // stays in bounds.
        let v = unsafe { *self.buf.get_unchecked(self.head as usize) };
        self.head = (self.head + 1) & (self.buf.len() - 1) as u32;
        self.len -= 1;
        v
    }

    /// Drop all entries.
    #[inline]
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Entries front to back (for state comparisons in tests).
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(move |i| self.buf[(self.head as usize + i) & (self.buf.len() - 1)])
    }

    /// Heap bytes held by the backing buffer.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.buf)
    }

    fn grow(&mut self, needed: usize) {
        assert!(
            needed <= MAX_QUEUE,
            "ring of {needed} entries exceeds u32 indexing"
        );
        let mut nb = vec![0.0f64; needed.next_power_of_two().max(8)].into_boxed_slice();
        for (slot, v) in nb.iter_mut().zip(self.iter()) {
            *slot = v;
        }
        self.buf = nb;
        self.head = 0;
    }
}

/// Everything the data plane keeps per input port, in one cache line: an
/// offer, a busy-scan probe, a water-fill step and a completion each touch
/// this line and (overflow drops aside, [`HotArena::drops`]) nothing else
/// of the port.
#[derive(Debug, Clone)]
#[repr(align(64))]
pub struct Port {
    /// Per-tuple CPU cost.
    pub cost: f64,
    /// Selectivity.
    pub sel: f64,
    /// Cycles invested in the head tuple.
    pub head_progress: f64,
    /// Tuples fully processed.
    pub processed: u64,
    /// Queue capacity.
    pub cap: u32,
    /// Queued birth timestamps.
    pub queue: Ring,
}

const _: () = assert!(std::mem::size_of::<Port>() == 64);

/// Reusable scratch for [`HotChunk::water_fill`]: the per-host busy
/// list. One per chunk of the run, allocated once and recycled across
/// quanta.
#[derive(Debug, Clone, Default)]
pub struct WfScratch {
    busy: Vec<u32>,
}

/// Dense parallel arrays of the per-quantum hot replica state, in the
/// simulator's host-major arena order, and one flat table of [`Port`]
/// records indexed by `port_off[i]..port_off[i + 1]`.
///
/// Fields are public: this is engine-owned state, and the engine and the
/// divergence proptests read it directly.
#[derive(Debug, Clone, Default)]
pub struct HotArena {
    /// Eligibility sentinel per replica ([`SlotState::eligible_from`]).
    pub eligible_from: Vec<f64>,
    /// Total queued tuples per replica (the O(1) `has_work` counter).
    pub queued: Vec<u32>,
    /// Selectivity accumulator per replica.
    pub out_acc: Vec<f64>,
    /// Round-robin port cursor per replica.
    pub rr: Vec<u32>,
    /// Tuples fully processed per replica.
    pub processed: Vec<u64>,
    /// `processed` at the last accounting point.
    pub processed_snapshot: Vec<u64>,
    /// Output tuples emitted per replica.
    pub emitted: Vec<u64>,
    /// CPU cycles consumed per replica.
    pub cycles_used: Vec<f64>,
    /// Tuples discarded while idle/dead/syncing per replica.
    pub idle_discards: Vec<u64>,
    /// Birth timestamps of outputs since the last drain, per replica.
    pub out_births: Vec<Vec<f64>>,
    /// Flat port table bounds: replica `i` owns ports
    /// `port_off[i]..port_off[i + 1]`. Length `n + 1`.
    pub port_off: Vec<u32>,
    /// The input ports of every replica.
    pub ports: Vec<Port>,
    /// Overflow drops per port — written only when an offer overflows, so
    /// kept out of the [`Port`] line.
    pub drops: Vec<u64>,
    /// Cached arena-wide index of the port the next `process` call would
    /// draw from, per replica; `u32::MAX` marks the cache stale. Any
    /// mutation of a replica's queues or cursor (`offer`, `process`, the
    /// sync-boundary methods) invalidates; only `water_fill` refreshes.
    active_port: Vec<u32>,
    /// Cycles still needed to finish the head tuple on `active_port`
    /// (meaningful only while the cache is fresh).
    head_need: Vec<f64>,
}

impl HotArena {
    /// Snapshot the complete data-plane state of a cold replica arena.
    /// The simulator builds the hot arena right after initial commands and
    /// election (everything empty, counters zero), but the snapshot is
    /// faithful for any state, which is what the divergence proptests
    /// rely on.
    pub fn from_cold(replicas: &[Replica]) -> Self {
        let n = replicas.len();
        let total_ports: usize = replicas.iter().map(|r| r.ports.len()).sum();
        assert!(
            total_ports < u32::MAX as usize && n < u32::MAX as usize,
            "hot arena exceeds u32 indexing"
        );
        let mut a = Self {
            eligible_from: replicas.iter().map(|r| r.state.eligible_from()).collect(),
            queued: Vec::with_capacity(n),
            out_acc: replicas.iter().map(|r| r.out_acc).collect(),
            rr: replicas.iter().map(|r| r.rr_cursor() as u32).collect(),
            processed: replicas.iter().map(|r| r.processed).collect(),
            processed_snapshot: replicas.iter().map(|r| r.processed_snapshot).collect(),
            emitted: replicas.iter().map(|r| r.emitted).collect(),
            cycles_used: replicas.iter().map(|r| r.cycles_used).collect(),
            idle_discards: replicas.iter().map(|r| r.idle_discards).collect(),
            out_births: replicas.iter().map(|r| r.out_births.clone()).collect(),
            port_off: Vec::with_capacity(n + 1),
            ports: Vec::with_capacity(total_ports),
            drops: Vec::with_capacity(total_ports),
            active_port: vec![u32::MAX; n],
            head_need: vec![0.0; n],
        };
        a.port_off.push(0);
        for r in replicas {
            // What `queued[i]: u32` can still count of this replica's ports.
            let mut room = u32::MAX as usize;
            let mut queued = 0;
            for (port, p) in r.ports.iter().enumerate() {
                assert!(
                    p.queue.len() <= p.capacity && p.capacity <= MAX_QUEUE.min(room),
                    "port capacity exceeds the u32 queue counters: (pe {}, port {port}, capacity {})",
                    r.pe_dense,
                    p.capacity
                );
                room -= p.capacity;
                queued += p.queue.len();
                let mut queue = Ring::default();
                let (front, back) = p.queue.as_slices();
                queue.push_slice(front);
                queue.push_slice(back);
                a.ports.push(Port {
                    cost: p.cost,
                    sel: p.sel,
                    head_progress: p.head_progress,
                    processed: p.processed,
                    cap: p.capacity as u32,
                    queue,
                });
                a.drops.push(p.drops);
            }
            a.queued.push(queued as u32);
            a.port_off.push(a.ports.len() as u32);
        }
        a
    }

    /// Number of replicas.
    #[inline]
    pub fn len(&self) -> usize {
        self.eligible_from.len()
    }

    /// `true` when the arena holds no replicas.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.eligible_from.is_empty()
    }

    /// The flat port range of replica `i`.
    #[inline]
    pub fn port_range(&self, i: usize) -> (usize, usize) {
        (self.port_off[i] as usize, self.port_off[i + 1] as usize)
    }

    /// `true` if any replica holds queued work.
    #[inline]
    pub fn has_any_work(&self) -> bool {
        self.queued.iter().any(|&q| q > 0)
    }

    /// Sync boundary: mirror an Activate command applied to the cold slot
    /// (post-transition state). A dead slot bounces the command, so the
    /// accumulator resets only when the slot is alive — exactly
    /// `Replica::activate`.
    pub fn on_activate(&mut self, i: usize, state: &SlotState) {
        self.active_port[i] = u32::MAX;
        if state.alive {
            self.out_acc[i] = 0.0;
        }
        self.eligible_from[i] = state.eligible_from();
    }

    /// Sync boundary: mirror a Deactivate command (queued input is lost
    /// and counted as discards, exactly `Replica::deactivate`).
    pub fn on_deactivate(&mut self, i: usize, state: &SlotState) {
        self.active_port[i] = u32::MAX;
        self.clear_queues_as_discards(i);
        self.eligible_from[i] = state.eligible_from();
    }

    /// Sync boundary: mirror a failure (queued input is lost and counted
    /// as discards, exactly `Replica::kill`).
    pub fn on_kill(&mut self, i: usize, state: &SlotState) {
        self.on_deactivate(i, state);
    }

    /// Sync boundary: mirror a recovery (accumulator and head progress
    /// reset for state re-synchronization, exactly `Replica::recover`).
    pub fn on_recover(&mut self, i: usize, state: &SlotState) {
        self.active_port[i] = u32::MAX;
        self.out_acc[i] = 0.0;
        let (p0, p1) = self.port_range(i);
        for port in &mut self.ports[p0..p1] {
            port.head_progress = 0.0;
        }
        self.eligible_from[i] = state.eligible_from();
    }

    fn clear_queues_as_discards(&mut self, i: usize) {
        let (p0, p1) = self.port_range(i);
        for port in &mut self.ports[p0..p1] {
            self.idle_discards[i] += port.queue.len() as u64;
            port.queue.clear();
            port.head_progress = 0.0;
        }
        self.queued[i] = 0;
    }

    /// Final accounting of replica `i`, resident on `host` (capacity
    /// `capacity` cycles/s): fold its terminal counters into the
    /// conservation ledger — overflow drops, discards, processed tuples and
    /// what is still queued; the caller supplies `pushed` and any
    /// transport terms — and into the per-host and per-replica exports of
    /// `metrics`. Both engines end a run by calling this once per replica
    /// in dense `pe * k + r` order, which fixes the order of the exported
    /// vectors and of each host's f64 accumulation.
    pub fn tally_replica(
        &self,
        i: usize,
        host: usize,
        capacity: f64,
        ledger: &mut Conservation,
        metrics: &mut SimMetrics,
    ) {
        let (p0, p1) = self.port_range(i);
        let ports = &self.ports[p0..p1];
        for (port, drops) in ports.iter().zip(&self.drops[p0..p1]) {
            ledger.queue_drops += drops;
            ledger.port_residual += port.queue.len() as u64;
        }
        ledger.idle_discards += self.idle_discards[i];
        ledger.processed += self.processed[i];
        metrics.host_cpu_seconds[host] += self.cycles_used[i] / capacity;
        metrics
            .replica_port_processed
            .push(ports.iter().map(|p| p.processed).collect());
        metrics.replica_emitted.push(self.emitted[i]);
        metrics.replica_cycles.push(self.cycles_used[i]);
    }

    /// Resident bytes of the hot arena: every array at its length plus the
    /// heap held by port rings and output buffers. Deterministic for a
    /// given run.
    pub fn bytes(&self) -> u64 {
        fn of<T>(v: &[T]) -> usize {
            std::mem::size_of_val(v)
        }
        let arrays = of(&self.eligible_from) + of(&self.queued) + of(&self.out_acc) + of(&self.rr);
        let counters = of(&self.processed)
            + of(&self.processed_snapshot)
            + of(&self.emitted)
            + of(&self.cycles_used)
            + of(&self.idle_discards);
        let ports = of(&self.port_off) + of(&self.ports) + of(&self.drops);
        let cache = of(&self.active_port) + of(&self.head_need);
        let rings: usize = self.ports.iter().map(|p| p.queue.capacity_bytes()).sum();
        let outs: usize = self.out_births.iter().map(Vec::capacity).sum();
        let outs = of(&self.out_births) + outs * std::mem::size_of::<f64>();
        (arrays + counters + ports + cache + rings + outs) as u64
    }

    /// A mutable view over the whole arena (the single-chunk path's
    /// working handle; local indices coincide with arena indices).
    pub fn full(&mut self) -> HotChunk<'_> {
        HotChunk {
            base: 0,
            pbase: 0,
            port_off: &self.port_off,
            eligible_from: &mut self.eligible_from,
            queued: &mut self.queued,
            out_acc: &mut self.out_acc,
            rr: &mut self.rr,
            processed: &mut self.processed,
            processed_snapshot: &mut self.processed_snapshot,
            emitted: &mut self.emitted,
            cycles_used: &mut self.cycles_used,
            idle_discards: &mut self.idle_discards,
            out_births: &mut self.out_births,
            ports: &mut self.ports,
            drops: &mut self.drops,
            active_port: &mut self.active_port,
            head_need: &mut self.head_need,
        }
    }

    /// Split the arena into disjoint mutable views over the given
    /// contiguous replica ranges (must be ascending and start at 0 — the
    /// staged phases' host-range chunks). The port table splits at the
    /// matching `port_off` boundaries.
    pub fn chunks(&mut self, bounds: &[(usize, usize)]) -> Vec<HotChunk<'_>> {
        let mut rest = self.full();
        bounds
            .iter()
            .map(|&(lo, hi)| {
                assert_eq!(lo, rest.base, "chunk bounds must be contiguous from 0");
                rest.split_front(hi - lo)
            })
            .collect()
    }
}

/// A disjoint mutable view over a contiguous replica range of a
/// [`HotArena`] — what one task of the staged phases (or the single-chunk
/// path, as one full chunk) operates on. Replica indices are chunk-local
/// (`arena index - base`); the port arrays are sliced to the chunk's flat
/// port range.
pub struct HotChunk<'a> {
    base: usize,
    pbase: usize,
    port_off: &'a [u32],
    /// Eligibility sentinels (readable by the busy scan).
    pub eligible_from: &'a mut [f64],
    /// Queued-tuple counters (readable by the busy scan).
    pub queued: &'a mut [u32],
    out_acc: &'a mut [f64],
    rr: &'a mut [u32],
    /// Processed counters (read by primary-work attribution).
    pub processed: &'a mut [u64],
    /// Processed snapshots (re-armed by primary-work attribution).
    pub processed_snapshot: &'a mut [u64],
    emitted: &'a mut [u64],
    cycles_used: &'a mut [f64],
    idle_discards: &'a mut [u64],
    /// Output birth buffers (drained by the forwarding phase).
    pub out_births: &'a mut [Vec<f64>],
    ports: &'a mut [Port],
    drops: &'a mut [u64],
    active_port: &'a mut [u32],
    head_need: &'a mut [f64],
}

impl<'a> HotChunk<'a> {
    /// Cut the first `n` replicas (and their ports) off the front of this
    /// view into a view of their own; `self` keeps the rest.
    fn split_front(&mut self, n: usize) -> HotChunk<'a> {
        let np = self.port_off[self.base + n] as usize - self.pbase;
        macro_rules! take {
            ($f:ident, $n:expr) => {{
                let (head, rest) = std::mem::take(&mut self.$f).split_at_mut($n);
                self.$f = rest;
                head
            }};
        }
        let front = HotChunk {
            base: self.base,
            pbase: self.pbase,
            port_off: self.port_off,
            eligible_from: take!(eligible_from, n),
            queued: take!(queued, n),
            out_acc: take!(out_acc, n),
            rr: take!(rr, n),
            processed: take!(processed, n),
            processed_snapshot: take!(processed_snapshot, n),
            emitted: take!(emitted, n),
            cycles_used: take!(cycles_used, n),
            idle_discards: take!(idle_discards, n),
            out_births: take!(out_births, n),
            ports: take!(ports, np),
            drops: take!(drops, np),
            active_port: take!(active_port, n),
            head_need: take!(head_need, n),
        };
        self.base += n;
        self.pbase += np;
        front
    }

    /// The chunk-local flat port range of local replica `li`.
    #[inline]
    fn local_ports(&self, li: usize) -> (usize, usize) {
        let g = self.base + li;
        (
            self.port_off[g] as usize - self.pbase,
            self.port_off[g + 1] as usize - self.pbase,
        )
    }

    /// Offer tuples to port `port` of local replica `li` at time `now`.
    /// Bit-compatible with `Replica::offer`: ineligible replicas discard,
    /// eligible ones enqueue up to capacity and drop the rest.
    #[inline]
    pub fn offer(&mut self, li: usize, port: usize, births: &[f64], now: f64) {
        if births.is_empty() {
            return;
        }
        if self.eligible_from[li] > now {
            self.idle_discards[li] += births.len() as u64;
            return;
        }
        self.active_port[li] = u32::MAX;
        let p = self.local_ports(li).0 + port;
        let pt = &mut self.ports[p];
        let space = (pt.cap as usize).saturating_sub(pt.queue.len());
        let accepted = births.len().min(space);
        pt.queue.push_slice(&births[..accepted]);
        if accepted < births.len() {
            self.drops[p] += (births.len() - accepted) as u64;
        }
        self.queued[li] += accepted as u32;
    }

    /// Cache the port the next `process` call on `li` would draw from — the
    /// first non-empty port scanning round-robin from the cursor — and the
    /// cycles still needed to finish its head tuple. With every port empty
    /// the cache stays stale, which steers [`Self::water_fill`] onto the
    /// general `process` path (where the call is a no-op).
    #[inline]
    fn refresh_active_port(&mut self, li: usize) {
        let (p0, p1) = self.local_ports(li);
        let rr = p0 + self.rr[li] as usize;
        let mut probe = (rr..p1).chain(p0..rr);
        if let Some(p) = probe.find(|&p| !self.ports[p].queue.is_empty()) {
            let pt = &self.ports[p];
            self.active_port[li] = (self.pbase + p) as u32;
            self.head_need[li] = (pt.cost - pt.head_progress).max(0.0);
        }
    }

    /// GPS water-filling over the local replicas `lo..hi` (one host) with
    /// `budget` CPU cycles at time `t`. Returns the unspent remainder.
    ///
    /// Bit-compatible with the reference loop (equal shares per round
    /// over the busy set, `remaining -= used` in busy order, compaction
    /// of drained replicas between rounds), but restructured for the
    /// saturated regime where almost every call is *partial progress*:
    /// each replica's active port and head-need are cached (persistently,
    /// across quanta), so the common round step is a compare on two flat
    /// arrays and an add on one port line (`share < need` →
    /// `head_progress += share`) instead of a per-call port scan through
    /// the round-robin cursor. Every mutation that can move the active
    /// port — an offer, a completion through [`Self::process`], a control
    /// transition — invalidates the cache; the busy scan lazily re-derives
    /// only those entries, which in a saturated steady state is a small
    /// fraction of the busy set.
    pub fn water_fill(
        &mut self,
        lo: usize,
        hi: usize,
        t: f64,
        budget: f64,
        s: &mut WfScratch,
    ) -> f64 {
        s.busy.clear();
        for i in lo..hi {
            if self.eligible_from[i] <= t && self.queued[i] > 0 {
                if self.active_port[i] == u32::MAX {
                    self.refresh_active_port(i);
                }
                s.busy.push(i as u32);
            }
        }
        let mut remaining = budget;
        let mut len = s.busy.len();
        loop {
            if len == 0 || remaining <= budget * 1e-12 {
                break;
            }
            let share = remaining / len as f64;
            let mut progressed = false;
            for bi in 0..len {
                let i = s.busy[bi] as usize;
                let ap = self.active_port[i];
                if ap != u32::MAX && share < self.head_need[i] {
                    // Partial progress: identical f64 ops to what
                    // `process` performs when the share doesn't cover
                    // the head tuple, minus the rediscovery work.
                    let pt = &mut self.ports[ap as usize - self.pbase];
                    pt.head_progress += share;
                    self.cycles_used[i] += share;
                    remaining -= share;
                    self.head_need[i] = (pt.cost - pt.head_progress).max(0.0);
                    progressed = true;
                } else {
                    let used = self.process(i, share);
                    remaining -= used;
                    if used > 0.0 {
                        progressed = true;
                    }
                    if self.queued[i] > 0 {
                        self.refresh_active_port(i);
                    }
                }
            }
            if !progressed {
                break;
            }
            let mut w = 0;
            for r in 0..len {
                if self.queued[s.busy[r] as usize] > 0 {
                    s.busy[w] = s.busy[r];
                    w += 1;
                }
            }
            len = w;
        }
        remaining
    }

    /// Consume up to `budget` cycles of queued work on local replica `li`,
    /// bit-compatible with `Replica::process` (same round-robin order,
    /// same floating-point operation sequence). The single-port case —
    /// the overwhelming majority — skips the cursor scan and the two
    /// modulo operations per tuple.
    pub fn process(&mut self, li: usize, budget: f64) -> f64 {
        self.active_port[li] = u32::MAX;
        let (p0, p1) = self.local_ports(li);
        if p0 == p1 {
            return 0.0;
        }
        if p1 == p0 + 1 {
            self.process_single(li, p0, budget)
        } else {
            self.process_rr(li, p0, p1, budget)
        }
    }

    fn process_single(&mut self, li: usize, p: usize, budget: f64) -> f64 {
        let pt = &mut self.ports[p];
        let (cost, sel) = (pt.cost, pt.sel);
        let mut used = 0.0;
        let mut out_acc = self.out_acc[li];
        let mut done = 0u32;
        let mut emitted = 0u64;
        let mut hp = pt.head_progress;
        let q = &mut pt.queue;
        let births = &mut self.out_births[li];
        while used < budget {
            if q.is_empty() {
                break;
            }
            let need = (cost - hp).max(0.0);
            let avail = budget - used;
            if avail >= need {
                used += need;
                hp = 0.0;
                let birth = q.pop_front();
                done += 1;
                out_acc += sel;
                while out_acc >= 1.0 {
                    births.push(birth);
                    emitted += 1;
                    out_acc -= 1.0;
                }
            } else {
                hp += avail;
                used = budget;
                break;
            }
        }
        pt.head_progress = hp;
        pt.processed += done as u64;
        self.out_acc[li] = out_acc;
        self.queued[li] -= done;
        self.processed[li] += done as u64;
        self.emitted[li] += emitted;
        self.cycles_used[li] += used;
        used
    }

    fn process_rr(&mut self, li: usize, p0: usize, p1: usize, budget: f64) -> f64 {
        let ports = &mut self.ports[p0..p1];
        let nports = ports.len();
        let mut used = 0.0;
        let mut rr = self.rr[li] as usize;
        assert!(
            rr < nports,
            "round-robin cursor outside the replica's ports"
        );
        let mut left = self.queued[li];
        let mut emitted = 0u64;
        let mut out_acc = self.out_acc[li];
        let births = &mut self.out_births[li];
        while used < budget && left > 0 {
            // One cyclic probe from the cursor. `left > 0` of the tuples
            // counted in `queued[li]` are still on these ports, so it stops
            // at a non-empty one within `nports` steps.
            let mut k = rr;
            // SAFETY: `k` starts at `rr < nports` (asserted above; below,
            // `rr` is only set to a wrapped `k + 1`) and wraps to 0 at
            // `nports`, so it always indexes `ports`.
            while unsafe { ports.get_unchecked(k) }.queue.is_empty() {
                k += 1;
                if k == nports {
                    k = 0;
                }
                debug_assert!(k != rr, "queued[{li}] counts tuples no port holds");
            }
            // SAFETY: as above, `k < nports`.
            let pt = unsafe { ports.get_unchecked_mut(k) };
            let need = (pt.cost - pt.head_progress).max(0.0);
            let avail = budget - used;
            if avail >= need {
                used += need;
                pt.head_progress = 0.0;
                let birth = pt.queue.pop_front();
                left -= 1;
                pt.processed += 1;
                out_acc += pt.sel;
                while out_acc >= 1.0 {
                    births.push(birth);
                    emitted += 1;
                    out_acc -= 1.0;
                }
                rr = k + 1;
                if rr == nports {
                    rr = 0;
                }
            } else {
                pt.head_progress += avail;
                used = budget;
                break;
            }
        }
        let done = self.queued[li] - left;
        self.rr[li] = rr as u32;
        self.out_acc[li] = out_acc;
        self.queued[li] = left;
        self.processed[li] += done as u64;
        self.emitted[li] += emitted;
        self.cycles_used[li] += used;
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_exec::replica::InPort;

    #[test]
    fn ring_push_pop_wraps_and_grows() {
        let mut r = Ring::default();
        assert!(r.is_empty());
        r.push_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(r.pop_front(), 1.0);
        // Force wraparound: head has advanced, fill past the tail.
        r.push_slice(&[4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let drained: Vec<f64> =
            std::iter::from_fn(|| (!r.is_empty()).then(|| r.pop_front())).collect();
        assert_eq!(drained, vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        // Growth across a wrapped state preserves order.
        let mut r = Ring::default();
        r.push_slice(&[0.0; 7]);
        for _ in 0..6 {
            r.pop_front();
        }
        r.push_slice(&[10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]);
        let vals: Vec<f64> = r.iter().collect();
        assert_eq!(vals, vec![0.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]);
    }

    fn cold_pair() -> Vec<Replica> {
        vec![
            Replica::new(0, 0, 0, vec![InPort::new(10.0, 1.0, 4)]),
            Replica::new(
                1,
                0,
                0,
                vec![InPort::new(5.0, 0.5, 8), InPort::new(2.0, 1.5, 8)],
            ),
        ]
    }

    #[test]
    fn hot_ops_match_cold_replica_bitwise() {
        // One, two and four ports. Offers land on one port at a time, so on
        // the four-port replica the cyclic probe of `process_rr` starts on
        // an empty port, passes empty ports on both sides of the cursor and
        // wraps; the odd budgets run out in the middle of a head tuple.
        let mut cold = cold_pair();
        let four = [2.0, 3.0, 5.0, 1.0].map(|cost| InPort::new(cost, 0.75, 8));
        cold.push(Replica::new(2, 0, 0, four.to_vec()));
        let mut hot = HotArena::from_cold(&cold);
        let births = [0.25, 0.5, 0.75, 1.0, 1.25];
        for (port, budgets) in [
            (0, [7.0, 13.0, 2.5]),
            (2, [5.0, 7.5, 4.0]),
            (1, [4.0, 9.0, 1.0]),
        ] {
            for (i, r) in cold.iter_mut().enumerate() {
                let port = port % r.ports.len();
                r.offer(port, &births, 1.0);
                hot.full().offer(i, port, &births, 1.0);
                for budget in budgets {
                    let (want, got) = (r.process(budget), hot.full().process(i, budget));
                    assert_eq!(want.to_bits(), got.to_bits(), "replica {i} budget {budget}");
                }
            }
            assert_matches_cold(&hot, &cold);
        }
        let (p0, p1) = hot.port_range(2);
        let mid_tuple = hot.ports[p0..p1].iter().any(|p| p.head_progress > 0.0);
        assert!(
            hot.queued[2] > 0 && mid_tuple,
            "the last budget ends mid-wrap"
        );
    }

    /// Every data-plane field of `hot` equals its cold replica's, bitwise.
    fn assert_matches_cold(hot: &HotArena, cold: &[Replica]) {
        for (i, r) in cold.iter().enumerate() {
            assert_eq!(hot.processed[i], r.processed);
            assert_eq!(hot.emitted[i], r.emitted);
            assert_eq!(hot.out_acc[i].to_bits(), r.out_acc.to_bits());
            assert_eq!(hot.cycles_used[i].to_bits(), r.cycles_used.to_bits());
            assert_eq!(hot.out_births[i], r.out_births);
            assert_eq!(hot.rr[i] as usize, r.rr_cursor());
            let (p0, p1) = hot.port_range(i);
            let hot_ports = hot.ports[p0..p1].iter().zip(&hot.drops[p0..p1]);
            let mut queued = 0;
            for (port, (hp, drops)) in r.ports.iter().zip(hot_ports) {
                let qs: Vec<f64> = hp.queue.iter().collect();
                assert_eq!(qs, Vec::from(port.queue.clone()), "replica {i}");
                assert_eq!(*drops, port.drops);
                assert_eq!(hp.processed, port.processed);
                assert_eq!(hp.head_progress.to_bits(), port.head_progress.to_bits());
                queued += qs.len() as u32;
            }
            assert_eq!(hot.queued[i], queued);
        }
    }

    #[test]
    fn overflow_drops_and_idle_discards_match() {
        let mut cold = cold_pair();
        let mut hot = HotArena::from_cold(&cold);
        let many = [0.0f64; 10];
        {
            let mut hc = hot.full();
            cold[0].offer(0, &many, 0.0);
            hc.offer(0, 0, &many, 0.0);
        }
        use laar_exec::HaSlot;
        cold[0].deactivate();
        let state = cold[0].state;
        hot.on_deactivate(0, &state);
        {
            let mut hc = hot.full();
            cold[0].offer(0, &many, 0.0);
            hc.offer(0, 0, &many, 0.0);
        }
        assert_eq!(hot.idle_discards[0], cold[0].idle_discards);
        assert_eq!(hot.drops[0], cold[0].ports[0].drops);
        assert_eq!(hot.queued[0], 0);
        assert!(!cold[0].has_work());
        assert_eq!(hot.eligible_from[0], f64::INFINITY);
    }

    #[test]
    fn tally_matches_the_cold_ledger() {
        let mut cold = cold_pair();
        let mut hot = HotArena::from_cold(&cold);
        let births = [0.0f64; 6];
        for (i, r) in cold.iter_mut().enumerate() {
            r.offer(0, &births, 0.0); // overflows the 4-slot port of replica 0
            r.process(12.0);
            let mut hc = hot.full();
            hc.offer(i, 0, &births, 0.0);
            hc.process(i, 12.0);
        }
        use laar_exec::HaSlot;
        cold[1].kill();
        let state = cold[1].state;
        hot.on_kill(1, &state);

        let (mut want, mut got) = (Conservation::default(), Conservation::default());
        let mut m = SimMetrics {
            host_cpu_seconds: vec![0.0],
            ..Default::default()
        };
        for (i, r) in cold.iter().enumerate() {
            want.tally_replica(r);
            hot.tally_replica(i, 0, 4.0, &mut got, &mut m);
        }
        assert_eq!(got, want);
        assert!(got.queue_drops > 0 && got.idle_discards > 0 && got.processed > 0);
        assert_eq!(
            m.replica_cycles,
            vec![cold[0].cycles_used, cold[1].cycles_used]
        );
        assert_eq!(m.replica_emitted, vec![cold[0].emitted, cold[1].emitted]);
        assert_eq!(
            m.replica_port_processed[1],
            vec![cold[1].ports[0].processed, 0]
        );
        let cpu = cold[0].cycles_used / 4.0 + cold[1].cycles_used / 4.0;
        assert_eq!(m.host_cpu_seconds[0].to_bits(), cpu.to_bits());
    }

    #[test]
    fn chunk_split_covers_ports_disjointly() {
        let cold = vec![
            Replica::new(0, 0, 0, vec![InPort::new(1.0, 1.0, 8)]),
            Replica::new(
                0,
                1,
                0,
                vec![InPort::new(1.0, 1.0, 8), InPort::new(1.0, 1.0, 8)],
            ),
            Replica::new(1, 0, 1, vec![InPort::new(1.0, 1.0, 8)]),
            Replica::new(1, 1, 1, Vec::new()),
        ];
        let mut hot = HotArena::from_cold(&cold);
        let views = hot.chunks(&[(0, 2), (2, 4)]);
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].queued.len(), 2);
        assert_eq!(views[1].queued.len(), 2);
        assert_eq!(views[0].ports.len(), 3);
        assert_eq!(views[1].ports.len(), 1);
        drop(views);
        // A zero-port replica processes nothing and uses no cycles.
        {
            let mut hc = hot.full();
            assert_eq!(hc.process(3, 100.0), 0.0);
        }
        assert_eq!(hot.cycles_used[3], 0.0);
    }
}

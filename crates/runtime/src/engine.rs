//! The live execution engine.
//!
//! [`LiveRuntime`] takes the exact inputs [`laar_dsps::Simulation`] takes —
//! an [`Application`], a [`Placement`], an [`ActivationStrategy`], an
//! [`InputTrace`], and a [`FailurePlan`] — and executes them on real OS
//! threads instead of a discrete event loop:
//!
//! * **one worker thread per host**; the replicas placed on that host live
//!   in a [`HotArena`] — the simulator's data-plane kernel — and every pass
//!   of the thread is one GPS water-fill of it, paced against a
//!   [`ScaledClock`] (cycle budget = host capacity × elapsed trace time);
//! * **bounded SPSC rings** ([`crate::spsc`]) carry tuple birth timestamps
//!   between threads — one ring per (producer replica or source, consumer
//!   replica input port), drop-on-overflow like the simulator's ports, each
//!   drained straight into its port queue;
//! * the calling thread becomes the **coordinator**: it paces the
//!   wall-clock [`SourceEmitter`]s, drives the shared
//!   [`ControlLoop`] (RateMonitor → HAController → delayed commands),
//!   delivers commands through per-host command rings, injects
//!   [`FailurePlan`] outages, and performs heartbeat-based failure
//!   detection and primary election through the same
//!   [`laar_exec::ProxyState`] machine the simulator drives — only the
//!   clock and the transport differ;
//! * host threads publish **heartbeats** (their current trace-time) through
//!   atomics; a heartbeat older than `detection_delay` marks the host dead
//!   in the coordinator's shadow state and triggers fail-over, exactly like
//!   the simulator's delayed detection.
//!
//! The run produces the same [`SimMetrics`] the simulator produces, plus a
//! [`Conservation`] ledger proving that every tuple pushed into the data
//! plane is accounted for (processed, dropped, discarded, or still queued
//! at shutdown).
//!
//! ## Divergence from the simulator (the documented tolerance)
//!
//! The simulator is deterministic; the live engine is subject to OS
//! scheduling. Three effects cause bounded divergence: (i) ticks are not
//! exactly `tick` seconds long, so CPU budgets and queue drains quantize
//! differently; (ii) the control plane (election, commands, detection)
//! observes the data plane through atomics with real latency; (iii) work is
//! attributed to the primary at worker-tick granularity, so a fail-over can
//! mis-attribute up to one tick of processing. Source emission, in
//! contrast, is *exact*: emitters integrate the schedule, so
//! `source_emitted` matches the simulator tuple-for-tuple. Parity tests
//! compare processed/dropped volumes within a relative tolerance rather
//! than exactly.

use crate::clock::ScaledClock;
use crate::spsc::{self, Consumer, Producer};
use laar_adapt::{AdaptConfig, AdaptReport, AdaptiveController};
use laar_core::controller::{Command, HaController};
use laar_core::monitor::RateMonitor;
use laar_dsps::arena::{HotArena, WfScratch};
use laar_dsps::metrics::{LatencyStats, SimMetrics, TimeSeries};
use laar_dsps::trace::{ArrivalProcess, InputTrace, SourceEmitter};
use laar_exec::replica::{InPort, Replica};
use laar_exec::{
    apply_to_slot, ControlConfig, ControlLoop, FailurePlan, HaSlot, ProxyState, SlotState,
};
use laar_model::{ActivationStrategy, Application, ComponentKind, Placement, RateTable};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

pub use laar_exec::Conservation;

/// Tunables of the live engine. The control-loop and queue parameters
/// mirror [`laar_dsps::SimConfig`] so a run can be compared against the
/// simulator under identical settings; `time_scale` and `tick` are specific
/// to live execution.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Trace seconds per wall-clock second (1.0 = real time). Tests run
    /// accelerated; see [`RuntimeConfig::accelerated`].
    pub time_scale: f64,
    /// Target worker/coordinator loop period in trace seconds. Budgets are
    /// computed from *measured* elapsed time, so oversleeping coarsens
    /// granularity without losing CPU budget.
    pub tick: f64,
    /// Period of the Rate Monitor → HAController control loop (seconds).
    pub monitor_interval: f64,
    /// Latency from HAController decision to command taking effect.
    pub command_latency: f64,
    /// Time a newly (re)activated replica spends re-synchronizing state.
    pub sync_delay: f64,
    /// Heartbeats older than this mark a host dead (fail-over trigger).
    pub detection_delay: f64,
    /// Queue capacity per input port in seconds of peak arrival rate.
    pub queue_capacity_secs: f64,
    /// Rate Monitor bucket width (seconds).
    pub monitor_bucket: f64,
    /// Rate Monitor bucket count (window = width × count).
    pub monitor_buckets: usize,
    /// Run the HAController loop (disable to freeze activations).
    pub controller_enabled: bool,
    /// Arrival process of the sources.
    pub arrivals: ArrivalProcess,
    /// Online adaptation (`laar-adapt`): drift detection over the rate
    /// monitor, warm-started re-planning, and live strategy hot-swaps.
    /// `None` (the default) freezes the deployed strategy.
    pub adapt: Option<AdaptConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            time_scale: 1.0,
            tick: 0.01,
            monitor_interval: 1.0,
            command_latency: 0.05,
            sync_delay: 0.25,
            detection_delay: 0.5,
            queue_capacity_secs: 2.0,
            monitor_bucket: 0.25,
            monitor_buckets: 8,
            controller_enabled: true,
            arrivals: ArrivalProcess::Deterministic,
            adapt: None,
        }
    }
}

impl RuntimeConfig {
    /// A configuration for accelerated runs (tests, demos): `time_scale`×
    /// faster than real time with a coarser tick so wall-clock sleep
    /// granularity stays above the OS timer resolution.
    pub fn accelerated(time_scale: f64) -> Self {
        Self {
            time_scale,
            tick: 0.02,
            ..Self::default()
        }
    }

    /// The simulator configuration with the same control-loop, queue, and
    /// arrival parameters — hand this to [`laar_dsps::Simulation`] to use
    /// the simulator as the oracle for a live run.
    pub fn sim_config(&self) -> laar_dsps::SimConfig {
        laar_dsps::SimConfig {
            quantum: self.tick,
            monitor_interval: self.monitor_interval,
            command_latency: self.command_latency,
            sync_delay: self.sync_delay,
            detection_delay: self.detection_delay,
            queue_capacity_secs: self.queue_capacity_secs,
            monitor_bucket: self.monitor_bucket,
            monitor_buckets: self.monitor_buckets,
            controller_enabled: self.controller_enabled,
            arrivals: self.arrivals,
            threads: 1,
            adapt: self.adapt.clone(),
        }
    }
}

/// The producing end of a transport route (what feeds the rings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TransportFrom {
    /// A source emitter, by dense source index.
    Source(usize),
    /// A PE's primary replica, by dense PE index.
    Pe(usize),
}

/// Per-edge transport accounting: one entry per (producing component →
/// consuming PE input port) route of the application graph. All `k`
/// replica rings of a route fold into the same entry, so a saturated run
/// shows *where* the data plane rejected tuples rather than one global
/// number. `sum(pushed)` and `sum(dropped)` equal the conservation
/// ledger's `pushed` and `transport_dropped` exactly.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TransportEdge {
    /// The producing end of the route.
    pub from: TransportFrom,
    /// Dense index of the consuming PE.
    pub to_pe: usize,
    /// Input-port index on the consuming PE.
    pub port: usize,
    /// Tuples accepted by this route's rings.
    pub pushed: u64,
    /// Tuples rejected by this route's full rings.
    pub dropped: u64,
}

/// The result of a live run: the simulator-shaped metrics plus the
/// conservation ledger (also embedded in `metrics.conservation`; kept as a
/// top-level field because it is the live engine's headline guarantee).
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Same metric set the simulator produces.
    pub metrics: SimMetrics,
    /// Tuple-accounting ledger across the whole data plane.
    pub conservation: Conservation,
    /// Transport pushes/drops broken down per graph edge; sums to the
    /// ledger's `pushed`/`transport_dropped`.
    pub transport_edges: Vec<TransportEdge>,
    /// Total scheduling passes across the coordinator and all workers —
    /// the engine's wakeup count, the denominator of idle-CPU cost. A
    /// fixed-tick loop would wake `duration/tick` times per thread
    /// regardless of load; adaptive wakeups collapse that on quiescent
    /// hosts.
    pub loop_passes: u64,
    /// The adaptation subsystem's accounting (`None` unless
    /// [`RuntimeConfig::adapt`] was set).
    pub adapt: Option<AdaptReport>,
}

/// State shared between the coordinator and all host workers.
struct Shared {
    /// Set once by the coordinator when the trace ends.
    stop: AtomicBool,
    /// Fault injection: while `true`, the host's worker acts crashed.
    host_dead: Vec<AtomicBool>,
    /// Per host: bits of the trace-time of its last heartbeat.
    heartbeat: Vec<AtomicU64>,
    /// Per PE: current primary replica index, or -1 while none is elected.
    primary: Vec<AtomicI64>,
}

/// One inbound transport ring of a host: the local replica and input port
/// it feeds, and its read end. A worker holds them flat, in ascending
/// (local replica, port, producer) order — the order offers reach a port.
type Inbound = (u32, u32, Consumer<f64>);

/// Everything one host worker thread owns: the data plane of its host's
/// replicas as a [`HotArena`] — the kernel the simulator runs — plus the
/// protocol state the coordinator shadows, one [`SlotState`] per replica.
/// The two meet only at the arena's sync boundary (`on_activate` /
/// `on_deactivate` after a command, `on_kill` / `on_recover` at the crash
/// flag), exactly as in `laar_dsps::Simulation`.
struct Worker {
    host: usize,
    capacity: f64,
    duration: f64,
    seconds: usize,
    tick: f64,
    sync_delay: f64,
    k: usize,
    num_pes: usize,
    num_sinks: usize,
    shared: Arc<Shared>,
    /// Data plane of the replicas placed on this host, in ascending
    /// `(pe, r)` order: queues, counters, accumulators.
    hot: HotArena,
    /// Per local replica: protocol state (alive / active / sync window).
    slots: Vec<SlotState>,
    /// Per local replica: `(pe_dense, replica)`.
    ids: Vec<(usize, usize)>,
    /// Global slot (`pe * k + r`) → index among the replicas of the slot's
    /// host; one table shared by all workers (commands reach a worker on
    /// its own ring, so the slot is always one of its own).
    local_of: Arc<[u32]>,
    /// Every transport ring that ends on this host.
    inbound: Vec<Inbound>,
    /// Per local replica: producers toward every downstream replica port.
    out_pe: Vec<Vec<Producer<f64>>>,
    /// Per local replica: transport-route index of each producer in
    /// `out_pe` (all `k` rings of one graph edge share a route).
    out_routes: Vec<Vec<usize>>,
    /// Total number of transport routes (sizes the per-route counters).
    num_routes: usize,
    /// Per local replica: dense sink indices it feeds.
    out_sinks: Vec<Vec<usize>>,
    /// Command ring from the coordinator (raw HAController commands; the
    /// command → transition mapping lives in [`laar_exec::apply_to_slot`]).
    commands: Consumer<Command>,
    /// Longest idle nap (trace seconds): bounded well below
    /// `detection_delay` so a quiet worker's heartbeat never goes stale.
    idle_nap_cap: f64,
}

/// What a worker hands back after its thread exits.
struct WorkerReport {
    host: usize,
    /// The host's data plane as the run left it; the coordinator folds it
    /// into the ledger with [`HotArena::tally_replica`].
    hot: HotArena,
    /// Returned so residual ring contents can be counted after *all*
    /// producers have stopped (counting inside the worker would race with
    /// other workers' final forwarding passes).
    inbound: Vec<Inbound>,
    pe_processed: Vec<u64>,
    sink_received: Vec<u64>,
    output_rate: Vec<f64>,
    utilization: Vec<f64>,
    latency: LatencyStats,
    pushed: u64,
    transport_dropped: u64,
    route_pushed: Vec<u64>,
    route_dropped: Vec<u64>,
    loop_passes: u64,
}

impl Worker {
    fn run(mut self, clock: ScaledClock) -> WorkerReport {
        let mut pe_processed = vec![0u64; self.num_pes];
        let mut sink_received = vec![0u64; self.num_sinks];
        let mut output_rate = vec![0.0f64; self.seconds];
        let mut utilization = vec![0.0f64; self.seconds];
        let mut latency = LatencyStats::default();
        let mut pushed = 0u64;
        let mut transport_dropped = 0u64;
        let mut route_pushed = vec![0u64; self.num_routes];
        let mut route_dropped = vec![0u64; self.num_routes];
        let mut loop_passes = 0u64;

        let mut idle_streak = 0u32;

        let n = self.slots.len();
        let mut scratch = WfScratch::default();
        let mut dead = false;
        let mut last = 0.0f64;

        loop {
            loop_passes += 1;
            // Read the stop flag first: after it is set, exactly one more
            // full pass runs, draining whatever the coordinator flushed.
            let stopping = self.shared.stop.load(Ordering::Acquire);
            let now = clock.now().min(self.duration);
            let sec = (now.floor() as usize).min(self.seconds - 1);

            // Fault injection transitions (the "process supervisor" view:
            // the worker learns its own crash/restart immediately; remote
            // detection happens through heartbeat staleness).
            let want_dead = self.shared.host_dead[self.host].load(Ordering::Acquire);
            if want_dead && !dead {
                dead = true;
                for (li, slot) in self.slots.iter_mut().enumerate() {
                    slot.kill();
                    self.hot.on_kill(li, slot);
                }
            } else if !want_dead && dead {
                dead = false;
                for (li, slot) in self.slots.iter_mut().enumerate() {
                    slot.recover(now, self.sync_delay);
                    self.hot.on_recover(li, slot);
                }
            }
            if !dead {
                self.shared.heartbeat[self.host].store(now.to_bits(), Ordering::Release);
            }

            // Control-plane commands (HAProxy protocol): the single shared
            // command path. Activation of a dead replica bounces inside the
            // state machine itself.
            let mut commanded = false;
            while let Some(cmd) = self.commands.pop() {
                commanded = true;
                let s = cmd.slot();
                let li = self.local_of[s.pe_dense * self.k + s.replica] as usize;
                debug_assert_eq!(self.ids[li], (s.pe_dense, s.replica), "foreign command");
                apply_to_slot(&mut self.slots[li], &cmd, now, self.sync_delay);
                match cmd {
                    Command::Activate(_) => self.hot.on_activate(li, &self.slots[li]),
                    Command::Deactivate(_) => self.hot.on_deactivate(li, &self.slots[li]),
                }
            }

            // From here to the end of the pass the data plane is one view
            // of the arena, as in a simulator quantum.
            let mut view = self.hot.full();

            // Ingest: every inbound ring's visible run goes straight into
            // its port queue, one atomic a ring. Ineligible replicas
            // discard (the proxy answers for a dead process), so counters
            // line up with the simulator's.
            let mut ingested = 0usize;
            for (li, port, ring) in &mut self.inbound {
                ingested += ring.drain_slices(|births| {
                    view.offer(*li as usize, *port as usize, births, now);
                });
            }

            // CPU: water-filling GPS over the trace time actually elapsed.
            let mut cycles_this_pass = 0.0f64;
            let dt = (now - last).max(0.0);
            if dt > 0.0 {
                let budget = self.capacity * dt;
                cycles_this_pass = budget - view.water_fill(0, n, now, budget, &mut scratch);
                utilization[sec] += cycles_this_pass / self.capacity;
            }

            // Forward primary outputs (secondaries' outputs are
            // suppressed) and attribute the logical work done this pass to
            // the current primary.
            let mut forwarded = false;
            for (li, &(pe, r)) in self.ids.iter().enumerate() {
                let primary = self.shared.primary[pe].load(Ordering::Acquire) == r as i64;
                if primary {
                    pe_processed[pe] += view.processed[li] - view.processed_snapshot[li];
                }
                let births = &mut view.out_births[li];
                if births.is_empty() {
                    continue;
                }
                if primary {
                    forwarded = true;
                    for (ring, &route) in self.out_pe[li].iter_mut().zip(&self.out_routes[li]) {
                        let acc = ring.push_slice(births) as u64;
                        let rej = births.len() as u64 - acc;
                        pushed += acc;
                        transport_dropped += rej;
                        route_pushed[route] += acc;
                        route_dropped[route] += rej;
                    }
                    for &snk in &self.out_sinks[li] {
                        sink_received[snk] += births.len() as u64;
                        output_rate[sec] += births.len() as f64;
                        for &b in births.iter() {
                            latency.record(now - b);
                        }
                    }
                }
                births.clear();
            }
            view.processed_snapshot.copy_from_slice(view.processed);

            if stopping {
                break;
            }
            last = now;

            // Adaptive wakeup: a busy pass paces to the next tick deadline
            // with the no-overshoot wait; consecutive idle passes back off
            // exponentially up to `idle_nap_cap` and *park* (a parked
            // thread costs ~0 CPU, can be woken early at shutdown, and
            // oversleeping an idle nap is harmless because the next pass
            // re-anchors to measured time). The cap stays far enough below
            // `detection_delay` that heartbeats never look stale.
            let backlog = (0..n).any(|i| view.eligible_from[i] <= now && view.queued[i] > 0);
            let busy = ingested > 0 || cycles_this_pass > 0.0 || forwarded || commanded || backlog;
            if busy {
                idle_streak = 0;
                clock.wait_until(now + self.tick);
            } else {
                let nap = (self.tick * f64::from(1u32 << idle_streak.min(8)))
                    .min(self.idle_nap_cap)
                    .max(self.tick);
                idle_streak = idle_streak.saturating_add(1).min(8);
                clock.park_for(nap);
            }
        }

        WorkerReport {
            host: self.host,
            hot: self.hot,
            inbound: self.inbound,
            pe_processed,
            sink_received,
            output_rate,
            utilization,
            latency,
            pushed,
            transport_dropped,
            route_pushed,
            route_dropped,
            loop_passes,
        }
    }
}

/// A fully wired live deployment, ready to [`run`](LiveRuntime::run).
pub struct LiveRuntime {
    cfg: RuntimeConfig,
    duration: f64,
    seconds: usize,
    k: usize,
    num_pes: usize,
    num_hosts: usize,
    capacities: Vec<f64>,
    slot_host: Vec<usize>,
    /// Global slot → index among its host's replicas (shared with the
    /// workers).
    local_of: Arc<[u32]>,
    perma_dead: Vec<bool>,

    workers: Vec<Worker>,
    shared: Arc<Shared>,

    emitters: Vec<SourceEmitter>,
    /// Per-source wakeup slack in ring slots: half the smallest transport
    /// ring this source feeds. The coordinator naps until that many
    /// arrivals are due, emitting them as one batch without overflow.
    src_slack: Vec<usize>,
    src_producers: Vec<Vec<Producer<f64>>>,
    /// Transport-route index of each producer in `src_producers` (all `k`
    /// replica rings of one source→PE edge share a route).
    src_routes: Vec<Vec<usize>>,
    /// Per-edge transport accounting; worker-side counters merge in at
    /// shutdown, coordinator-side (source) pushes accrue directly.
    routes: Vec<TransportEdge>,
    /// The shared monitor → controller → delayed-commands loop
    /// (`catch_up: true`: a wall clock can oversleep).
    control: ControlLoop,
    /// The shared election/fail-over state machine, driven over `shadow`.
    proxy: ProxyState,
    plan: FailurePlan,
    cmd_txs: Vec<Producer<Command>>,
    adapt: Option<AdaptiveController>,
    /// `true` while a swap is in flight *and* the last control-plane pass
    /// left some PE without a primary — tuples emitted in such passes are
    /// counted as swap downtime.
    swap_degraded: bool,
    /// The coordinator's shadow of the worker-owned replica states: the
    /// control plane never inspects data-plane structures directly, it
    /// mirrors every command/failure it issues or detects onto these slots
    /// and elects primaries from them.
    shadow: Vec<SlotState>,
    commands_applied: u64,
}

impl LiveRuntime {
    /// Wire up a live deployment of `app` per `placement`, controlled by
    /// `strategy`, fed by `trace`, under `plan`. Takes exactly the inputs
    /// [`laar_dsps::Simulation::new`] takes.
    pub fn new(
        app: &Application,
        placement: &Placement,
        strategy: ActivationStrategy,
        trace: &InputTrace,
        plan: FailurePlan,
        cfg: RuntimeConfig,
    ) -> Self {
        let g = app.graph();
        let k = placement.k();
        let np = g.num_pes();
        let num_hosts = placement.num_hosts();
        let rates = RateTable::compute(app);
        let max_cfg = app.configs().max_config();
        let duration = trace.duration;
        let seconds = (duration.ceil() as usize).max(1);

        // Replicas with the simulator's port-capacity formula, plus the
        // ring capacity each port's transport uses.
        let mut replicas = Vec::with_capacity(np * k);
        let mut port_caps: Vec<Vec<usize>> = Vec::with_capacity(np);
        for (dense, &pe) in g.pes().iter().enumerate() {
            let mut caps = Vec::new();
            let ports: Vec<InPort> = g
                .in_edges(pe)
                .map(|e| {
                    let peak = rates.delta(e.from, max_cfg);
                    let cap = ((cfg.queue_capacity_secs * peak).ceil() as usize).max(8);
                    caps.push(cap);
                    InPort::new(e.cpu_cost, e.selectivity, cap)
                })
                .collect();
            port_caps.push(caps);
            for r in 0..k {
                replicas.push(Replica::new(
                    dense,
                    r,
                    placement.host_of(dense, r).index(),
                    ports.clone(),
                ));
            }
        }

        // Routing tables (same construction as the simulator).
        let port_index = |target: laar_model::ComponentId, edge_id: laar_model::EdgeId| {
            g.in_edges(target)
                .position(|e| e.id == edge_id)
                .expect("edge is an in-edge of its target")
        };
        let mut source_out = vec![Vec::new(); g.num_sources()];
        for (si, &s) in g.sources().iter().enumerate() {
            for e in g.out_edges(s) {
                if g.is_pe(e.to) {
                    source_out[si].push((g.pe_dense_index(e.to).unwrap(), port_index(e.to, e.id)));
                }
            }
        }
        let mut pe_out = vec![Vec::new(); np];
        let mut pe_sink_out = vec![Vec::new(); np];
        let mut sink_index = std::collections::HashMap::new();
        for (i, &snk) in g.sinks().iter().enumerate() {
            sink_index.insert(snk, i);
        }
        for (dense, &pe) in g.pes().iter().enumerate() {
            for e in g.out_edges(pe) {
                match g.component(e.to).kind {
                    ComponentKind::Pe => pe_out[dense]
                        .push((g.pe_dense_index(e.to).unwrap(), port_index(e.to, e.id))),
                    ComponentKind::Sink => pe_sink_out[dense].push(sink_index[&e.to]),
                    ComponentKind::Source => unreachable!(),
                }
            }
        }

        // Transport rings. Consumers are grouped per (slot, port); the
        // producer ends go to the source emitters (coordinator) or to the
        // upstream replica's worker. Each ring has exactly one producer
        // thread and one consumer thread for its whole lifetime, so the
        // SPSC contract holds across fail-overs (a new primary means a
        // *different* producer's rings carry traffic, not a new producer on
        // the same ring).
        let mut consumers: Vec<Vec<Vec<Consumer<f64>>>> = (0..np * k)
            .map(|slot| {
                (0..replicas[slot].ports.len())
                    .map(|_| Vec::new())
                    .collect()
            })
            .collect();
        let mut src_producers: Vec<Vec<Producer<f64>>> =
            (0..g.num_sources()).map(|_| Vec::new()).collect();
        for (si, outs) in source_out.iter().enumerate() {
            for &(pe, port) in outs {
                for r in 0..k {
                    let (tx, rx) = spsc::channel(port_caps[pe][port]);
                    src_producers[si].push(tx);
                    consumers[pe * k + r][port].push(rx);
                }
            }
        }
        let mut up_producers: Vec<Vec<Producer<f64>>> = (0..np * k).map(|_| Vec::new()).collect();
        for (pe, outs) in pe_out.iter().enumerate() {
            for &(succ, port) in outs {
                for r_up in 0..k {
                    for r_down in 0..k {
                        let (tx, rx) = spsc::channel(port_caps[succ][port]);
                        up_producers[pe * k + r_up].push(tx);
                        consumers[succ * k + r_down][port].push(rx);
                    }
                }
            }
        }

        // Transport routes: one accounting entry per graph edge, with
        // per-producer route indices built in the *same iteration order*
        // as the producer vectors above so the two stay parallel.
        let mut routes: Vec<TransportEdge> = Vec::new();
        let mut src_routes: Vec<Vec<usize>> = (0..g.num_sources()).map(|_| Vec::new()).collect();
        for (si, outs) in source_out.iter().enumerate() {
            for &(pe, port) in outs {
                let rid = routes.len();
                routes.push(TransportEdge {
                    from: TransportFrom::Source(si),
                    to_pe: pe,
                    port,
                    pushed: 0,
                    dropped: 0,
                });
                src_routes[si].extend(std::iter::repeat_n(rid, k));
            }
        }
        let mut slot_routes: Vec<Vec<usize>> = (0..np * k).map(|_| Vec::new()).collect();
        for (pe, outs) in pe_out.iter().enumerate() {
            for &(succ, port) in outs {
                let rid = routes.len();
                routes.push(TransportEdge {
                    from: TransportFrom::Pe(pe),
                    to_pe: succ,
                    port,
                    pushed: 0,
                    dropped: 0,
                });
                for r_up in 0..k {
                    slot_routes[pe * k + r_up].extend(std::iter::repeat_n(rid, k));
                }
            }
        }

        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            host_dead: (0..num_hosts).map(|_| AtomicBool::new(false)).collect(),
            heartbeat: (0..num_hosts)
                .map(|_| AtomicU64::new(0.0f64.to_bits()))
                .collect(),
            primary: (0..np).map(|_| AtomicI64::new(-1)).collect(),
        });

        let control = ControlLoop::new(
            RateMonitor::new(g.num_sources(), cfg.monitor_bucket, cfg.monitor_buckets),
            HaController::new(app.configs(), strategy),
            ControlConfig {
                monitor_interval: cfg.monitor_interval,
                command_latency: cfg.command_latency,
                enabled: cfg.controller_enabled,
                // A wall clock can oversleep: re-anchor instead of bursting.
                catch_up: true,
            },
        );
        let emitters: Vec<SourceEmitter> = trace
            .schedules
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let process = match cfg.arrivals {
                    ArrivalProcess::Deterministic => ArrivalProcess::Deterministic,
                    ArrivalProcess::Poisson { seed } => ArrivalProcess::Poisson {
                        seed: seed
                            .wrapping_add(si as u64)
                            .wrapping_mul(0x9E3779B97F4A7C15),
                    },
                };
                SourceEmitter::with_process(s.clone(), process)
            })
            .collect();
        assert_eq!(emitters.len(), g.num_sources(), "trace/source mismatch");
        let src_slack: Vec<usize> = source_out
            .iter()
            .map(|outs| {
                outs.iter()
                    .map(|&(pe, port)| port_caps[pe][port])
                    .min()
                    .unwrap_or(8)
                    / 2
            })
            .map(|s| s.max(1))
            .collect();

        // Slot → index among its host's replicas, numbered in slot order.
        let slot_host: Vec<usize> = replicas.iter().map(|r| r.host).collect();
        let mut host_len = vec![0u32; num_hosts];
        let local_of: Arc<[u32]> = slot_host
            .iter()
            .map(|&h| {
                host_len[h] += 1;
                host_len[h] - 1
            })
            .collect();

        let mut rt = Self {
            duration,
            seconds,
            k,
            num_pes: np,
            num_hosts,
            capacities: placement.hosts().iter().map(|h| h.capacity).collect(),
            slot_host,
            local_of,
            perma_dead: vec![false; np * k],
            workers: Vec::new(),
            shared,
            emitters,
            src_slack,
            src_producers,
            src_routes,
            routes,
            control,
            proxy: ProxyState::new(np, k),
            plan,
            cmd_txs: Vec::new(),
            adapt: cfg
                .adapt
                .clone()
                .map(|a| AdaptiveController::new(app, placement, a)),
            swap_degraded: false,
            shadow: vec![SlotState::default(); np * k],
            commands_applied: 0,
            cfg,
        };

        // Pre-spawn setup, all at t = 0 (mirrors Simulation::new):
        // permanent worst-case crashes, the controller's initial commands,
        // and the first primary election — every transition routed through
        // the shared proxy, mirrored onto the still-local replicas.
        if let FailurePlan::WorstCase { crashed } = rt.plan.clone() {
            for (pe, &r) in crashed.iter().enumerate() {
                let slot = pe * k + r;
                rt.proxy.fail_slot(&mut rt.shadow, pe, r, 0.0);
                replicas[slot].kill();
                rt.perma_dead[slot] = true;
            }
        }
        for cmd in rt.control.initial_commands() {
            rt.commands_applied += 1;
            rt.proxy
                .apply_command(&mut rt.shadow, &cmd, 0.0, rt.cfg.sync_delay);
            let s = cmd.slot();
            apply_to_slot(
                &mut replicas[s.pe_dense * k + s.replica],
                &cmd,
                0.0,
                rt.cfg.sync_delay,
            );
        }
        rt.proxy.elect(&rt.shadow, 0.0);
        rt.publish_primaries();

        // Partition replicas (with their ring ends) into per-host workers,
        // in ascending slot order within each host.
        let mut per_host: Vec<Vec<Replica>> = (0..num_hosts).map(|_| Vec::new()).collect();
        let mut per_host_in: Vec<Vec<Inbound>> = (0..num_hosts).map(|_| Vec::new()).collect();
        let mut per_host_out: Vec<Vec<Vec<Producer<f64>>>> =
            (0..num_hosts).map(|_| Vec::new()).collect();
        let mut per_host_routes: Vec<Vec<Vec<usize>>> =
            (0..num_hosts).map(|_| Vec::new()).collect();
        let mut per_host_sinks: Vec<Vec<Vec<usize>>> = (0..num_hosts).map(|_| Vec::new()).collect();
        let mut prod_iter = up_producers.into_iter();
        let mut route_iter = slot_routes.into_iter();
        for ((slot, rep), ports) in replicas.into_iter().enumerate().zip(consumers) {
            let h = rep.host;
            let li = rt.local_of[slot];
            for (port, rings) in ports.into_iter().enumerate() {
                per_host_in[h].extend(rings.into_iter().map(|rx| (li, port as u32, rx)));
            }
            per_host_out[h].push(prod_iter.next().expect("producer per slot"));
            per_host_routes[h].push(route_iter.next().expect("routes per slot"));
            per_host_sinks[h].push(pe_sink_out[rep.pe_dense].clone());
            per_host[h].push(rep);
        }

        // Idle naps stay well below the detection delay: a napping worker
        // still heartbeats four times per detection window, so a merely
        // quiet host never looks dead.
        let idle_nap_cap = (rt.cfg.detection_delay * 0.25).max(rt.cfg.tick);
        for h in 0..num_hosts {
            let (cmd_tx, cmd_rx) = spsc::channel(1024);
            rt.cmd_txs.push(cmd_tx);
            rt.workers.push(Worker {
                host: h,
                capacity: rt.capacities[h],
                duration,
                seconds,
                tick: rt.cfg.tick,
                sync_delay: rt.cfg.sync_delay,
                k,
                num_pes: np,
                num_sinks: g.num_sinks(),
                shared: rt.shared.clone(),
                // The data plane leaves the cold structs here, with the
                // worst-case kills and the initial commands applied.
                hot: HotArena::from_cold(&per_host[h]),
                slots: per_host[h].iter().map(|r| r.state).collect(),
                ids: per_host[h]
                    .iter()
                    .map(|r| (r.pe_dense, r.replica))
                    .collect(),
                local_of: rt.local_of.clone(),
                inbound: std::mem::take(&mut per_host_in[h]),
                out_pe: std::mem::take(&mut per_host_out[h]),
                out_routes: std::mem::take(&mut per_host_routes[h]),
                num_routes: rt.routes.len(),
                out_sinks: std::mem::take(&mut per_host_sinks[h]),
                commands: cmd_rx,
                idle_nap_cap,
            });
        }
        rt
    }

    /// Publish the proxy's election results through the shared atomics the
    /// workers read at forwarding time (-1 = no primary elected).
    fn publish_primaries(&self) {
        for pe in 0..self.num_pes {
            let v = self.proxy.primary(pe).map_or(-1, |r| r as i64);
            self.shared.primary[pe].store(v, Ordering::Release);
        }
    }

    /// Apply a due command to the shadow state and forward it to the owning
    /// worker's command ring, so both views run the same transition.
    fn apply_shadow_command(&mut self, cmd: Command, now: f64) {
        self.commands_applied += 1;
        self.proxy
            .apply_command(&mut self.shadow, &cmd, now, self.cfg.sync_delay);
        let s = cmd.slot();
        let host = self.slot_host[s.pe_dense * self.k + s.replica];
        // The 1024-deep command ring never fills at control-loop rates; if
        // it ever did, the command is lost like any real network message.
        let _ = self.cmd_txs[host].push(cmd);
    }

    /// The next trace time at which anything the coordinator drives can
    /// happen: the earliest upcoming source arrival, monitor poll, due
    /// command, or failure-plan transition — the live-side analogue of the
    /// simulator's event-driven advance horizon. While any host is down
    /// (or a crash window is active) the horizon collapses to one tick so
    /// heartbeat detection and recovery keep fine granularity. Always at
    /// least one tick ahead of `now` and never past the trace end.
    fn next_wake(&self, now: f64, fine: bool) -> f64 {
        let floor = now + self.cfg.tick;
        if fine {
            return floor.min(self.duration);
        }
        let mut horizon = self.duration;
        let mut consider = |t: f64| {
            if t < horizon {
                horizon = t;
            }
        };
        // Sources: nap until half a ring's worth of arrivals are due, not
        // until the next one — one wakeup then emits the whole batch as a
        // slice. Bounded by one monitor bucket past the next arrival so
        // the measured-rate series the controller reads stays fresh.
        for (e, &slack) in self.emitters.iter().zip(&self.src_slack) {
            if let Some(t0) = e.next_arrival() {
                let horizon = e
                    .arrival_horizon(slack)
                    .unwrap_or(t0)
                    .min(t0 + self.cfg.monitor_bucket);
                consider(horizon);
            }
        }
        if let Some(t) = self.control.next_poll() {
            consider(t);
        }
        if let Some(t) = self.control.next_due() {
            consider(t);
        }
        if let Some(t) = self.plan.next_transition(now) {
            consider(t);
        }
        if let Some(a) = &self.adapt {
            consider(a.next_check());
        }
        horizon.max(floor).min(self.duration)
    }

    /// Execute the deployment on live threads until the trace ends; returns
    /// the metrics and the conservation ledger.
    pub fn run(mut self) -> LiveReport {
        let clock = ScaledClock::start(self.cfg.time_scale);
        let handles: Vec<std::thread::JoinHandle<WorkerReport>> = self
            .workers
            .drain(..)
            .map(|w| {
                let c = clock;
                std::thread::Builder::new()
                    .name(format!("laar-host-{}", w.host))
                    .spawn(move || w.run(c))
                    .expect("spawn host worker")
            })
            .collect();

        let mut metrics = SimMetrics {
            duration: self.duration,
            source_emitted: vec![0; self.emitters.len()],
            host_cpu_seconds: vec![0.0; self.num_hosts],
            pe_processed: vec![0; self.num_pes],
            input_rate: TimeSeries {
                samples: vec![0.0; self.seconds],
            },
            output_rate: TimeSeries {
                samples: vec![0.0; self.seconds],
            },
            host_utilization: vec![TimeSeries::default(); self.num_hosts],
            ..Default::default()
        };
        let mut pushed = 0u64;
        let mut transport_dropped = 0u64;
        let mut loop_passes = 0u64;

        let mut host_down = vec![false; self.num_hosts];

        loop {
            loop_passes += 1;
            // Measured time, not the planned wakeup target: an overslept
            // pass emits and budgets from where the clock actually is.
            let now = clock.now();
            if now >= self.duration {
                break;
            }

            // 1. Fault injection: flip the per-host crash flags per plan.
            if let FailurePlan::HostCrash { host, at, duration } = &self.plan {
                let down = now >= *at && now < *at + *duration;
                self.shared.host_dead[host.index()].store(down, Ordering::Release);
            }

            // 2. Failure detection from heartbeats: a host whose heartbeat
            // is older than detection_delay is declared dead; its replicas
            // leave the shadow state and primaries fail over. A fresh
            // heartbeat from a down host marks recovery (re-sync window).
            // Staleness already *is* the detection delay, so failures reach
            // the proxy with `detected_at = now` (no extra blackout).
            for (h, down) in host_down.iter_mut().enumerate() {
                let hb = f64::from_bits(self.shared.heartbeat[h].load(Ordering::Acquire));
                let stale = now - hb > self.cfg.detection_delay;
                if stale && !*down {
                    *down = true;
                    for slot in 0..self.shadow.len() {
                        if self.slot_host[slot] == h && !self.perma_dead[slot] {
                            self.proxy.fail_slot(
                                &mut self.shadow,
                                slot / self.k,
                                slot % self.k,
                                now,
                            );
                        }
                    }
                } else if !stale && *down {
                    *down = false;
                    for slot in 0..self.shadow.len() {
                        if self.slot_host[slot] == h && !self.perma_dead[slot] {
                            self.proxy.recover_slot(
                                &mut self.shadow,
                                slot / self.k,
                                slot % self.k,
                                now,
                                self.cfg.sync_delay,
                            );
                        }
                    }
                }
            }

            // 3. Deliver commands whose latency has elapsed.
            for cmd in self.control.take_due(now) {
                self.apply_shadow_command(cmd, now);
            }

            // 4. Primary election over the shadow state, published to the
            // workers through the shared atomics.
            self.proxy.elect(&self.shadow, now);
            self.publish_primaries();

            // 5. Source emission, paced by the wall clock. Before the
            // control poll: emission records arrivals into the monitor by
            // tuple timestamp, so polling after it reads a series that is
            // complete through `now` even when a pass emits a multi-second
            // window at once.
            self.emit(now, &mut metrics, &mut pushed, &mut transport_dropped);

            // 6. The LAAR control loop: measured rates → HAController.
            self.control.poll(now);

            // 7. Online adaptation: due drift checks feed the measured
            // rates to the adaptive controller; a swap decision re-indexes
            // the HAController and queues the two-phase activation diff
            // through the normal delayed-command path (step 3 above).
            if let Some(ad) = self.adapt.as_mut() {
                if ad.due(now) {
                    let rates = self.control.measured_rates(now);
                    let incumbent = self.control.controller().strategy().clone();
                    if let Some(out) = ad.observe(now, &rates, &incumbent) {
                        self.control.swap_strategy(
                            &out.space,
                            out.strategy,
                            now,
                            self.cfg.sync_delay,
                        );
                    }
                }
                self.swap_degraded = self.control.swap_in_flight(now)
                    && (0..self.num_pes).any(|pe| self.proxy.primary(pe).is_none());
                if self.swap_degraded {
                    metrics.swap_downtime_quanta += 1;
                }
            }

            // Event-horizon wait (the live analogue of the simulator's
            // horizon jump): jump to the next arrival/poll/command/failure.
            // While any host is down or crashed, the horizon collapses to
            // one tick so detection and recovery stay fine. The wait is
            // always `wait_until`: it parks for long horizons (idle hosts
            // cost ~0 CPU) yet lands within scheduler jitter of the target,
            // where a plain sleep would overshoot by the OS timer slack —
            // an entire trace-second or more of source burst at high
            // `time_scale`.
            let fine = host_down.iter().any(|&d| d)
                || self
                    .shared
                    .host_dead
                    .iter()
                    .any(|d| d.load(Ordering::Acquire));
            clock.wait_until(self.next_wake(now, fine));
        }

        // Flush emission exactly to the end of the trace, so the emitted
        // volume matches the simulator tuple-for-tuple, then stop.
        self.emit(
            self.duration,
            &mut metrics,
            &mut pushed,
            &mut transport_dropped,
        );
        self.shared.stop.store(true, Ordering::Release);
        // Idle workers may be parked mid-nap; wake them so the join never
        // waits out a nap that no longer matters.
        for h in &handles {
            h.thread().unpark();
        }

        let reports: Vec<WorkerReport> = handles
            .into_iter()
            .map(|h| h.join().expect("host worker panicked"))
            .collect();

        // Merge worker-side metrics; count residuals only now, when every
        // producer thread has exited.
        let mut arenas: Vec<HotArena> = Vec::with_capacity(self.num_hosts);
        let mut ring_residual = 0u64;
        metrics.sink_received = Vec::new();
        let mut sink_received: Vec<u64> = Vec::new();
        for report in reports {
            for (pe, &n) in report.pe_processed.iter().enumerate() {
                metrics.pe_processed[pe] += n;
            }
            if sink_received.len() < report.sink_received.len() {
                sink_received.resize(report.sink_received.len(), 0);
            }
            for (snk, &n) in report.sink_received.iter().enumerate() {
                sink_received[snk] += n;
            }
            metrics.output_rate.merge(&TimeSeries {
                samples: report.output_rate,
            });
            metrics.host_utilization[report.host] = TimeSeries {
                samples: report.utilization,
            };
            metrics.latency.merge(&report.latency);
            pushed += report.pushed;
            transport_dropped += report.transport_dropped;
            loop_passes += report.loop_passes;
            for (rid, (&p, &d)) in report
                .route_pushed
                .iter()
                .zip(&report.route_dropped)
                .enumerate()
            {
                self.routes[rid].pushed += p;
                self.routes[rid].dropped += d;
            }
            for (_, _, ring) in &report.inbound {
                ring_residual += ring.len() as u64;
            }
            assert_eq!(
                report.host,
                arenas.len(),
                "workers are joined in host order"
            );
            arenas.push(report.hot);
        }
        metrics.sink_received = sink_received;

        // Final per-replica accounting, the simulator's: fold every
        // replica, in dense slot order, into the shared conservation ledger.
        let mut conservation = Conservation {
            pushed,
            transport_dropped,
            ring_residual,
            ..Default::default()
        };
        for (slot, &host) in self.slot_host.iter().enumerate() {
            arenas[host].tally_replica(
                self.local_of[slot] as usize,
                host,
                self.capacities[host],
                &mut conservation,
                &mut metrics,
            );
        }
        metrics.queue_drops = conservation.queue_drops;
        metrics.idle_discards = conservation.idle_discards;
        metrics.config_switches = self.control.switches();
        metrics.strategy_swaps = self.control.swaps();
        metrics.commands_applied = self.commands_applied;
        metrics.failovers = self.proxy.failovers();
        metrics.conservation = conservation.clone();

        // The per-edge breakdown must account for every transport event
        // the global ledger saw — an exact identity, not a tolerance.
        assert_eq!(
            self.routes.iter().map(|r| r.pushed).sum::<u64>(),
            conservation.pushed,
            "per-edge pushes must sum to the conservation ledger"
        );
        assert_eq!(
            self.routes.iter().map(|r| r.dropped).sum::<u64>(),
            conservation.transport_dropped,
            "per-edge drops must sum to the conservation ledger"
        );

        LiveReport {
            conservation,
            metrics,
            transport_edges: self.routes,
            loop_passes,
            adapt: self.adapt.take().map(|a| a.into_report()),
        }
    }

    /// Emit every source up to trace time `now`: record rates for the
    /// monitor and push birth timestamps to all replicas of all downstream
    /// ports. Rate samples bucket by each tuple's *own* timestamp — an
    /// event-horizon pass can cover many seconds of trace time, and
    /// bucketing the whole batch at the pass time would smear the series.
    fn emit(
        &mut self,
        now: f64,
        metrics: &mut SimMetrics,
        pushed: &mut u64,
        transport_dropped: &mut u64,
    ) {
        for si in 0..self.emitters.len() {
            let times = self.emitters[si].emit_until(now.min(self.duration));
            if times.is_empty() {
                continue;
            }
            for &tt in &times {
                self.control.record(si, tt);
                let sec = (tt.floor() as usize).min(self.seconds - 1);
                metrics.input_rate.samples[sec] += 1.0;
            }
            metrics.source_emitted[si] += times.len() as u64;
            if self.swap_degraded {
                metrics.swap_downtime_tuples += times.len() as u64;
            }
            for (oi, ring) in self.src_producers[si].iter_mut().enumerate() {
                let route = self.src_routes[si][oi];
                let acc = ring.push_slice(&times) as u64;
                let rej = times.len() as u64 - acc;
                *pushed += acc;
                *transport_dropped += rej;
                self.routes[route].pushed += acc;
                self.routes[route].dropped += rej;
            }
        }
    }
}

//! The discrete-event cluster simulation.
//!
//! This is the substrate standing in for the paper's IBM InfoSphere
//! Streams® deployment: hosts with capacity `K` cycles/s shared across
//! resident replicas (generalized processor sharing, evaluated in fixed
//! quanta), trace-driven sources, and measuring sinks. Every protocol
//! decision — replica state transitions, command handling, primary
//! election, the monitor/HAController loop, failure application — is
//! delegated to [`laar_exec`]; this driver owns scheduling, virtual time,
//! and synchronous tuple delivery.
//!
//! There is one quantum loop ([`Simulation::run`]). Its data plane runs on
//! the struct-of-arrays [`HotArena`]; the cold [`Replica`] arena keeps the
//! protocol state and meets the hot arena only at the control-plane sync
//! boundary. Quiescent stretches are skipped by jumping to the next-event
//! horizon. Everything is deterministic given (application, placement,
//! strategy, trace, failure plan, configuration) — **including the thread
//! count**: [`SimConfig::threads`] only selects how the two data-plane
//! phases of a quantum execute (the private `Phases`: direct or staged),
//! and either way produces bit-identical [`SimMetrics`] (DESIGN.md §6c).

use crate::arena::{HotArena, HotChunk, WfScratch};
use crate::metrics::{SimMetrics, TimeSeries};
use crate::pool::{Task, WorkerPool};
use crate::profiler::PhaseProfile;
use crate::trace::{ArrivalProcess, InputTrace, SourceEmitter};
use laar_adapt::{AdaptConfig, AdaptReport, AdaptiveController};
use laar_core::controller::{Command, HaController};
use laar_core::monitor::RateMonitor;
use laar_exec::failure::FailurePlan;
use laar_exec::replica::{InPort, Replica};
use laar_exec::{Conservation, ControlConfig, ControlLoop, ProxyState, SlotMap};
use laar_model::{ActivationStrategy, Application, ComponentKind, Placement, RateTable};

/// Simulator tunables. Defaults mirror the paper's setup where it is
/// specified (2-second queues, 16 s host outages are set by the failure
/// plan) and use conservative middleware timings elsewhere.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Scheduling quantum in seconds (CPU sharing granularity).
    pub quantum: f64,
    /// Period of the Rate Monitor → HAController control loop (seconds).
    pub monitor_interval: f64,
    /// Latency from HAController decision to command taking effect.
    pub command_latency: f64,
    /// Time a newly (re)activated replica spends re-synchronizing state.
    pub sync_delay: f64,
    /// Heartbeat-based failure-detection delay before a secondary is
    /// promoted to primary.
    pub detection_delay: f64,
    /// Queue capacity per input port, expressed in seconds of peak arrival
    /// rate (the paper: "long enough to hold 2 seconds of tuples in the
    /// High input configuration").
    pub queue_capacity_secs: f64,
    /// Rate Monitor bucket width (seconds).
    pub monitor_bucket: f64,
    /// Rate Monitor bucket count (window = width × count).
    pub monitor_buckets: usize,
    /// Run the HAController loop (disable to freeze the initial activation
    /// state, e.g. for diagnostics).
    pub controller_enabled: bool,
    /// Arrival process of the sources (deterministic spacing per the
    /// paper's synthetic operators, or seeded Poisson).
    pub arrivals: ArrivalProcess,
    /// OS threads executing the per-host phases of each quantum (CPU
    /// scheduling and destination-side forwarding). Any value produces
    /// bit-identical [`SimMetrics`] — hosts are independent within a
    /// quantum, per-host work keeps its order inside each worker's slice,
    /// and every cross-host accumulation is merged by the coordinator in
    /// fixed PE order. Pays off on saturated fixtures with many hosts; on
    /// small or quiescent fixtures the per-quantum dispatch overhead
    /// dominates, so `1` is the default.
    pub threads: usize,
    /// Online adaptation (`laar-adapt`): drift detection over the rate
    /// monitor, warm-started re-planning, and live strategy hot-swaps.
    /// `None` (the default) freezes the deployed strategy, as the paper
    /// does.
    pub adapt: Option<AdaptConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            quantum: 0.01,
            monitor_interval: 1.0,
            command_latency: 0.05,
            sync_delay: 0.25,
            detection_delay: 0.5,
            queue_capacity_secs: 2.0,
            monitor_bucket: 0.25,
            monitor_buckets: 8,
            controller_enabled: true,
            arrivals: ArrivalProcess::Deterministic,
            threads: 1,
            adapt: None,
        }
    }
}

/// The simulator's host-major replica arena presented to the proxy
/// protocol, which addresses slots densely as `pe * k + r`: the
/// permutation table translates, so the one protocol state machine drives
/// the arena replicas directly — same transitions, same queue side
/// effects — regardless of physical layout.
struct ArenaSlots<'a> {
    arena: &'a mut [Replica],
    slot_of: &'a [usize],
}

impl SlotMap for ArenaSlots<'_> {
    type Slot = Replica;
    #[inline]
    fn slot(&self, i: usize) -> &Replica {
        &self.arena[self.slot_of[i]]
    }
    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut Replica {
        &mut self.arena[self.slot_of[i]]
    }
}

/// Wall-clock phase attribution with a single well-predicted branch when
/// no profile is attached, so the un-profiled hot loop pays nothing
/// measurable.
struct PhaseClock<'a> {
    profile: Option<&'a mut PhaseProfile>,
    last: std::time::Instant,
}

impl<'a> PhaseClock<'a> {
    fn new(profile: Option<&'a mut PhaseProfile>) -> Self {
        Self {
            profile,
            last: std::time::Instant::now(),
        }
    }

    /// Attribute the time since the last lap to the phase `field` picks.
    #[inline]
    fn lap(&mut self, field: impl FnOnce(&mut PhaseProfile) -> &mut f64) {
        if let Some(p) = self.profile.as_deref_mut() {
            let now = std::time::Instant::now();
            *field(p) += now.duration_since(self.last).as_secs_f64();
            self.last = now;
        }
    }
}

/// Timing of the quantum being executed: it spans `[t, te)`, is `dt` long
/// (the last one may be cut short by the end of the trace), and its
/// per-second samples land in bucket `sec`.
#[derive(Clone, Copy)]
struct Tick {
    t: f64,
    te: f64,
    dt: f64,
    sec: usize,
}

/// One source-offer or forwarding route entry projected onto a host:
/// `(origin, arena index of the destination replica, port)`. Origin is a
/// source index for emission routes and an upstream dense PE index for
/// forwarding routes. Entries are stored per host in the global offer
/// order, so replaying a host's list reproduces, per destination replica,
/// the exact `offer()` sequence of the single-chunk path.
type RouteEntry = (u32, u32, u32);

/// How the two data-plane phases of a quantum — source offers plus GPS
/// water-filling, then forwarding — execute. Chosen once per run from the
/// thread count and the host count ([`Simulation::phases`]); every other
/// step of the quantum loop is shared, and both variants produce
/// bit-identical metrics: offers and processing touch only the destination
/// replica, per-destination offer order is preserved, and every
/// cross-host accumulation happens on the coordinator in PE order.
///
/// Both stay because each wins somewhere (DESIGN.md §6c): staging pays
/// 1.4–1.6× at 32+ hosts on two cores, and costs 17–76 % on the 4-host
/// figure sweeps even with the pool bypassed.
enum Phases {
    /// One chunk: offers and forwarding go straight to the whole arena in
    /// the global offer order — no route tables, no staging, no tasks.
    Direct(WfScratch),
    /// Several host-range chunks executed on a [`WorkerPool`].
    Staged(Staged),
}

/// Per-run state of the staged execution: the hot arena is split into
/// disjoint chunk views at host-range boundaries, so each task owns its
/// slice of every hot array with no aliasing and no locks, and replays the
/// offers that land on its hosts from per-host route tables.
struct Staged {
    pool: WorkerPool,
    /// Host range `lo..hi` of each chunk.
    chunks: Vec<(usize, usize)>,
    /// Arena-index range of each chunk, for splitting the hot arrays.
    bounds: Vec<(usize, usize)>,
    /// Per host: source-offer routes (origin = source index).
    src_routes: Vec<Vec<RouteEntry>>,
    /// Per host: forwarding routes (origin = upstream dense PE index).
    fwd_routes: Vec<Vec<RouteEntry>>,
    /// Per chunk: water-filling scratch.
    scratches: Vec<WfScratch>,
    /// Per PE: the primary's outputs of this quantum, staged by the
    /// coordinator between the two phases.
    births: Vec<Vec<f64>>,
}

/// A fully configured simulation run.
///
/// Replicas live in a **host-major arena**: host `h` owns the contiguous
/// slice `replicas[host_offsets[h]..host_offsets[h + 1]]`, in ascending
/// `(pe, r)` order within the host. The layout gives each parallel worker
/// a disjoint `&mut` slice (no aliasing, no locks) and keeps the per-host
/// scheduling sweep cache-contiguous; `slot_of` maps the protocol's dense
/// `pe * k + r` slot index to its arena position for everything that is
/// logically PE-major (routing, election, metrics export).
pub struct Simulation {
    cfg: SimConfig,
    placement_capacity: Vec<f64>,
    k: usize,
    num_pes: usize,
    duration: f64,

    /// Cold protocol state. The data plane runs on a [`HotArena`] built
    /// from it at the start of the run; these structs never see an offer.
    replicas: Vec<Replica>,
    /// `host_offsets[h]..host_offsets[h + 1]` bounds host `h`'s arena slice.
    host_offsets: Vec<usize>,
    /// Dense slot `pe * k + r` → arena index.
    slot_of: Vec<usize>,
    /// Per source: downstream (pe_dense, port index) pairs.
    source_out: Vec<Vec<(usize, usize)>>,
    /// Per PE: downstream (pe_dense, port index) pairs.
    pe_out: Vec<Vec<(usize, usize)>>,
    /// Per PE: downstream sink dense indices.
    pe_sink_out: Vec<Vec<usize>>,

    emitters: Vec<SourceEmitter>,
    control: ControlLoop,
    proxy: ProxyState,
    adapt: Option<AdaptiveController>,
    /// `true` while a swap is in flight *and* the last control-plane pass
    /// left some PE without a primary — tuples emitted in such quanta are
    /// counted as swap downtime.
    swap_degraded: bool,
    plan: FailurePlan,
    /// The failure plan is consulted at the first quantum with
    /// `t >= failures_due`: the start of the run, then each
    /// [`FailurePlan::next_transition`].
    failures_due: f64,
    /// Without a slot transition, primaries are re-elected at the first
    /// quantum with `t >= elect_due` ([`Self::next_protocol_expiry`] as of
    /// the last election).
    elect_due: f64,
    /// Tuples handed to replicas (offers are synchronous: every offer is a
    /// successful push in the conservation ledger's sense).
    pushed: u64,

    metrics: SimMetrics,
}

impl Simulation {
    /// Build a simulation of `app` deployed per `placement`, controlled by
    /// `strategy`, fed by `trace`, under `plan`.
    pub fn new(
        app: &Application,
        placement: &Placement,
        strategy: ActivationStrategy,
        trace: &InputTrace,
        plan: FailurePlan,
        cfg: SimConfig,
    ) -> Self {
        let g = app.graph();
        let k = placement.k();
        let np = g.num_pes();
        let rates = RateTable::compute(app);
        let max_cfg = app.configs().max_config();

        // Build replicas (PE-major) with port capacities sized from peak
        // arrival rates, then permute into the host-major arena below.
        let mut pe_major = Vec::with_capacity(np * k);
        for (dense, &pe) in g.pes().iter().enumerate() {
            let ports: Vec<InPort> = g
                .in_edges(pe)
                .map(|e| {
                    let peak = rates.delta(e.from, max_cfg);
                    let cap = (cfg.queue_capacity_secs * peak).ceil() as usize;
                    InPort::new(e.cpu_cost, e.selectivity, cap.max(8))
                })
                .collect();
            for r in 0..k {
                pe_major.push(Replica::new(
                    dense,
                    r,
                    placement.host_of(dense, r).index(),
                    ports.clone(),
                ));
            }
        }

        // Host-major arena: counting sort by host. The sort is stable, so
        // within a host the arena keeps ascending (pe, r) order — exactly
        // the order the former index-list scheduling sweep visited.
        let num_hosts = placement.num_hosts();
        let mut host_offsets = vec![0usize; num_hosts + 1];
        for r in &pe_major {
            host_offsets[r.host + 1] += 1;
        }
        for h in 0..num_hosts {
            host_offsets[h + 1] += host_offsets[h];
        }
        let mut slot_of = vec![0usize; pe_major.len()];
        let mut cursor = host_offsets.clone();
        for (i, r) in pe_major.iter().enumerate() {
            slot_of[i] = cursor[r.host];
            cursor[r.host] += 1;
        }
        let mut arena_of = vec![0usize; pe_major.len()];
        for (dense_slot, &arena_idx) in slot_of.iter().enumerate() {
            arena_of[arena_idx] = dense_slot;
        }
        let mut slots: Vec<Option<Replica>> = pe_major.into_iter().map(Some).collect();
        let replicas: Vec<Replica> = arena_of
            .iter()
            .map(|&dense| slots[dense].take().expect("each slot moved once"))
            .collect();

        // Routing tables. Port index = position of the edge in the target's
        // in_edges order.
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

        let control = ControlLoop::new(
            RateMonitor::new(g.num_sources(), cfg.monitor_bucket, cfg.monitor_buckets),
            HaController::new(app.configs(), strategy),
            ControlConfig {
                monitor_interval: cfg.monitor_interval,
                command_latency: cfg.command_latency,
                enabled: cfg.controller_enabled,
                // Virtual time never oversleeps: advance by exact intervals.
                catch_up: false,
            },
        );

        let seconds = trace.duration.ceil() as usize;
        let metrics = SimMetrics {
            duration: trace.duration,
            source_emitted: vec![0; g.num_sources()],
            host_cpu_seconds: vec![0.0; placement.num_hosts()],
            pe_processed: vec![0; np],
            sink_received: vec![0; g.num_sinks()],
            input_rate: TimeSeries {
                samples: vec![0.0; seconds],
            },
            output_rate: TimeSeries {
                samples: vec![0.0; seconds],
            },
            host_utilization: vec![
                TimeSeries {
                    samples: vec![0.0; seconds],
                };
                placement.num_hosts()
            ],
            ..Default::default()
        };

        let adapt = cfg
            .adapt
            .clone()
            .map(|a| AdaptiveController::new(app, placement, a));

        let mut sim = Self {
            cfg,
            placement_capacity: placement.hosts().iter().map(|h| h.capacity).collect(),
            k,
            num_pes: np,
            duration: trace.duration,
            replicas,
            host_offsets,
            slot_of,
            source_out,
            pe_out,
            pe_sink_out,
            emitters,
            control,
            proxy: ProxyState::new(np, k),
            adapt,
            swap_degraded: false,
            plan,
            failures_due: f64::NEG_INFINITY,
            elect_due: f64::NEG_INFINITY,
            pushed: 0,
            metrics,
        };

        // Bring the deployment (everything active as deployed) into the
        // controller's initial (componentwise-maximal) configuration, then
        // elect initial primaries.
        for cmd in sim.control.initial_commands() {
            sim.metrics.commands_applied += 1;
            let mut view = ArenaSlots {
                arena: &mut sim.replicas,
                slot_of: &sim.slot_of,
            };
            sim.proxy
                .apply_command(&mut view, &cmd, 0.0, sim.cfg.sync_delay);
        }
        sim.proxy.elect(
            &ArenaSlots {
                arena: &mut sim.replicas,
                slot_of: &sim.slot_of,
            },
            0.0,
        );
        sim
    }

    /// Run the simulation to the end of the trace and return the metrics.
    pub fn run(self) -> SimMetrics {
        self.run_loop(true, None).0
    }

    /// Run the simulation and additionally return the adaptation report
    /// (`None` unless [`SimConfig::adapt`] was set). The report carries
    /// wall-clock re-planning timings, which is why it lives *outside*
    /// [`SimMetrics`] — the metrics stay bit-reproducible.
    pub fn run_adaptive(self) -> (SimMetrics, Option<AdaptReport>) {
        self.run_loop(true, None)
    }

    /// Run the simulation collecting per-phase wall-clock attribution
    /// alongside the metrics. The metrics are identical to [`Self::run`];
    /// the profile is measurement, not simulation state.
    ///
    /// The five phase timings are asserted to sum to within tolerance of
    /// the total wall time (10 % or 50 ms, whichever is larger — set-up
    /// before the first lap is the only unattributed stretch), so a
    /// future phase addition cannot silently leak unattributed hot-path
    /// time out of the profile.
    pub fn run_profiled(self) -> (SimMetrics, PhaseProfile) {
        let start = std::time::Instant::now();
        let mut profile = PhaseProfile::default();
        let (metrics, _) = self.run_loop(true, Some(&mut profile));
        let wall = start.elapsed().as_secs_f64();
        let attributed = profile.phase_sum();
        let slack = (0.10 * wall).max(0.05);
        assert!(
            wall - attributed <= slack,
            "PhaseProfile leaks unattributed hot-path time: wall {wall:.3}s \
             vs attributed {attributed:.3}s (slack {slack:.3}s)"
        );
        (metrics, profile)
    }

    /// [`Self::run`] without the horizon jump: every quantum of the trace
    /// is executed. Same loop, same metrics — the equivalence suite uses it
    /// as the independent run that horizon skipping and the staged phases
    /// are held to.
    #[doc(hidden)]
    pub fn run_every_quantum(self) -> SimMetrics {
        self.run_loop(false, None).0
    }

    /// The quantum loop. Per executed quantum:
    ///
    /// 1. control plane: failures and election when due, due commands,
    ///    monitor poll, adaptation check — cold protocol state, mirrored
    ///    into the hot arena ([`Self::control_plane`]);
    /// 2. emission bookkeeping: per-source arrival buffers, rate samples,
    ///    the `pushed` ledger term, in source order;
    /// 3. data-plane phase 1: source offers, then GPS water-filling per
    ///    host ([`Self::schedule`]);
    /// 4. data-plane phase 2: primaries' outputs offered downstream and
    ///    folded into sink/latency/ledger accounting in ascending PE order;
    ///    secondaries' outputs dropped ([`Self::forward`]);
    /// 5. primary work attribution, then the next quantum to execute: the
    ///    following one, or — with `jump` — the next-event horizon
    ///    ([`Self::next_step`]).
    fn run_loop(
        mut self,
        jump: bool,
        mut profile: Option<&mut PhaseProfile>,
    ) -> (SimMetrics, Option<AdaptReport>) {
        let mut clock = PhaseClock::new(profile.as_deref_mut());
        let dt = self.cfg.quantum;
        let steps = (self.duration / dt).round() as u64;
        let mut hot = HotArena::from_cold(&self.replicas);
        let mut phases = self.phases();
        let mut arrivals: Vec<Vec<f64>> = vec![Vec::new(); self.emitters.len()];
        // Incremental per-second metric bucketing: the bucket index is only
        // recomputed when a quantum starts past the current second's end.
        // (A zero-length trace has no buckets — and no quanta to need one.)
        let max_sec = self.metrics.input_rate.samples.len().saturating_sub(1);
        let mut sec = 0usize;
        let mut sec_end = 1.0f64;
        let mut quanta_executed = 0u64;
        clock.lap(|p| &mut p.accounting_secs);

        let mut step = 0u64;
        while step < steps {
            quanta_executed += 1;
            let t = step as f64 * dt;
            if t >= sec_end {
                let f = t.floor();
                sec = (f as usize).min(max_sec);
                sec_end = f + 1.0;
            }
            let q = Tick {
                t,
                te: (t + dt).min(self.duration),
                dt,
                sec,
            };

            self.control_plane(t, &mut hot);
            clock.lap(|p| &mut p.control_secs);

            // Arrival timestamps double as birth stamps.
            for (si, buf) in arrivals.iter_mut().enumerate() {
                self.emitters[si].emit_into(q.te, buf);
                let n = buf.len();
                if n == 0 {
                    continue;
                }
                for &tt in buf.iter() {
                    self.control.record(si, tt);
                }
                self.metrics.source_emitted[si] += n as u64;
                self.metrics.input_rate.samples[sec] += n as f64;
                if self.swap_degraded {
                    self.metrics.swap_downtime_tuples += n as u64;
                }
                self.pushed += (n * self.k * self.source_out[si].len()) as u64;
            }
            clock.lap(|p| &mut p.emission_secs);

            self.schedule(&mut phases, &mut hot, &arrivals, q);
            clock.lap(|p| &mut p.scheduling_secs);

            self.forward(&mut phases, &mut hot, q);
            clock.lap(|p| &mut p.forwarding_secs);

            self.attribute_and_snapshot(&mut hot);
            step = if jump {
                self.next_step(step, dt, &hot)
            } else {
                step + 1
            };
            clock.lap(|p| &mut p.accounting_secs);
        }

        let arena_bytes = hot.bytes();
        let report = self.adapt.take().map(|a| a.into_report());
        let num_pes = self.num_pes;
        let m = self.finalize(&hot);
        clock.lap(|p| &mut p.accounting_secs);
        if let Some(p) = profile {
            p.quanta_executed = quanta_executed;
            p.arena_bytes = arena_bytes;
            p.bytes_per_pe = arena_bytes as f64 / num_pes.max(1) as f64;
        }
        (m, report)
    }

    /// Pick how this run executes its data-plane phases: staged over a
    /// worker pool when there are threads to use and at least two hosts to
    /// split, direct otherwise.
    fn phases(&self) -> Phases {
        let num_hosts = self.host_offsets.len() - 1;
        if self.cfg.threads <= 1 || num_hosts < 2 {
            return Phases::Direct(WfScratch::default());
        }
        let chunks = chunk_hosts(&self.host_offsets, self.cfg.threads.min(num_hosts));
        assert!(
            self.replicas.len() <= u32::MAX as usize,
            "arena exceeds u32 route indexing"
        );
        // The global offer order of `outs` projected onto each host.
        let routes = |outs: &[Vec<(usize, usize)>]| {
            let mut per_host: Vec<Vec<RouteEntry>> = vec![Vec::new(); num_hosts];
            for (origin, outs) in outs.iter().enumerate() {
                for &(pe, port) in outs {
                    for r in 0..self.k {
                        let idx = self.slot_of[pe * self.k + r];
                        per_host[self.replicas[idx].host].push((
                            origin as u32,
                            idx as u32,
                            port as u32,
                        ));
                    }
                }
            }
            per_host
        };
        Phases::Staged(Staged {
            pool: WorkerPool::new(chunks.len() - 1),
            bounds: chunks
                .iter()
                .map(|&(lo, hi)| (self.host_offsets[lo], self.host_offsets[hi]))
                .collect(),
            src_routes: routes(&self.source_out),
            fwd_routes: routes(&self.pe_out),
            scratches: vec![WfScratch::default(); chunks.len()],
            births: vec![Vec::new(); self.num_pes],
            chunks,
        })
    }

    /// Data-plane phase 1: offer this quantum's arrivals to every replica
    /// of the sources' successors, then share each host's CPU budget among
    /// its busy replicas (GPS water-filling) and sample its utilization.
    fn schedule(
        &mut self,
        phases: &mut Phases,
        hot: &mut HotArena,
        arrivals: &[Vec<f64>],
        q: Tick,
    ) {
        let host_offsets = &self.host_offsets[..];
        let capacity = &self.placement_capacity[..];
        let util = &mut self.metrics.host_utilization[..];
        match phases {
            Phases::Direct(scratch) => {
                let mut view = hot.full();
                for (buf, outs) in arrivals.iter().zip(&self.source_out) {
                    if buf.is_empty() {
                        continue;
                    }
                    for &(pe, port) in outs {
                        for r in 0..self.k {
                            view.offer(self.slot_of[pe * self.k + r], port, buf, q.t);
                        }
                    }
                }
                fill_hosts(&mut view, util, scratch, host_offsets, capacity, q);
            }
            Phases::Staged(s) => {
                let src_routes = &s.src_routes;
                let mut util_rest = util;
                let mut tasks: Vec<Task<'_>> = Vec::with_capacity(s.chunks.len());
                for ((&(lo, hi), mut view), scratch) in s
                    .chunks
                    .iter()
                    .zip(hot.chunks(&s.bounds))
                    .zip(s.scratches.iter_mut())
                {
                    let (util_chunk, rest) = util_rest.split_at_mut(hi - lo);
                    util_rest = rest;
                    tasks.push(Box::new(move || {
                        replay(
                            &mut view,
                            &src_routes[lo..hi],
                            arrivals,
                            host_offsets[lo],
                            q.t,
                        );
                        let offsets = &host_offsets[lo..=hi];
                        fill_hosts(
                            &mut view,
                            util_chunk,
                            scratch,
                            offsets,
                            &capacity[lo..hi],
                            q,
                        );
                    }));
                }
                s.pool.scope_run(tasks);
            }
        }
    }

    /// Data-plane phase 2, in ascending PE order: the primary's outputs of
    /// this quantum are offered to every replica of each successor and
    /// accounted; secondaries' outputs are suppressed (drained and
    /// dropped). Offers only enqueue, so nothing forwarded here is
    /// forwarded again before the next quantum.
    fn forward(&mut self, phases: &mut Phases, hot: &mut HotArena, q: Tick) {
        match phases {
            Phases::Direct(_) => {
                let mut view = hot.full();
                for pe in 0..self.num_pes {
                    let primary = self.proxy.primary(pe);
                    for r in 0..self.k {
                        let idx = self.slot_of[pe * self.k + r];
                        if view.out_births[idx].is_empty() {
                            continue;
                        }
                        let mut births = std::mem::take(&mut view.out_births[idx]);
                        if primary == Some(r) {
                            for &(succ, port) in &self.pe_out[pe] {
                                for rr in 0..self.k {
                                    view.offer(
                                        self.slot_of[succ * self.k + rr],
                                        port,
                                        &births,
                                        q.te,
                                    );
                                }
                            }
                            self.account_forwarded(pe, &births, q);
                        }
                        // Return the (cleared) buffer to avoid reallocation.
                        births.clear();
                        view.out_births[idx] = births;
                    }
                }
            }
            Phases::Staged(s) => {
                // Coordinator: move each primary's outputs into the PE's
                // staging buffer and account them, so the parallel replay
                // below reads immutable buffers.
                let mut forwarded = false;
                for (pe, stage) in s.births.iter_mut().enumerate() {
                    let primary = self.proxy.primary(pe);
                    stage.clear();
                    for r in 0..self.k {
                        let out = &mut hot.out_births[self.slot_of[pe * self.k + r]];
                        if out.is_empty() {
                            continue;
                        }
                        if primary == Some(r) {
                            std::mem::swap(out, stage);
                        } else {
                            out.clear();
                        }
                    }
                    if !stage.is_empty() {
                        forwarded |= !self.pe_out[pe].is_empty();
                        self.account_forwarded(pe, stage, q);
                    }
                }
                if !forwarded {
                    return;
                }
                let (fwd_routes, births) = (&s.fwd_routes, &s.births);
                let host_offsets = &self.host_offsets[..];
                let tasks: Vec<Task<'_>> = s
                    .chunks
                    .iter()
                    .zip(hot.chunks(&s.bounds))
                    .map(|(&(lo, hi), mut view)| {
                        Box::new(move || {
                            replay(
                                &mut view,
                                &fwd_routes[lo..hi],
                                births,
                                host_offsets[lo],
                                q.te,
                            );
                        }) as Task<'_>
                    })
                    .collect();
                s.pool.scope_run(tasks);
            }
        }
    }

    /// Ledger, sink, and latency accounting for the outputs `births` that
    /// PE `pe`'s primary forwards in this quantum.
    fn account_forwarded(&mut self, pe: usize, births: &[f64], q: Tick) {
        self.pushed += (births.len() * self.k * self.pe_out[pe].len()) as u64;
        for &snk in &self.pe_sink_out[pe] {
            self.metrics.sink_received[snk] += births.len() as u64;
            self.metrics.output_rate.samples[q.sec] += births.len() as f64;
            for &b in births {
                self.metrics.latency.record(q.te - b);
            }
        }
    }

    /// Per-quantum control plane: failure-plan transitions, due
    /// HAController commands, primary election, the monitor poll, and
    /// (when enabled) the adaptation check — all routed through the shared
    /// proxy protocol against the cold arena. Every slot transition is
    /// mirrored into the hot arena here — the only place hot and cold
    /// state meet between construction and finalize.
    ///
    /// The two walks over every slot run only when due, because in between
    /// they are fixed points: the plan's dead-set is constant up to its
    /// next transition and nothing else changes a slot's liveness, and an
    /// election changes outcome only after a slot transition or once a
    /// sync window or detection blackout has run out.
    fn control_plane(&mut self, t: f64, hot: &mut HotArena) {
        let mut transitioned = false;
        if t >= self.failures_due {
            transitioned = self.apply_failures(t, hot);
            self.failures_due = self.plan.next_transition(t).unwrap_or(f64::INFINITY);
        }
        for cmd in self.control.take_due(t) {
            transitioned = true;
            self.metrics.commands_applied += 1;
            let mut view = ArenaSlots {
                arena: &mut self.replicas,
                slot_of: &self.slot_of,
            };
            self.proxy
                .apply_command(&mut view, &cmd, t, self.cfg.sync_delay);
            let s = cmd.slot();
            let idx = self.slot_of[s.pe_dense * self.k + s.replica];
            let state = self.replicas[idx].state;
            match cmd {
                Command::Activate(_) => hot.on_activate(idx, &state),
                Command::Deactivate(_) => hot.on_deactivate(idx, &state),
            }
        }
        if transitioned || t >= self.elect_due {
            self.proxy.elect(
                &ArenaSlots {
                    arena: &mut self.replicas,
                    slot_of: &self.slot_of,
                },
                t,
            );
            self.elect_due = self.next_protocol_expiry(t, hot).unwrap_or(f64::INFINITY);
        }
        self.control.poll(t);
        if let Some(ad) = self.adapt.as_mut() {
            if ad.due(t) {
                let rates = self.control.measured_rates(t);
                let incumbent = self.control.controller().strategy().clone();
                if let Some(out) = ad.observe(t, &rates, &incumbent) {
                    self.control
                        .swap_strategy(&out.space, out.strategy, t, self.cfg.sync_delay);
                }
            }
            // Downtime audit: a correctly phased swap keeps the union of
            // the old and new activations live, so a primary-less PE while
            // a swap is in flight is measured (and should stay at zero).
            self.swap_degraded = self.control.swap_in_flight(t)
                && (0..self.num_pes).any(|pe| self.proxy.primary(pe).is_none());
            if self.swap_degraded {
                self.metrics.swap_downtime_quanta += 1;
            }
        }
    }

    /// Consult the failure plan and route state changes through the shared
    /// proxy protocol, mirroring each into the hot arena right after the
    /// cold transition. Detection is delayed: the proxy blocks re-election
    /// of a failed primary's PE until `t + detection_delay`. Slots are
    /// visited in dense PE-major order. Returns whether any slot changed.
    fn apply_failures(&mut self, t: f64, hot: &mut HotArena) -> bool {
        let mut transitioned = false;
        for s in 0..self.slot_of.len() {
            let i = self.slot_of[s];
            let (pe, r) = (self.replicas[i].pe_dense, self.replicas[i].replica);
            let dead = self.plan.is_dead_on(self.replicas[i].host, pe, r, t);
            // Act only when the plan and the slot's liveness disagree.
            if dead == self.replicas[i].state.alive {
                transitioned = true;
                let mut view = ArenaSlots {
                    arena: &mut self.replicas,
                    slot_of: &self.slot_of,
                };
                if dead {
                    self.proxy
                        .fail_slot(&mut view, pe, r, t + self.cfg.detection_delay);
                    hot.on_kill(i, &self.replicas[i].state);
                } else {
                    self.proxy
                        .recover_slot(&mut view, pe, r, t, self.cfg.sync_delay);
                    hot.on_recover(i, &self.replicas[i].state);
                }
            }
        }
        transitioned
    }

    /// The earliest instant strictly after `t` at which an election changes
    /// outcome by itself: the end of a pending sync window — read off
    /// `eligible_from`, where a finite sentinel beyond `t` is exactly that
    /// (dead or idle replicas sit at +inf, running ones at -inf) — or of a
    /// detection blackout.
    fn next_protocol_expiry(&self, t: f64, hot: &HotArena) -> Option<f64> {
        let sync_ends = hot.eligible_from.iter().copied();
        let pending = sync_ends.filter(|&ef| ef > t && ef.is_finite());
        pending.chain(self.proxy.next_unblock(t)).reduce(f64::min)
    }

    /// Attribute logical work to the current primaries, then re-arm the
    /// per-quantum processed snapshots.
    fn attribute_and_snapshot(&mut self, hot: &mut HotArena) {
        for pe in 0..self.num_pes {
            if let Some(r) = self.proxy.primary(pe) {
                let idx = self.slot_of[pe * self.k + r];
                self.metrics.pe_processed[pe] += hot.processed[idx] - hot.processed_snapshot[idx];
            }
        }
        hot.processed_snapshot.copy_from_slice(&hot.processed);
    }

    /// The next quantum index to execute after finishing `step`. While any
    /// replica holds queued work, the very next quantum runs (GPS
    /// water-filling continues at full resolution). Otherwise virtual time
    /// jumps toward the next-event horizon: the earliest of the next source
    /// arrival, due command, monitor poll, adaptation check, failure-plan
    /// transition and protocol expiry ([`Self::next_protocol_expiry`]). The
    /// landing quantum is deliberately one early — executing an extra
    /// quiescent quantum is a provable no-op, while skipping a live one
    /// would change the run — so grid rounding can never overshoot the
    /// quantum in which an event first takes effect.
    fn next_step(&self, step: u64, dt: f64, hot: &HotArena) -> u64 {
        if hot.has_any_work() {
            return step + 1;
        }
        let t = step as f64 * dt;
        let horizon = self
            .emitters
            .iter()
            .map(SourceEmitter::next_arrival)
            .chain([
                self.control.next_due(),
                self.control.next_poll(),
                self.adapt.as_ref().map(AdaptiveController::next_check),
                self.plan.next_transition(t),
                self.next_protocol_expiry(t, hot),
            ])
            .flatten()
            .fold(f64::INFINITY, f64::min);
        if horizon.is_infinite() {
            // Nothing can ever happen again: fast-forward past the end.
            return u64::MAX;
        }
        let target = (horizon / dt).floor() as u64;
        target.saturating_sub(1).max(step + 1)
    }

    /// Final accounting: fold every replica into the conservation ledger
    /// (synchronous offers mean the transport terms stay zero). The
    /// data-plane ledger lives entirely in the hot arena; host placement
    /// comes from the cold structs. Replicas are visited in dense PE-major
    /// order so the exported per-replica vectors and the per-host f64
    /// accumulation keep the historical order.
    fn finalize(mut self, hot: &HotArena) -> SimMetrics {
        let mut conservation = Conservation {
            pushed: self.pushed,
            ..Default::default()
        };
        for &idx in &self.slot_of {
            let host = self.replicas[idx].host;
            hot.tally_replica(
                idx,
                host,
                self.placement_capacity[host],
                &mut conservation,
                &mut self.metrics,
            );
        }
        self.metrics.queue_drops = conservation.queue_drops;
        self.metrics.idle_discards = conservation.idle_discards;
        self.metrics.conservation = conservation;
        self.metrics.config_switches = self.control.switches();
        self.metrics.strategy_swaps = self.control.swaps();
        self.metrics.failovers = self.proxy.failovers();
        self.metrics
    }
}

/// Partition hosts into `nchunks` contiguous ranges balanced by replica
/// count (prefix thresholds over the arena offsets). Every returned range
/// is non-empty and together they cover all hosts.
fn chunk_hosts(host_offsets: &[usize], nchunks: usize) -> Vec<(usize, usize)> {
    let num_hosts = host_offsets.len() - 1;
    let total = host_offsets[num_hosts];
    let mut out = Vec::with_capacity(nchunks);
    let mut lo = 0usize;
    for c in 0..nchunks {
        if lo >= num_hosts {
            break;
        }
        let threshold = total * (c + 1) / nchunks;
        let mut hi = lo + 1;
        while hi < num_hosts && host_offsets[hi] < threshold {
            hi += 1;
        }
        // Leave at least one host per remaining chunk.
        let max_hi = num_hosts - (nchunks - c - 1).min(num_hosts - hi - (hi < num_hosts) as usize);
        let hi = hi.min(max_hi.max(lo + 1));
        out.push((lo, hi));
        lo = hi;
    }
    if let Some(last) = out.last_mut() {
        last.1 = num_hosts;
    }
    out
}

/// GPS water-filling over the consecutive hosts whose arena bounds are
/// `offsets` (one more entry than `capacity` and `util`), on a view whose
/// first replica is `offsets[0]`; samples each host's utilization.
fn fill_hosts(
    view: &mut HotChunk<'_>,
    util: &mut [TimeSeries],
    scratch: &mut WfScratch,
    offsets: &[usize],
    capacity: &[f64],
    q: Tick,
) {
    let base = offsets[0];
    for (h, &cap) in capacity.iter().enumerate() {
        let budget = cap * q.dt;
        let (lo, hi) = (offsets[h] - base, offsets[h + 1] - base);
        let remaining = view.water_fill(lo, hi, q.t, budget, scratch);
        let used = budget - remaining;
        util[h].samples[q.sec] += used / budget / (1.0 / q.dt);
    }
}

/// Replay the route tables of a chunk's hosts against the per-origin
/// buffers: every non-empty buffer is offered at `now` to the destinations
/// it reaches on those hosts. `base` is the arena index of the chunk's
/// first replica.
fn replay(
    view: &mut HotChunk<'_>,
    routes: &[Vec<RouteEntry>],
    bufs: &[Vec<f64>],
    base: usize,
    now: f64,
) {
    for host_routes in routes {
        for &(origin, idx, port) in host_routes {
            let births = &bufs[origin as usize];
            if !births.is_empty() {
                view.offer(idx as usize - base, port as usize, births, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_core::testutil::fig2_problem;
    use laar_model::ConfigId;

    fn fig2_strategy_laar() -> ActivationStrategy {
        let mut s = ActivationStrategy::all_active(2, 2, 2);
        s.set_active(0, ConfigId(1), 1, false);
        s.set_active(1, ConfigId(1), 0, false);
        s
    }

    fn short_trace() -> InputTrace {
        InputTrace::low_high_centered(4.0, 8.0, 60.0, 1.0 / 3.0)
    }

    #[test]
    fn best_case_low_only_processes_everything() {
        let p = fig2_problem(0.6);
        let trace = InputTrace::constant(&[4.0], 30.0);
        let sim = Simulation::new(
            &p.app,
            &p.placement,
            ActivationStrategy::all_active(2, 2, 2),
            &trace,
            FailurePlan::None,
            SimConfig::default(),
        );
        let m = sim.run();
        assert_eq!(m.source_emitted[0], 120);
        assert_eq!(m.queue_drops, 0);
        // Both PEs process every tuple (pe1 slightly lags pipeline fill).
        assert!(m.pe_processed[0] >= 115, "{:?}", m.pe_processed);
        assert!(m.pe_processed[1] >= 110, "{:?}", m.pe_processed);
        // Sink receives nearly everything.
        assert!(m.total_sink_output() >= 110);
    }

    #[test]
    fn static_replication_saturates_at_high() {
        // Fig. 3a: with SR, the High phase overloads both hosts and the
        // output rate cannot follow the input.
        let p = fig2_problem(0.6);
        let sim = Simulation::new(
            &p.app,
            &p.placement,
            ActivationStrategy::all_active(2, 2, 2),
            &short_trace(),
            FailurePlan::None,
            SimConfig::default(),
        );
        let m = sim.run();
        assert!(m.queue_drops > 0, "expected overflow drops under SR");
        // During the High window (20..40 s) output lags input.
        let in_high = m.input_rate.mean_over(25.0, 40.0);
        let out_high = m.output_rate.mean_over(25.0, 40.0);
        assert!(
            out_high < in_high * 0.8,
            "in {in_high} vs out {out_high} should saturate"
        );
    }

    #[test]
    fn laar_follows_the_peak() {
        // Fig. 3b: deactivating replicas during High lets output follow.
        let p = fig2_problem(0.6);
        let sim = Simulation::new(
            &p.app,
            &p.placement,
            fig2_strategy_laar(),
            &short_trace(),
            FailurePlan::None,
            SimConfig::default(),
        );
        let m = sim.run();
        let in_high = m.input_rate.mean_over(25.0, 40.0);
        let out_high = m.output_rate.mean_over(25.0, 40.0);
        assert!(
            out_high > in_high * 0.85,
            "in {in_high} vs out {out_high} should keep up"
        );
        assert!(m.config_switches >= 2, "Low->High->Low expected");
    }

    #[test]
    fn laar_uses_less_cpu_than_sr() {
        let p = fig2_problem(0.6);
        let run = |s: ActivationStrategy| {
            Simulation::new(
                &p.app,
                &p.placement,
                s,
                &short_trace(),
                FailurePlan::None,
                SimConfig::default(),
            )
            .run()
        };
        let sr = run(ActivationStrategy::all_active(2, 2, 2));
        let laar = run(fig2_strategy_laar());
        assert!(
            laar.total_cpu_seconds() < sr.total_cpu_seconds(),
            "laar {} vs sr {}",
            laar.total_cpu_seconds(),
            sr.total_cpu_seconds()
        );
    }

    #[test]
    fn worst_case_nr_produces_nothing() {
        let p = fig2_problem(0.6);
        // NR: only replica 0 active anywhere.
        let mut nr = ActivationStrategy::all_inactive(2, 2, 2);
        for pe in 0..2 {
            for c in 0..2 {
                nr.set_active(pe, ConfigId(c), 0, true);
            }
        }
        let plan = FailurePlan::worst_case(&p.app, &nr);
        let sim = Simulation::new(
            &p.app,
            &p.placement,
            nr,
            &short_trace(),
            plan,
            SimConfig::default(),
        );
        let m = sim.run();
        assert_eq!(m.total_processed(), 0);
        assert_eq!(m.total_sink_output(), 0);
    }

    #[test]
    fn worst_case_laar_meets_ic_bound() {
        let p = fig2_problem(0.6);
        let strategy = fig2_strategy_laar();
        let plan = FailurePlan::worst_case(&p.app, &strategy);
        // The IC guarantee holds when the trace matches the contract's
        // P_C (here 0.8 Low / 0.2 High), so use a 20 % High trace.
        let trace = InputTrace::low_high_centered(4.0, 8.0, 60.0, 0.2);
        let failure_run = Simulation::new(
            &p.app,
            &p.placement,
            strategy.clone(),
            &trace,
            plan,
            SimConfig::default(),
        )
        .run();
        let clean_run = Simulation::new(
            &p.app,
            &p.placement,
            strategy,
            &trace,
            FailurePlan::None,
            SimConfig::default(),
        )
        .run();
        let measured_ic = failure_run.total_processed() as f64 / clean_run.total_processed() as f64;
        // Analytic pessimistic IC of this strategy is 2/3 under the paper's
        // P_C; the trace spends 2/3 of the time at Low, so the run-time IC
        // should be around 2/3 as well (allow sim noise).
        assert!(
            measured_ic > 0.55 && measured_ic < 0.85,
            "measured IC = {measured_ic}"
        );
    }

    #[test]
    fn host_crash_recovers_and_fails_over() {
        let p = fig2_problem(0.6);
        let trace = InputTrace::constant(&[4.0], 60.0);
        let plan = FailurePlan::host_crash(laar_model::HostId(0), 20.0);
        let sim = Simulation::new(
            &p.app,
            &p.placement,
            ActivationStrategy::all_active(2, 2, 2),
            &trace,
            plan,
            SimConfig::default(),
        );
        let m = sim.run();
        // Both PEs lose their replica-0 (host 0) but replica 1 takes over.
        assert!(m.failovers >= 2, "failovers = {}", m.failovers);
        // Output continues: better than losing the whole outage window.
        assert!(
            m.total_sink_output() as f64 >= 0.85 * m.source_emitted[0] as f64,
            "output {} of input {}",
            m.total_sink_output(),
            m.source_emitted[0]
        );
    }

    #[test]
    fn conservation_of_tuples() {
        // Every tuple offered to a replica terminates in exactly one ledger
        // bucket; the simulator's ledger must balance *exactly* (its
        // transport terms are zero by construction).
        let p = fig2_problem(0.6);
        let sim = Simulation::new(
            &p.app,
            &p.placement,
            fig2_strategy_laar(),
            &short_trace(),
            FailurePlan::None,
            SimConfig::default(),
        );
        let m = sim.run();
        assert!(m.conservation.is_balanced(), "{:?}", m.conservation);
        assert_eq!(m.conservation.transport_dropped, 0);
        assert_eq!(m.conservation.ring_residual, 0);
        assert_eq!(m.conservation.queue_drops, m.queue_drops);
        assert_eq!(m.conservation.idle_discards, m.idle_discards);
        // Aggregate sanity: every source tuple is offered to 2 replicas.
        let offered = 2 * m.source_emitted[0];
        assert!(m.conservation.pushed >= offered);
        assert!(m.queue_drops + m.idle_discards < m.conservation.pushed);
    }

    #[test]
    fn conservation_balances_under_failures() {
        let p = fig2_problem(0.6);
        for plan in [
            FailurePlan::worst_case(&p.app, &fig2_strategy_laar()),
            FailurePlan::host_crash(laar_model::HostId(0), 20.0),
        ] {
            let m = Simulation::new(
                &p.app,
                &p.placement,
                fig2_strategy_laar(),
                &short_trace(),
                plan.clone(),
                SimConfig::default(),
            )
            .run();
            assert!(
                m.conservation.is_balanced(),
                "{plan:?}: {:?}",
                m.conservation
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let p = fig2_problem(0.6);
        let run = || {
            Simulation::new(
                &p.app,
                &p.placement,
                fig2_strategy_laar(),
                &short_trace(),
                FailurePlan::None,
                SimConfig::default(),
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_processed(), b.total_processed());
        assert_eq!(a.queue_drops, b.queue_drops);
        assert_eq!(a.total_sink_output(), b.total_sink_output());
        assert_eq!(a.config_switches, b.config_switches);
        assert_eq!(a.conservation, b.conservation);
    }

    #[test]
    fn latency_is_measured_and_small_when_unloaded() {
        let p = fig2_problem(0.6);
        let trace = InputTrace::constant(&[4.0], 30.0);
        let m = Simulation::new(
            &p.app,
            &p.placement,
            ActivationStrategy::all_active(2, 2, 2),
            &trace,
            FailurePlan::None,
            SimConfig::default(),
        )
        .run();
        assert!(m.latency.count > 100);
        // Two 0.1 s processing stages plus queueing/quantum slack.
        let mean = m.latency.mean();
        assert!((0.15..0.6).contains(&mean), "mean latency {mean}");
        assert!(m.latency.quantile(0.99) < 1.0);
    }

    #[test]
    fn saturation_inflates_latency() {
        let p = fig2_problem(0.6);
        let m_low = Simulation::new(
            &p.app,
            &p.placement,
            ActivationStrategy::all_active(2, 2, 2),
            &InputTrace::constant(&[4.0], 30.0),
            FailurePlan::None,
            SimConfig::default(),
        )
        .run();
        // Static replication at the High rate saturates: queues fill and
        // latency grows toward the 2 s queue bound.
        let m_high = Simulation::new(
            &p.app,
            &p.placement,
            ActivationStrategy::all_active(2, 2, 2),
            &InputTrace::constant(&[8.0], 30.0),
            FailurePlan::None,
            SimConfig {
                controller_enabled: false,
                ..SimConfig::default()
            },
        )
        .run();
        assert!(
            m_high.latency.mean() > 3.0 * m_low.latency.mean(),
            "saturated {} vs unloaded {}",
            m_high.latency.mean(),
            m_low.latency.mean()
        );
    }

    #[test]
    fn poisson_arrivals_work_and_stay_deterministic() {
        let p = fig2_problem(0.6);
        let cfg = SimConfig {
            arrivals: crate::trace::ArrivalProcess::Poisson { seed: 5 },
            ..SimConfig::default()
        };
        let run = || {
            Simulation::new(
                &p.app,
                &p.placement,
                fig2_strategy_laar(),
                &short_trace(),
                FailurePlan::None,
                cfg.clone(),
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.source_emitted, b.source_emitted);
        assert_eq!(a.total_processed(), b.total_processed());
        // Roughly the scheduled volume.
        let expected = short_trace().schedules[0].expected_tuples(60.0);
        assert!((a.source_emitted[0] as f64 - expected).abs() < 0.25 * expected);
    }

    #[test]
    fn replica_counters_exported() {
        let p = fig2_problem(0.6);
        let m = Simulation::new(
            &p.app,
            &p.placement,
            ActivationStrategy::all_active(2, 2, 2),
            &InputTrace::constant(&[4.0], 20.0),
            FailurePlan::None,
            SimConfig::default(),
        )
        .run();
        assert_eq!(m.replica_port_processed.len(), 4);
        assert_eq!(m.replica_emitted.len(), 4);
        assert_eq!(m.replica_cycles.len(), 4);
        // Both replicas of pe1 process the same logical stream.
        assert_eq!(m.replica_port_processed[0], m.replica_port_processed[1]);
        assert!(m.replica_cycles[0] > 0.0);
    }

    #[test]
    fn controller_disabled_freezes_activations() {
        let p = fig2_problem(0.6);
        let cfg = SimConfig {
            controller_enabled: false,
            ..SimConfig::default()
        };
        let sim = Simulation::new(
            &p.app,
            &p.placement,
            fig2_strategy_laar(),
            &short_trace(),
            FailurePlan::None,
            cfg,
        );
        let m = sim.run();
        assert_eq!(m.config_switches, 0);
        assert_eq!(m.commands_applied, 0);
    }

    #[test]
    fn threads_produce_bit_identical_metrics() {
        // The fig2 pipeline has 2 hosts — the smallest fixture the staged
        // phases actually split. The full-scale sweep lives in
        // tests/equivalence.rs; this is the fast in-module guard.
        let p = fig2_problem(0.6);
        let run = |threads: usize| {
            Simulation::new(
                &p.app,
                &p.placement,
                fig2_strategy_laar(),
                &short_trace(),
                FailurePlan::host_crash(laar_model::HostId(0), 20.0),
                SimConfig {
                    threads,
                    ..SimConfig::default()
                },
            )
            .run()
        };
        let seq = run(1);
        for threads in [2, 3] {
            let par = run(threads);
            assert_eq!(seq, par, "threads={threads} diverged");
        }
    }

    #[test]
    fn profiled_run_reports_arena_bytes() {
        let p = fig2_problem(0.6);
        let (_, profile) = Simulation::new(
            &p.app,
            &p.placement,
            fig2_strategy_laar(),
            &short_trace(),
            FailurePlan::None,
            SimConfig::default(),
        )
        .run_profiled();
        assert!(profile.arena_bytes > 0);
        let pes = 2.0;
        assert!((profile.bytes_per_pe - profile.arena_bytes as f64 / pes).abs() < 1e-9);
    }

    #[test]
    fn profiled_run_metrics_match_plain_run() {
        let p = fig2_problem(0.6);
        let build = |threads: usize| {
            Simulation::new(
                &p.app,
                &p.placement,
                fig2_strategy_laar(),
                &short_trace(),
                FailurePlan::None,
                SimConfig {
                    threads,
                    ..SimConfig::default()
                },
            )
        };
        for threads in [1, 2] {
            let plain = build(threads).run();
            let (profiled, profile) = build(threads).run_profiled();
            assert_eq!(plain, profiled, "threads={threads}");
            assert!(profile.quanta_executed > 0);
            assert!(profile.scheduling_secs >= 0.0);
        }
    }

    #[test]
    fn chunk_hosts_partitions_cover_everything() {
        // 5 hosts with uneven replica counts.
        let offsets = vec![0usize, 8, 10, 11, 19, 24];
        for nchunks in 1..=5 {
            let chunks = chunk_hosts(&offsets, nchunks);
            assert!(!chunks.is_empty());
            assert_eq!(chunks[0].0, 0);
            assert_eq!(chunks.last().unwrap().1, 5);
            for w in chunks.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous cover: {chunks:?}");
            }
            for &(lo, hi) in &chunks {
                assert!(lo < hi, "non-empty ranges: {chunks:?}");
            }
            assert!(chunks.len() <= nchunks);
        }
    }
}

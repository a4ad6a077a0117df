//! # LAAR — Load-Adaptive Active Replication
//!
//! A from-scratch Rust reproduction of *"Adaptive Fault-Tolerance for
//! Dynamic Resource Provisioning in Distributed Stream Processing Systems"*
//! (Bellavista, Corradi, Reale, Kotoulas — EDBT 2014).
//!
//! LAAR deploys `k = 2` replicas of every processing element of a stream
//! application and, driven by an off-line optimized *replica activation
//! strategy*, activates and deactivates replicas at runtime as the observed
//! input rates move between declared *input configurations* — trading a
//! guaranteed lower bound on fault-tolerance (the *internal completeness*
//! metric) for the CPU headroom needed to ride out load spikes without
//! queue growth or tuple loss.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`model`] (`laar-model`) — application graphs, descriptors, input
//!   configurations, placements, activation strategies;
//! * [`core`] (`laar-core`) — the IC metric, cost model, the FT-Search
//!   optimizer (hard IC goal or the penalty model), baseline variants, and
//!   the runtime control plane (rate monitor, HAController);
//! * [`exec`] (`laar-exec`) — the backend-agnostic execution core: the
//!   replica/HA state machine, HAProxy command/election protocol, the
//!   monitor/controller decision loop, failure plans, and the tuple
//!   conservation ledger, written once and shared by both engines;
//! * [`adapt`] (`laar-adapt`) — online re-optimization: drift detection
//!   over measured source rates, warm-started anytime FT-Search
//!   re-planning, and the decision logic behind live strategy hot-swaps;
//! * [`dsps`] (`laar-dsps`) — a deterministic discrete-event cluster
//!   simulator standing in for IBM InfoSphere Streams®;
//! * [`gen`] (`laar-gen`) — the synthetic application/corpus generator of
//!   the paper's §5.2;
//! * [`experiments`] (`laar-experiments`) — harnesses regenerating every
//!   figure of the paper's evaluation;
//! * [`runtime`] (`laar-runtime`) — a live multi-threaded execution engine
//!   running the same deployments on real OS threads, with the simulator
//!   as its oracle.
//!
//! ## Quickstart
//!
//! ```
//! use laar::prelude::*;
//! use std::time::Duration;
//!
//! // The paper's Fig. 1 application: src -> pe1 -> pe2 -> sink.
//! let mut b = GraphBuilder::new();
//! let src = b.add_source("src");
//! let pe1 = b.add_pe("pe1");
//! let pe2 = b.add_pe("pe2");
//! let sink = b.add_sink("sink");
//! b.connect(src, pe1, 1.0, 100.0).unwrap();  // δ = 1, γ = 100 cycles
//! b.connect(pe1, pe2, 1.0, 100.0).unwrap();
//! b.connect_sink(pe2, sink).unwrap();
//! let graph = b.build().unwrap();
//!
//! // Low = 4 t/s for 80 % of the time, High = 8 t/s for 20 %.
//! let configs = ConfigSpace::new(&graph, vec![vec![4.0, 8.0]], vec![0.8, 0.2]).unwrap();
//! let app = Application::new("pipeline", graph, configs, 300.0).unwrap();
//!
//! // Two 1000-cycle/s hosts; replica r of each PE on host r.
//! let hosts = Placement::uniform_hosts(2, 1000.0);
//! let assignment = vec![HostId(0), HostId(1), HostId(0), HostId(1)];
//! let placement = Placement::new(app.graph(), 2, hosts, assignment).unwrap();
//!
//! // Ask for a guaranteed IC of 0.6 and let FT-Search find the cheapest
//! // replica activation strategy.
//! let problem = Problem::new(app, placement, 0.6).unwrap();
//! let report = ftsearch::solve(&problem, &FtSearchConfig::with_time_limit(
//!     Duration::from_secs(10))).unwrap();
//! let solution = report.outcome.solution().expect("feasible");
//! assert!(solution.ic >= 0.6);
//! assert!(problem.is_feasible(&solution.strategy));
//! ```

#![warn(missing_docs)]

pub use laar_adapt as adapt;
pub use laar_core as core;
pub use laar_dsps as dsps;
pub use laar_exec as exec;
pub use laar_experiments as experiments;
pub use laar_gen as gen;
pub use laar_model as model;
pub use laar_runtime as runtime;

/// The most common imports for working with LAAR.
pub mod prelude {
    pub use laar_adapt::{
        AdaptConfig, AdaptOutcome, AdaptReport, AdaptiveController, DriftConfig, DriftDetector,
    };
    pub use laar_core::ftsearch::{self, FtSearchConfig, Outcome, SearchReport, Solution};
    pub use laar_core::{
        greedy, non_replicated, static_replication, Command, CostModel, FailureModel, HaController,
        IcEvaluator, NoFailure, PessimisticFailure, Problem, RateMonitor, VariantKind, Violation,
    };
    pub use laar_dsps::{FailurePlan, InputTrace, RateSchedule, SimConfig, SimMetrics, Simulation};
    pub use laar_gen::{runtime_corpus, solver_corpus, GenParams, GeneratedApp};
    pub use laar_model::{
        ActivationStrategy, Application, ApplicationGraph, ComponentId, ConfigId, ConfigSpace,
        GraphBuilder, Host, HostId, Placement, RateTable, ReplicaId,
    };
    pub use laar_runtime::{Conservation, LiveReport, LiveRuntime, RuntimeConfig};
}

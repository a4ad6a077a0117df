//! # laar-dsps
//!
//! A deterministic discrete-event simulator of a distributed stream
//! processing cluster — the substrate standing in for the paper's IBM
//! InfoSphere Streams® deployment on a 60-core BladeCenter® cluster.
//!
//! The LAAR protocol itself (replica state machine, HAProxy primary
//! election, control loop, failure plans, conservation ledger) lives in
//! [`laar_exec`] and is shared verbatim with the live threaded engine;
//! this crate owns only what makes it a *simulator*:
//!
//! * hosts with CPU capacity `K` cycles/s, shared across resident replicas
//!   with generalized processor sharing evaluated in fixed virtual-time
//!   quanta;
//! * synchronous tuple delivery (an offer reaches the receiving replica in
//!   the same quantum it is produced);
//! * trace-driven data sources and measuring sinks;
//! * deterministic replay: identical inputs produce identical metrics.
//!
//! The protocol types are re-exported here (`laar_dsps::FailurePlan`,
//! `laar_dsps::replica::Replica`, …) so existing callers keep working.

#![warn(missing_docs)]

pub mod arena;
pub mod metrics;
mod pool;
pub mod profiler;
pub mod sim;
pub mod trace;

pub use laar_exec::{failure, replica};

pub use arena::{HotArena, HotChunk, Port, Ring};
pub use laar_exec::failure::{strategy_after_worst_case, FailurePlan};
pub use laar_exec::replica::{InPort, Replica};
pub use laar_exec::ReplicaStatus;
pub use metrics::{LatencyStats, SimMetrics, TimeSeries};
pub use profiler::{profile_application, EstimatedDescriptor, PhaseProfile};
pub use sim::{SimConfig, Simulation};
pub use trace::{ArrivalProcess, InputTrace, RateSchedule, SourceEmitter};

//! # laar-model
//!
//! Shared application model for the LAAR reproduction (EDBT 2014,
//! "Adaptive Fault-Tolerance for Dynamic Resource Provisioning in Distributed
//! Stream Processing Systems").
//!
//! This crate defines the vocabulary of the paper's service model (§3) and
//! formal model (§4.2):
//!
//! * [`graph::ApplicationGraph`] — the directed acyclic dataflow graph of
//!   data sources, processing elements (PEs), and data sinks, with edge
//!   annotations for selectivity `δ` and per-tuple CPU cost `γ`;
//! * [`config::ConfigSpace`] — the finite set of *input configurations*
//!   `C = R₁ × … × Rₜ` with its probability mass function `P_C`, and the
//!   HAController's lookup of the dominating configuration;
//! * [`placement::Placement`] — the replicated assignment `ϑ : P̃ → H` of
//!   `k` replicas of each PE to hosts with CPU capacity `K`;
//! * [`strategy::ActivationStrategy`] — the replica activation strategy
//!   `s : P̃ × C → {0, 1}` that LAAR optimizes and enforces at runtime;
//! * [`rates::RateTable`] — failure-free expected rates `Δ(x, c)` and the
//!   per-replica CPU loads derived from them;
//! * [`app::Application`] — the full customer contract (graph + descriptor +
//!   billing period `T`).
//!
//! Everything is plain data with explicit validation; the optimizer lives in
//! `laar-core` and the runtime/simulator in `laar-dsps`.

#![warn(missing_docs)]

pub mod app;
pub mod config;
pub mod error;
pub mod estimate;
pub mod graph;
pub mod placement;
pub mod rates;
pub mod strategy;

pub use app::Application;
pub use config::{ConfigId, ConfigSpace};
pub use error::ModelError;
pub use estimate::DescriptorEstimate;
pub use graph::{
    ApplicationGraph, Component, ComponentId, ComponentKind, Edge, EdgeId, GraphBuilder,
};
pub use placement::{Host, HostId, Placement, ReplicaId};
pub use rates::RateTable;
pub use strategy::ActivationStrategy;

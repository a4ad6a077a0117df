//! # laar-core
//!
//! The primary contribution of the LAAR paper (EDBT 2014): the internal
//! completeness (IC) metric, the cost model, the FT-Search optimizer, the
//! baseline replication variants, and the runtime control plane
//! (rate monitor + HAController).

#![warn(missing_docs)]

pub mod controller;
pub mod cost;
pub mod error;
pub mod ftsearch;
pub mod ic;
pub mod monitor;
pub mod placement_opt;
pub mod problem;
#[doc(hidden)]
pub mod testutil;
pub mod variants;

pub use controller::{Command, HaController, ReplicaSlot};
pub use cost::CostModel;
pub use error::{CoreError, Violation};
pub use ftsearch::{FtSearchConfig, Outcome, SearchReport, SearchStats, Solution};
pub use ic::{
    FailureModel, HostDown, IcEvaluator, IndependentFailure, NoFailure, PessimisticFailure,
};
pub use monitor::RateMonitor;
pub use placement_opt::{optimize_placement, PlacementSearchConfig, PlacementSearchResult};
pub use problem::Problem;
pub use variants::{
    greedy, non_replicated, peak_config, static_replication, GreedyResult, VariantKind,
};

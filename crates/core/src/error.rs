//! Errors and constraint-violation reports for the LAAR optimizer.

use laar_model::{ConfigId, HostId};
use std::fmt;

/// A reason why an activation strategy is infeasible for a given problem.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The guaranteed IC falls short of the SLA requirement (eq. 10).
    IcTooLow {
        /// Required IC from the SLA.
        required: f64,
        /// IC actually guaranteed by the strategy under the failure model.
        actual: f64,
    },
    /// Some host is overloaded in some configuration (eq. 11).
    HostOverloaded {
        /// The overloaded host.
        host: HostId,
        /// The configuration in which the overload occurs.
        config: ConfigId,
        /// CPU cycles/s that would be needed.
        load: f64,
        /// CPU cycles/s available (`K`).
        capacity: f64,
    },
    /// Some PE has no active replica in some configuration (eq. 12).
    NoActiveReplica {
        /// Dense PE index.
        pe_dense: usize,
        /// The configuration missing an active replica.
        config: ConfigId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::IcTooLow { required, actual } => {
                write!(f, "IC {actual:.4} below SLA requirement {required:.4}")
            }
            Violation::HostOverloaded {
                host,
                config,
                load,
                capacity,
            } => write!(
                f,
                "host {} overloaded in configuration {} ({load:.0} cycles/s of {capacity:.0})",
                host.0, config.0
            ),
            Violation::NoActiveReplica { pe_dense, config } => write!(
                f,
                "PE (dense {pe_dense}) has no active replica in configuration {}",
                config.0
            ),
        }
    }
}

/// Errors from the optimizer layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The problem references a placement whose replication factor differs
    /// from the one the solver supports.
    UnsupportedReplication {
        /// The placement's `k`.
        k: usize,
    },
    /// The problem's placement and application disagree on the PE count.
    PlacementMismatch,
    /// The IC requirement is outside `[0, 1]`.
    InvalidIcRequirement(f64),
    /// The soft solver's penalty rate is negative or not finite.
    InvalidPenaltyRate(f64),
    /// The CP engine's restart cap is below the budget of its first
    /// restart (`restart_base`, at least 64 nodes).
    InvalidRestartCap {
        /// The configured `restart_cap`.
        cap: u64,
        /// The first restart's budget it must not undercut.
        first: u64,
    },
    /// The model layer rejected something.
    Model(laar_model::ModelError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnsupportedReplication { k } => {
                write!(
                    f,
                    "unsupported replication factor k = {k} (FT-Search requires k = 2)"
                )
            }
            CoreError::PlacementMismatch => {
                write!(f, "placement and application disagree on the number of PEs")
            }
            CoreError::InvalidIcRequirement(v) => {
                write!(f, "IC requirement {v} outside [0, 1]")
            }
            CoreError::InvalidPenaltyRate(v) => {
                write!(f, "penalty rate {v} is not a finite number >= 0")
            }
            CoreError::InvalidRestartCap { cap, first } => {
                write!(
                    f,
                    "restart cap {cap} is below the first restart's budget {first}"
                )
            }
            CoreError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<laar_model::ModelError> for CoreError {
    fn from(e: laar_model::ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display() {
        let v = Violation::IcTooLow {
            required: 0.7,
            actual: 0.61,
        };
        assert!(v.to_string().contains("0.6100"));
        let v = Violation::HostOverloaded {
            host: HostId(2),
            config: ConfigId(1),
            load: 1500.0,
            capacity: 1000.0,
        };
        assert!(v.to_string().contains("host 2"));
    }

    #[test]
    fn core_error_from_model_error() {
        let e: CoreError = laar_model::ModelError::CyclicGraph.into();
        assert!(matches!(e, CoreError::Model(_)));
    }
}

//! Hosts and replicated placements (§4.2).
//!
//! A placement algorithm (outside LAAR's scope, e.g. COLA \[21\]) assigns `k`
//! replicas of each PE to a set of hosts `H`; the assignment is the function
//! `ϑ : P̃ → H`. LAAR consumes the placement; this module represents and
//! validates it.

use crate::error::ModelError;
use crate::graph::{ApplicationGraph, ComponentId};
use serde::{DeError, Deserialize, Serialize, Value};

/// Identifier of a deployment host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl HostId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A deployment host with CPU capacity `K` (cycles per second available to
/// application PEs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// Dense host id.
    pub id: HostId,
    /// Host name for reports.
    pub name: String,
    /// CPU capacity `K` in cycles per second.
    pub capacity: f64,
}

/// Identifier of one replica of one PE: the paper's `x̃ᵢ,ⱼ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ReplicaId {
    /// The PE this replica belongs to.
    pub pe: ComponentId,
    /// Replica index in `0..k`.
    pub replica: u8,
}

impl ReplicaId {
    /// Construct a replica id.
    #[inline]
    pub fn new(pe: ComponentId, replica: u8) -> Self {
        Self { pe, replica }
    }
}

/// A validated replicated assignment `ϑ : P̃ → H`.
///
/// Indexing is dense: `assignment[pe_dense_index * k + replica]` holds the
/// host of that replica. A placement read from JSON goes through the checks
/// of [`Placement::new`] except the ones that need the graph: its PE count
/// is checked against the application's by `Problem::new`, and a
/// co-location error names the PE by its dense index.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Placement {
    /// Replication factor `k` (the paper's FT-Search fixes `k = 2`).
    k: usize,
    hosts: Vec<Host>,
    /// Host of replica `j` of the PE with dense index `i`, at `i * k + j`.
    assignment: Vec<HostId>,
    /// Number of PEs covered (must equal the graph's PE count).
    num_pes: usize,
}

impl Placement {
    /// Build and validate a placement.
    ///
    /// `assignment[i * k + j]` must be the host of replica `j` of the PE with
    /// dense index `i` (see [`ApplicationGraph::pe_dense_index`]). Validation
    /// enforces: full coverage, known hosts, positive capacities, and — so
    /// that a single host failure can never take down both replicas —
    /// replicas of the same PE on distinct hosts (only checked when the
    /// deployment has more than one host).
    pub fn new(
        graph: &ApplicationGraph,
        k: usize,
        hosts: Vec<Host>,
        assignment: Vec<HostId>,
    ) -> Result<Self, ModelError> {
        Self::from_parts(k, hosts, assignment, graph.num_pes()).map_err(|e| match e {
            ModelError::CoLocatedReplicas { pe, host } => ModelError::CoLocatedReplicas {
                pe: graph.pes()[pe as usize].0,
                host,
            },
            e => e,
        })
    }

    /// The checks of [`Placement::new`] over `num_pes` PEs, in its order; a
    /// co-location error names the PE by its dense index.
    fn from_parts(
        k: usize,
        hosts: Vec<Host>,
        assignment: Vec<HostId>,
        num_pes: usize,
    ) -> Result<Self, ModelError> {
        if assignment.len() != num_pes * k {
            return Err(ModelError::IncompletePlacement);
        }
        for h in &hosts {
            if !(h.capacity.is_finite() && h.capacity > 0.0) {
                return Err(ModelError::InvalidCapacity {
                    host: h.id.0,
                    value: h.capacity,
                });
            }
        }
        for &h in &assignment {
            if h.index() >= hosts.len() {
                return Err(ModelError::UnknownHost(h.0));
            }
        }
        if hosts.len() > 1 {
            for i in 0..num_pes {
                for a in 0..k {
                    for b in (a + 1)..k {
                        if assignment[i * k + a] == assignment[i * k + b] {
                            return Err(ModelError::CoLocatedReplicas {
                                pe: i as u32,
                                host: assignment[i * k + a].0,
                            });
                        }
                    }
                }
            }
        }
        Ok(Self {
            k,
            hosts,
            assignment,
            num_pes,
        })
    }

    /// Replication factor `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of PEs covered by the placement.
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// The deployment hosts.
    #[inline]
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Number of hosts.
    #[inline]
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// `ϑ(x̃)` by dense PE index and replica index.
    #[inline]
    pub fn host_of(&self, pe_dense: usize, replica: usize) -> HostId {
        self.assignment[pe_dense * self.k + replica]
    }

    /// `ϑ(x̃)` for a [`ReplicaId`], resolving the PE's dense index through the
    /// graph.
    pub fn host_of_replica(&self, graph: &ApplicationGraph, r: ReplicaId) -> Option<HostId> {
        let dense = graph.pe_dense_index(r.pe)?;
        Some(self.host_of(dense, r.replica as usize))
    }

    /// `ϑ⁻¹(h)`: all `(pe_dense, replica)` pairs deployed on host `h`.
    pub fn replicas_on(&self, h: HostId) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for pe in 0..self.num_pes {
            for r in 0..self.k {
                if self.assignment[pe * self.k + r] == h {
                    out.push((pe, r));
                }
            }
        }
        out
    }

    /// Capacity of host `h`.
    #[inline]
    pub fn capacity(&self, h: HostId) -> f64 {
        self.hosts[h.index()].capacity
    }

    /// Total capacity of the deployment.
    pub fn total_capacity(&self) -> f64 {
        self.hosts.iter().map(|h| h.capacity).sum()
    }

    /// Convenience: build `n` uniform hosts with the given capacity.
    pub fn uniform_hosts(n: usize, capacity: f64) -> Vec<Host> {
        (0..n)
            .map(|i| Host {
                id: HostId(i as u32),
                name: format!("host{i}"),
                capacity,
            })
            .collect()
    }
}

impl Deserialize for Placement {
    fn deser(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("Placement object", v))?;
        let field = |name| obj.get(name).unwrap_or(&Value::Null);
        Self::from_parts(
            Deserialize::deser(field("k"))?,
            Deserialize::deser(field("hosts"))?,
            Deserialize::deser(field("assignment"))?,
            Deserialize::deser(field("num_pes"))?,
        )
        .map_err(|e| DeError(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn two_pe_graph() -> ApplicationGraph {
        let mut b = GraphBuilder::new();
        let s = b.add_source("s");
        let p1 = b.add_pe("p1");
        let p2 = b.add_pe("p2");
        let k = b.add_sink("k");
        b.connect(s, p1, 1.0, 1.0).unwrap();
        b.connect(p1, p2, 1.0, 1.0).unwrap();
        b.connect_sink(p2, k).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn valid_two_host_placement() {
        let g = two_pe_graph();
        let hosts = Placement::uniform_hosts(2, 1e9);
        // replica 0 on host 0, replica 1 on host 1 for both PEs
        let assignment = vec![HostId(0), HostId(1), HostId(0), HostId(1)];
        let p = Placement::new(&g, 2, hosts, assignment).unwrap();
        assert_eq!(p.host_of(0, 0), HostId(0));
        assert_eq!(p.host_of(0, 1), HostId(1));
        assert_eq!(p.replicas_on(HostId(0)), vec![(0, 0), (1, 0)]);
        assert_eq!(p.total_capacity(), 2e9);
    }

    #[test]
    fn colocated_replicas_rejected() {
        let g = two_pe_graph();
        let hosts = Placement::uniform_hosts(2, 1e9);
        let assignment = vec![HostId(0), HostId(1), HostId(1), HostId(1)];
        // The error names the PE by its component id.
        assert_eq!(
            Placement::new(&g, 2, hosts, assignment),
            Err(ModelError::CoLocatedReplicas {
                pe: g.pes()[1].0,
                host: 1
            })
        );
    }

    #[test]
    fn placement_json_is_checked_like_the_constructor() {
        let g = two_pe_graph();
        let hosts = Placement::uniform_hosts(3, 1e9);
        let assignment = vec![HostId(0), HostId(1), HostId(1), HostId(2)];
        let good = Placement::new(&g, 2, hosts, assignment).unwrap();
        let s = serde_json::to_string(&good).unwrap();
        assert_eq!(serde_json::from_str::<Placement>(&s).unwrap(), good);
        let assignment = "\"assignment\":[0,1,1,2]";
        let capacity = "\"capacity\":1000000000";
        assert!(s.contains(assignment) && s.contains(capacity), "{s}");
        let first_host = s.find(capacity).unwrap() + capacity.len();
        let hosts = &s[s.find("\"hosts\":").unwrap()..s.find(",\"k\"").unwrap()];
        for (what, bad) in [
            (
                "unknown host",
                s.replace(assignment, "\"assignment\":[0,99,1,2]"),
            ),
            (
                "short assignment",
                s.replace(assignment, "\"assignment\":[0,1]"),
            ),
            ("no hosts", s.replace(hosts, "\"hosts\":[]")),
            ("zero capacity", s.replacen(capacity, "\"capacity\":0", 1)),
            (
                "negative capacity",
                format!(
                    "{}{}",
                    &s[..first_host],
                    s[first_host..].replacen(capacity, "\"capacity\":-5", 1)
                ),
            ),
            (
                "co-located replicas",
                s.replace(assignment, "\"assignment\":[0,1,2,2]"),
            ),
        ] {
            assert_ne!(bad, s, "{what}: the edit applies");
            assert!(serde_json::from_str::<Placement>(&bad).is_err(), "{what}");
        }
    }

    #[test]
    fn single_host_allows_colocated() {
        let g = two_pe_graph();
        let hosts = Placement::uniform_hosts(1, 1e9);
        let assignment = vec![HostId(0); 4];
        assert!(Placement::new(&g, 2, hosts, assignment).is_ok());
    }

    #[test]
    fn incomplete_assignment_rejected() {
        let g = two_pe_graph();
        let hosts = Placement::uniform_hosts(2, 1e9);
        assert_eq!(
            Placement::new(&g, 2, hosts, vec![HostId(0)]).unwrap_err(),
            ModelError::IncompletePlacement
        );
    }

    #[test]
    fn unknown_host_rejected() {
        let g = two_pe_graph();
        let hosts = Placement::uniform_hosts(2, 1e9);
        let assignment = vec![HostId(0), HostId(7), HostId(0), HostId(1)];
        assert_eq!(
            Placement::new(&g, 2, hosts, assignment).unwrap_err(),
            ModelError::UnknownHost(7)
        );
    }

    #[test]
    fn non_positive_capacity_rejected() {
        let g = two_pe_graph();
        let mut hosts = Placement::uniform_hosts(2, 1e9);
        hosts[1].capacity = 0.0;
        let assignment = vec![HostId(0), HostId(1), HostId(0), HostId(1)];
        assert!(matches!(
            Placement::new(&g, 2, hosts, assignment),
            Err(ModelError::InvalidCapacity { .. })
        ));
    }

    #[test]
    fn host_of_replica_through_graph() {
        let g = two_pe_graph();
        let hosts = Placement::uniform_hosts(2, 1e9);
        let assignment = vec![HostId(0), HostId(1), HostId(1), HostId(0)];
        let p = Placement::new(&g, 2, hosts, assignment).unwrap();
        let pe2 = g.pes()[1];
        assert_eq!(
            p.host_of_replica(&g, ReplicaId::new(pe2, 0)),
            Some(HostId(1))
        );
        // Sources have no dense PE index.
        assert_eq!(
            p.host_of_replica(&g, ReplicaId::new(g.sources()[0], 0)),
            None
        );
    }

    #[test]
    fn serde_round_trip() {
        let g = two_pe_graph();
        let hosts = Placement::uniform_hosts(2, 1e9);
        let assignment = vec![HostId(0), HostId(1), HostId(0), HostId(1)];
        let p = Placement::new(&g, 2, hosts, assignment).unwrap();
        let s = serde_json::to_string(&p).unwrap();
        let p2: Placement = serde_json::from_str(&s).unwrap();
        assert_eq!(p, p2);
    }
}

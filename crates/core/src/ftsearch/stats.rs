//! Search statistics collected by FT-Search (feeds Figs. 4–6 of the paper).

use laar_model::{ConfigId, HostId};
use std::time::Duration;

/// Number of pruning counters tracked ([`PruneKind::ALL`] length).
pub const NUM_PRUNE_KINDS: usize = 5;

/// The four pruning strategies of §4.5, plus nogood-store cuts (refuted
/// subtrees blocked by learned CPU/COMPL reasons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneKind {
    /// Pruning on CPU constraint (a host would be overloaded).
    Cpu,
    /// Pruning on the IC upper bound (goal unreachable below this node).
    Compl,
    /// Pruning on the cost lower bound (incumbent unbeatable below this node).
    Cost,
    /// Forward domain propagation ("no replication forwarding"): a domain
    /// value removed rather than a branch cut.
    Dom,
    /// A learned nogood blocked a value before (or immediately upon)
    /// assignment — a refuted subtree was never re-entered.
    Nogood,
}

impl PruneKind {
    /// All kinds, in reporting order.
    pub const ALL: [PruneKind; NUM_PRUNE_KINDS] = [
        PruneKind::Cpu,
        PruneKind::Compl,
        PruneKind::Cost,
        PruneKind::Dom,
        PruneKind::Nogood,
    ];

    /// Stable index into the counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            PruneKind::Cpu => 0,
            PruneKind::Compl => 1,
            PruneKind::Cost => 2,
            PruneKind::Dom => 3,
            PruneKind::Nogood => 4,
        }
    }

    /// Label used in reports (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            PruneKind::Cpu => "CPU",
            PruneKind::Compl => "COMPL",
            PruneKind::Cost => "COST",
            PruneKind::Dom => "DOM",
            PruneKind::Nogood => "NOGOOD",
        }
    }
}

/// One incumbent installation: when it happened and what it cost. The
/// sequence of points for a single (sequential) solve is non-increasing in
/// `cost_rate` — LNS/restarts never worsen the incumbent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncumbentPoint {
    /// Wall-clock offset from search start.
    pub at: Duration,
    /// Nodes visited across the whole solve when this incumbent landed.
    pub nodes: u64,
    /// Billed cost rate of the incumbent.
    pub cost_rate: f64,
}

/// Why an instance is infeasible before any search: one replica of `pe`
/// alone does not fit on either of its hosts in `config`, and eq. 12 forces
/// at least one replica active there. Recomputable from the descriptor with
/// one comparison per host (`load >= capacities[i]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootConflict {
    /// Dense PE index.
    pub pe: usize,
    /// The input configuration in which no replica fits.
    pub config: ConfigId,
    /// CPU load (cycles/s) of one active replica of `pe` in `config`.
    pub load: f64,
    /// Hosts of replica 0 and replica 1.
    pub hosts: [HostId; 2],
    /// Their capacities `K`.
    pub capacities: [f64; 2],
}

/// Counters and timings collected during one FT-Search run.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Variable assignments attempted (search-tree nodes visited).
    pub nodes: u64,
    /// Times each pruning strategy fired. For DOM this counts domain-value
    /// removals; for the others, branch cuts.
    pub prunes: [u64; NUM_PRUNE_KINDS],
    /// Sum of the heights (number of unassigned variables below the cut,
    /// inclusive) of branches cut by each strategy; height/prunes gives the
    /// paper's "average height of the pruned search branches" (Fig. 6).
    pub prune_heights: [u64; NUM_PRUNE_KINDS],
    /// Wall-clock time at which the first feasible solution was found.
    pub time_to_first: Option<Duration>,
    /// Objective of the first solution found (its cost rate under
    /// `Objective::Hard`).
    pub first_cost: Option<f64>,
    /// Wall-clock time at which the best (possibly optimal) solution was
    /// found.
    pub time_to_best: Option<Duration>,
    /// Objective of the best solution found (its cost rate under
    /// `Objective::Hard`).
    pub best_cost: Option<f64>,
    /// Number of feasible solutions encountered (improvements only).
    pub improvements: u64,
    /// `true` when the search exhausted the tree (result is proved optimal /
    /// proved infeasible); `false` on timeout. A CP solve
    /// ([`SearchMode::Portfolio`](super::SearchMode::Portfolio)) is proved
    /// when one restart run or its one proof run from its first incumbent
    /// exhausted its tree; LNS runs never prove.
    pub proved: bool,
    /// Total wall-clock time of the search.
    pub elapsed: Duration,
    /// Restarts performed by the CP driver (0 for the legacy DFS modes).
    pub restarts: u64,
    /// LNS re-solve rounds performed around the incumbent.
    pub lns_rounds: u64,
    /// Nogoods recorded into the store over the whole solve.
    pub nogoods_learned: u64,
    /// Total literals across all learned nogoods (avg length = lits/learned).
    pub nogood_lits: u64,
    /// `true` when the incumbent chain started from an externally installed
    /// seed (greedy/warm start) rather than a leaf found by the search.
    pub seeded: bool,
    /// Incumbent installations in chronological order (capped; see
    /// [`SearchStats::push_incumbent`]).
    pub trajectory: Vec<IncumbentPoint>,
    /// Set when the root presolve proved the instance infeasible without
    /// searching (`nodes == 0`, `proved`).
    pub root_conflict: Option<RootConflict>,
}

/// Cap on `trajectory` length; improvements past this are still counted in
/// `improvements` but not individually recorded.
const TRAJECTORY_CAP: usize = 4096;

impl SearchStats {
    /// Record a branch cut by `kind` at a node with `height` unassigned
    /// variables below it.
    #[inline]
    pub fn record_prune(&mut self, kind: PruneKind, height: u64) {
        self.prunes[kind.index()] += 1;
        self.prune_heights[kind.index()] += height;
    }

    /// Average height of the branches cut by `kind` (0 if it never fired).
    pub fn avg_prune_height(&self, kind: PruneKind) -> f64 {
        let n = self.prunes[kind.index()];
        if n == 0 {
            0.0
        } else {
            self.prune_heights[kind.index()] as f64 / n as f64
        }
    }

    /// Fraction of all prune events attributed to `kind`.
    pub fn prune_share(&self, kind: PruneKind) -> f64 {
        let total: u64 = self.prunes.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.prunes[kind.index()] as f64 / total as f64
        }
    }

    /// Cost ratio first/best (Fig. 5a); `None` until both exist.
    pub fn first_to_best_cost_ratio(&self) -> Option<f64> {
        match (self.first_cost, self.best_cost) {
            (Some(f), Some(b)) if b > 0.0 => Some(f / b),
            _ => None,
        }
    }

    /// Time ratio first/best (Fig. 5b); `None` until both exist.
    pub fn first_to_best_time_ratio(&self) -> Option<f64> {
        match (self.time_to_first, self.time_to_best) {
            (Some(f), Some(b)) if !b.is_zero() => Some(f.as_secs_f64() / b.as_secs_f64()),
            _ => None,
        }
    }

    /// Append an incumbent point, keeping the trajectory bounded.
    #[inline]
    pub fn push_incumbent(&mut self, at: Duration, nodes: u64, cost_rate: f64) {
        if self.trajectory.len() < TRAJECTORY_CAP {
            self.trajectory.push(IncumbentPoint {
                at,
                nodes,
                cost_rate,
            });
        }
    }

    /// Merge statistics from a parallel worker into this aggregate.
    pub fn merge(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        for i in 0..NUM_PRUNE_KINDS {
            self.prunes[i] += other.prunes[i];
            self.prune_heights[i] += other.prune_heights[i];
        }
        self.improvements += other.improvements;
        self.restarts += other.restarts;
        self.lns_rounds += other.lns_rounds;
        self.nogoods_learned += other.nogoods_learned;
        self.nogood_lits += other.nogood_lits;
        self.seeded |= other.seeded;
        for p in &other.trajectory {
            if self.trajectory.len() >= TRAJECTORY_CAP {
                break;
            }
            self.trajectory.push(*p);
        }
        self.trajectory
            .sort_by(|a, b| a.at.cmp(&b.at).then(a.nodes.cmp(&b.nodes)));
        // Earliest first solution wins.
        match (self.time_to_first, other.time_to_first) {
            (None, Some(t)) => {
                self.time_to_first = Some(t);
                self.first_cost = other.first_cost;
            }
            (Some(a), Some(b)) if b < a => {
                self.time_to_first = Some(b);
                self.first_cost = other.first_cost;
            }
            _ => {}
        }
        // Lowest best cost wins.
        match (self.best_cost, other.best_cost) {
            (None, Some(_)) => {
                self.best_cost = other.best_cost;
                self.time_to_best = other.time_to_best;
            }
            (Some(a), Some(b)) if b < a => {
                self.best_cost = other.best_cost;
                self.time_to_best = other.time_to_best;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_accounting() {
        let mut s = SearchStats::default();
        s.record_prune(PruneKind::Cpu, 10);
        s.record_prune(PruneKind::Cpu, 20);
        s.record_prune(PruneKind::Compl, 4);
        assert_eq!(s.prunes[PruneKind::Cpu.index()], 2);
        assert_eq!(s.avg_prune_height(PruneKind::Cpu), 15.0);
        assert_eq!(s.avg_prune_height(PruneKind::Cost), 0.0);
        assert!((s.prune_share(PruneKind::Cpu) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratios() {
        let mut s = SearchStats::default();
        assert!(s.first_to_best_cost_ratio().is_none());
        s.first_cost = Some(110.0);
        s.best_cost = Some(100.0);
        s.time_to_first = Some(Duration::from_millis(370));
        s.time_to_best = Some(Duration::from_millis(1000));
        assert!((s.first_to_best_cost_ratio().unwrap() - 1.1).abs() < 1e-12);
        assert!((s.first_to_best_time_ratio().unwrap() - 0.37).abs() < 1e-12);
    }

    #[test]
    fn merge_prefers_earliest_first_and_cheapest_best() {
        let mut a = SearchStats {
            time_to_first: Some(Duration::from_secs(2)),
            first_cost: Some(50.0),
            time_to_best: Some(Duration::from_secs(3)),
            best_cost: Some(40.0),
            ..Default::default()
        };
        let b = SearchStats {
            time_to_first: Some(Duration::from_secs(1)),
            first_cost: Some(60.0),
            time_to_best: Some(Duration::from_secs(4)),
            best_cost: Some(30.0),
            nodes: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.time_to_first, Some(Duration::from_secs(1)));
        assert_eq!(a.first_cost, Some(60.0));
        assert_eq!(a.best_cost, Some(30.0));
        assert_eq!(a.nodes, 7);
    }

    #[test]
    fn prune_kind_labels() {
        assert_eq!(PruneKind::Cpu.label(), "CPU");
        assert_eq!(PruneKind::Dom.label(), "DOM");
        assert_eq!(PruneKind::Nogood.label(), "NOGOOD");
        let idx: Vec<usize> = PruneKind::ALL.iter().map(|k| k.index()).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn trajectory_merge_is_time_ordered() {
        let mut a = SearchStats::default();
        a.push_incumbent(Duration::from_millis(5), 10, 100.0);
        a.push_incumbent(Duration::from_millis(9), 30, 90.0);
        let mut b = SearchStats::default();
        b.push_incumbent(Duration::from_millis(7), 20, 95.0);
        a.merge(&b);
        let times: Vec<u64> = a
            .trajectory
            .iter()
            .map(|p| p.at.as_millis() as u64)
            .collect();
        assert_eq!(times, vec![5, 7, 9]);
    }
}

//! An exact decomposed solver for the LAAR optimization problem.
//!
//! This goes beyond the paper's FT-Search (§4.5) by exploiting a structural
//! property of the problem: the CPU constraints (eq. 11) are *local to one
//! input configuration*, and both the objective (eq. 13) and the pessimistic
//! FIC (eq. 6) are sums of independent per-configuration terms. The
//! activation choices made in one configuration therefore interact with the
//! other configurations only through two scalars — the configuration's FIC
//! contribution and its cost contribution.
//!
//! The solver:
//!
//! 1. computes, for every configuration `c`, the **Pareto frontier**
//!    `F_c = {(fic_c, cost_c)}` of CPU-feasible per-configuration
//!    assignments (depth-first enumeration over the per-PE domains
//!    `{Both, Only0, Only1}` with CPU pruning, DOM propagation, and
//!    dominance pruning against the frontier found so far);
//! 2. combines the frontiers across configurations (Minkowski sum +
//!    Pareto filtering) and picks the cheapest combination whose total FIC
//!    meets the SLA goal.
//!
//! The result is provably optimal (or provably infeasible). On instances
//! where the CPU constraints bite (tightly calibrated deployments, small to
//! medium PE counts) this is orders of magnitude faster than the monolithic
//! tree search, because each configuration's subtree is explored once
//! instead of once per assignment of the preceding configurations. Its weak
//! spot is the opposite regime: a configuration whose CPU constraints are
//! slack admits *every* assignment, so the per-configuration enumeration
//! degenerates to `3^|P|` with only dominance pruning and runs into its
//! time limit ([`Outcome::Timeout`]).

use super::prep::Prep;
use super::search::Val;
use super::{raw_to_solution_parts, Outcome, SearchReport, SearchStats};
use crate::error::CoreError;
use crate::problem::Problem;
use std::time::{Duration, Instant};

/// One Pareto point of a configuration: its FIC-rate and cost-rate
/// contributions plus a representative per-PE assignment achieving them.
#[derive(Debug, Clone)]
struct ParetoPoint {
    fic: f64,
    cost: f64,
    /// `Val as u8` per dense PE index.
    assign: Vec<u8>,
}

/// A frontier kept sorted by `fic` descending with `cost` ascending; all
/// points mutually non-dominated (higher fic costs more).
#[derive(Debug, Default)]
struct Frontier {
    points: Vec<ParetoPoint>,
}

impl Frontier {
    /// Is `(fic_ub, cost_lb)` (the best a branch could achieve) weakly
    /// dominated by an existing point? If so the branch cannot contribute.
    fn dominates(&self, fic_ub: f64, cost_lb: f64) -> bool {
        // Points are sorted by fic desc, hence cost desc (Pareto): the
        // cheapest point with fic >= fic_ub is the last of that prefix.
        match self.points.partition_point(|p| p.fic >= fic_ub) {
            0 => false,
            k => self.points[k - 1].cost <= cost_lb,
        }
    }

    /// Insert a realized point, dropping it if dominated and evicting any
    /// points it dominates.
    fn insert(&mut self, p: ParetoPoint) {
        const EPS: f64 = 1e-12;
        if self
            .points
            .iter()
            .any(|q| q.fic >= p.fic - EPS && q.cost <= p.cost + EPS)
        {
            return;
        }
        self.points
            .retain(|q| !(q.fic <= p.fic + EPS && q.cost >= p.cost - EPS));
        let idx = self.points.partition_point(|q| q.fic > p.fic);
        self.points.insert(idx, p);
    }
}

/// Per-configuration enumeration state.
struct ConfigSearch<'a> {
    prep: &'a Prep,
    cfg: usize,
    /// Exploration uses dense PE order (already topological).
    assign: Vec<u8>,
    host_load: Vec<f64>,
    dhat: Vec<f64>,
    fic: f64,
    cost: f64,
    /// Chain-aware FIC bound (the per-configuration mirror of the monolithic
    /// engine's): upper bounds on what each open PE can still receive /
    /// forward given the singles and capacity-removals committed so far.
    rcv_ub: Vec<f64>,
    dhat_ub: Vec<f64>,
    /// `Σ prob·rcv_ub` over open, non-removed PEs — `fic + ic_ub_rem` is a
    /// valid upper bound on any completion's FIC contribution.
    ic_ub_rem: f64,
    /// `Both` removed (capacity can no longer host it in this subtree).
    both_removed: Vec<bool>,
    /// Undo log of removals: `(pe, ic credit, dhat_ub frozen)`.
    trail: Vec<(u32, f64, f64)>,
    prop_stack: Vec<(u32, f64)>,
    /// Suffix sums over dense PE order for the cost lower bound.
    cost_suffix: Vec<f64>,
    /// Minimum useful fic (goal minus what other configs can contribute).
    fic_floor: f64,
    frontier: Frontier,
    deadline: Instant,
    timed_out: bool,
    nodes: u64,
}

impl<'a> ConfigSearch<'a> {
    fn new(prep: &'a Prep, cfg: usize, fic_floor: f64, deadline: Instant) -> Self {
        let np = prep.num_pes;
        let nq = prep.num_configs;
        let mut cost_suffix = vec![0.0; np + 1];
        for pe in (0..np).rev() {
            let v = prep.var_index[pe * nq + cfg];
            cost_suffix[pe] = cost_suffix[pe + 1] + prep.w_cost[v];
        }
        // All-`Both` optimistic receive/Δ̂ bounds (dense index == topo rank).
        let mut rcv_ub = vec![0.0; np];
        let mut dhat_ub = vec![0.0; np];
        let mut ic_ub_rem = 0.0;
        for pe in 0..np {
            let mut received = 0.0;
            let mut weighted = 0.0;
            for e in &prep.pe_in[pe] {
                let d = if e.from_source {
                    prep.source_rate[e.idx as usize * nq + cfg]
                } else {
                    dhat_ub[e.idx as usize]
                };
                received += d;
                weighted += e.sel * d;
            }
            rcv_ub[pe] = received;
            dhat_ub[pe] = weighted;
            ic_ub_rem += prep.prob[cfg] * received;
        }
        Self {
            prep,
            cfg,
            assign: vec![0; np],
            host_load: vec![0.0; prep.num_hosts],
            dhat: vec![0.0; np],
            fic: 0.0,
            cost: 0.0,
            rcv_ub,
            dhat_ub,
            ic_ub_rem,
            both_removed: vec![false; np],
            trail: Vec::new(),
            prop_stack: Vec::new(),
            cost_suffix,
            fic_floor,
            frontier: Frontier::default(),
            deadline,
            timed_out: false,
            nodes: 0,
        }
    }

    /// Propagate a change `delta` of `Δ̂_ub(pe)` to all descendants (see
    /// `Engine::propagate_dhat_ub`; additive, so `-delta` undoes exactly).
    fn propagate_dhat_ub(&mut self, pe: usize, delta: f64) {
        let prep = self.prep;
        let p_c = prep.prob[self.cfg];
        let mut stack = std::mem::take(&mut self.prop_stack);
        stack.clear();
        stack.push((pe as u32, delta));
        while let Some((u, d)) = stack.pop() {
            for &(s, sel) in &prep.pe_out[u as usize] {
                let s = s as usize;
                self.rcv_ub[s] += d;
                if !self.both_removed[s] {
                    self.ic_ub_rem += p_c * d;
                    let dd = sel * d;
                    if dd != 0.0 {
                        self.dhat_ub[s] += dd;
                        stack.push((s as u32, dd));
                    }
                }
            }
        }
        self.prop_stack = stack;
    }

    /// Remove `Both` from open PE `u`: its Δ̂ bound freezes to 0 (a single
    /// forwards nothing) and its residual IC credit leaves the pool.
    fn remove_both(&mut self, u: usize) {
        self.both_removed[u] = true;
        let credit = self.prep.prob[self.cfg] * self.rcv_ub[u];
        self.ic_ub_rem -= credit;
        let saved = self.dhat_ub[u];
        self.dhat_ub[u] = 0.0;
        if saved != 0.0 {
            self.propagate_dhat_ub(u, -saved);
        }
        self.trail.push((u as u32, credit, saved));
    }

    fn undo_trail(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (u, credit, saved) = self.trail.pop().unwrap();
            let u = u as usize;
            self.both_removed[u] = false;
            if saved != 0.0 {
                self.propagate_dhat_ub(u, saved);
            }
            self.dhat_ub[u] = saved;
            self.ic_ub_rem += credit;
        }
    }

    /// Capacity-based `Both` removal after `pe`'s loads landed: host loads
    /// only grow deeper in this subtree, so an open PE (they all come after
    /// `pe` in dense order) whose two replicas no longer fit loses `Both`
    /// for good.
    fn cap_scan(&mut self, pe: usize) {
        let prep = self.prep;
        let nq = prep.num_configs;
        for hi in 0..2 {
            let h = prep.host_of[pe][hi] as usize;
            if hi == 1 && h == prep.host_of[pe][0] as usize {
                break;
            }
            for &u in &prep.host_pes[h] {
                let u = u as usize;
                if u <= pe || self.both_removed[u] {
                    continue;
                }
                let load = prep.replica_load[u * nq + self.cfg];
                let h0 = prep.host_of[u][0] as usize;
                let h1 = prep.host_of[u][1] as usize;
                let infeasible = if h0 == h1 {
                    self.host_load[h0] + 2.0 * load >= prep.cap[h0]
                } else {
                    self.host_load[h0] + load >= prep.cap[h0]
                        || self.host_load[h1] + load >= prep.cap[h1]
                };
                if infeasible {
                    self.remove_both(u);
                }
            }
        }
    }

    /// The configuration's frontier (`None` on timeout) and the nodes the
    /// enumeration visited.
    fn run(mut self) -> (Option<Frontier>, u64) {
        self.search(0);
        ((!self.timed_out).then_some(self.frontier), self.nodes)
    }

    fn search(&mut self, pe: usize) {
        if self.timed_out {
            return;
        }
        let np = self.prep.num_pes;
        if pe == np {
            self.frontier.insert(ParetoPoint {
                fic: self.fic,
                cost: self.cost,
                assign: self.assign.clone(),
            });
            return;
        }
        self.nodes += 1;
        if self.nodes & 0x3FFF == 0 && Instant::now() >= self.deadline {
            self.timed_out = true;
            return;
        }

        // Branch bounds shared by all values of this PE.
        let fic_ub = self.fic + self.ic_ub_rem;
        if fic_ub < self.fic_floor {
            return;
        }
        let cost_lb = self.cost + self.cost_suffix[pe];
        if self.frontier.dominates(fic_ub, cost_lb) {
            return;
        }

        let nq = self.prep.num_configs;
        let load = self.prep.replica_load[pe * nq + self.cfg];
        let h0 = self.prep.host_of[pe][0] as usize;
        let h1 = self.prep.host_of[pe][1] as usize;

        // Δ̂ input of this PE given upstream assignments.
        let mut received = 0.0;
        let mut weighted = 0.0;
        for e in &self.prep.pe_in[pe] {
            let d = if e.from_source {
                self.prep.source_rate[e.idx as usize * nq + self.cfg]
            } else {
                self.dhat[e.idx as usize]
            };
            received += d;
            weighted += e.sel * d;
        }
        let v = self.prep.var_index[pe * nq + self.cfg];
        let contrib = self.prep.prob[self.cfg] * received;

        // `Both` is useful only when some input is alive (DOM condition)
        // and capacity has not already ruled it out (CAP).
        let values: &[Val] = if (weighted > 0.0 || received > 0.0) && !self.both_removed[pe] {
            &[Val::Only0, Val::Only1, Val::Both]
        } else {
            &[Val::Only0, Val::Only1]
        };
        for &val in values {
            let (adds, phi): (&[usize], f64) = match val {
                Val::Both => (&[0, 1], 1.0),
                Val::Only0 => (&[0], 0.0),
                Val::Only1 => (&[1], 0.0),
            };
            // Symmetric singles: when both replicas land identically (same
            // load on both hosts is impossible since hosts differ, but with
            // one host both singles are the same slot) skip the duplicate.
            if val == Val::Only1 && h0 == h1 {
                continue;
            }
            let mut ok = true;
            for &r in adds {
                let h = if r == 0 { h0 } else { h1 };
                self.host_load[h] += load;
                if self.host_load[h] >= self.prep.cap[h] {
                    ok = false;
                }
            }
            if ok {
                let mark = self.trail.len();
                self.cap_scan(pe);
                // This PE leaves the open pool: drop its own credit (unless
                // a removal already did) and, for singles, freeze its Δ̂.
                let own_credit = if self.both_removed[pe] {
                    0.0
                } else {
                    self.prep.prob[self.cfg] * self.rcv_ub[pe]
                };
                self.ic_ub_rem -= own_credit;
                let mut dhat_saved = 0.0;
                if val != Val::Both {
                    dhat_saved = self.dhat_ub[pe];
                    if dhat_saved != 0.0 {
                        self.dhat_ub[pe] = 0.0;
                        self.propagate_dhat_ub(pe, -dhat_saved);
                    }
                }
                self.assign[pe] = val as u8;
                self.dhat[pe] = phi * weighted;
                self.fic += phi * contrib;
                self.cost += adds.len() as f64 * self.prep.w_cost[v];
                self.search(pe + 1);
                self.fic -= phi * contrib;
                self.cost -= adds.len() as f64 * self.prep.w_cost[v];
                self.assign[pe] = 0;
                if dhat_saved != 0.0 {
                    self.propagate_dhat_ub(pe, dhat_saved);
                    self.dhat_ub[pe] = dhat_saved;
                }
                self.ic_ub_rem += own_credit;
                self.undo_trail(mark);
            }
            for &r in adds {
                let h = if r == 0 { h0 } else { h1 };
                self.host_load[h] -= load;
            }
            if self.timed_out {
                return;
            }
        }
    }
}

/// Solve the problem exactly by per-configuration decomposition.
///
/// Returns the same [`SearchReport`] shape as [`super::solve`]; the
/// `stats` only carry node counts (summed over the per-configuration
/// enumerations), timings and the root conflict (the pruning counters stay
/// zero — they belong to the monolithic FT-Search).
pub fn solve_decomposed(
    problem: &Problem,
    time_limit: Duration,
) -> Result<SearchReport, CoreError> {
    if problem.k() != 2 {
        return Err(CoreError::UnsupportedReplication { k: problem.k() });
    }
    let prep = Prep::build(problem);
    let start = Instant::now();
    if let Some(report) = super::root_verdict(&prep, start) {
        // A configuration that cannot host one PE has an empty frontier;
        // say so before enumerating the others.
        return Ok(report);
    }
    let deadline = super::deadline_after(start, time_limit);
    let nq = prep.num_configs;
    let mut nodes = 0u64;
    let report = |outcome: Outcome, nodes: u64| SearchReport {
        stats: SearchStats {
            nodes,
            proved: !matches!(outcome, Outcome::Timeout),
            elapsed: start.elapsed(),
            ..SearchStats::default()
        },
        outcome,
    };

    // Max FIC contribution of each configuration (all vars fully counted).
    let mut max_fic = vec![0.0f64; nq];
    for (v, var) in prep.vars.iter().enumerate() {
        max_fic[var.cfg.index()] += prep.w_ic[v];
    }

    let total_max: f64 = max_fic.iter().sum();

    // Per-configuration frontiers.
    let mut frontiers = Vec::with_capacity(nq);
    #[allow(clippy::needless_range_loop)] // c indexes two parallel tables
    for c in 0..nq {
        let floor = prep.goal_fic - (total_max - max_fic[c]);
        let (frontier, visited) = ConfigSearch::new(&prep, c, floor - 1e-9, deadline).run();
        nodes += visited;
        let Some(f) = frontier else {
            return Ok(report(Outcome::Timeout, nodes));
        };
        frontiers.push(f);
    }

    // Combine: running Pareto set over (fic, cost) with per-config choices.
    #[derive(Clone)]
    struct Combo {
        fic: f64,
        cost: f64,
        picks: Vec<usize>,
    }
    let mut combos = vec![Combo {
        fic: 0.0,
        cost: 0.0,
        picks: Vec::new(),
    }];
    for (c, frontier) in frontiers.iter().enumerate() {
        if frontier.points.is_empty() {
            // No CPU-feasible assignment in some configuration at all.
            return Ok(report(Outcome::Infeasible, nodes));
        }
        let remaining_max: f64 = max_fic[c + 1..].iter().sum();
        let mut next: Vec<Combo> = Vec::with_capacity(combos.len() * frontier.points.len());
        for combo in &combos {
            for (i, p) in frontier.points.iter().enumerate() {
                let fic = combo.fic + p.fic;
                if fic + remaining_max < prep.goal_fic - 1e-9 {
                    continue;
                }
                let mut picks = combo.picks.clone();
                picks.push(i);
                next.push(Combo {
                    fic,
                    cost: combo.cost + p.cost,
                    picks,
                });
            }
        }
        // Pareto-filter: sort by fic desc, keep strictly decreasing cost.
        next.sort_by(|a, b| {
            b.fic
                .partial_cmp(&a.fic)
                .unwrap()
                .then(a.cost.partial_cmp(&b.cost).unwrap())
        });
        let mut filtered: Vec<Combo> = Vec::new();
        let mut best_cost = f64::INFINITY;
        for combo in next {
            if combo.cost < best_cost - 1e-12 {
                best_cost = combo.cost;
                filtered.push(combo);
            }
        }
        combos = filtered;
    }

    // Cheapest combination meeting the goal. Because the filtered list is
    // sorted by fic desc with decreasing cost, the *last* entry with
    // fic >= goal is the cheapest feasible one.
    let winner = combos
        .iter()
        .filter(|c| c.fic >= prep.goal_fic * (1.0 - 1e-9) - 1e-12)
        .min_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap());

    let outcome = match winner {
        None => Outcome::Infeasible,
        Some(combo) => {
            // Reassemble the full assignment in Prep variable order.
            let mut full = vec![0u8; prep.num_vars];
            for (c, &pick) in combo.picks.iter().enumerate() {
                let point = &frontiers[c].points[pick];
                for pe in 0..prep.num_pes {
                    full[prep.var_index[pe * nq + c]] = point.assign[pe];
                }
            }
            Outcome::Optimal(raw_to_solution_parts(problem, &prep, &full))
        }
    };
    Ok(report(outcome, nodes))
}

/// A soft-constraint solution: the strategy minimizing
/// `cost(s) + λ · max(0, goal_FIC − FIC(s))` — the paper's second
/// future-work direction ("considering a penalty model associated to IC
/// violations and using IC constraints as minimization terms", §6).
#[derive(Debug, Clone)]
pub struct SoftSolution {
    /// The optimal strategy under the penalty objective.
    pub solution: super::Solution,
    /// The achieved FIC shortfall (tuples/s below the goal; 0 when the SLA
    /// is met outright).
    pub ic_shortfall_rate: f64,
    /// The penalized objective value (cost-rate units).
    pub objective_rate: f64,
}

/// Solve the *penalty-model* variant exactly: instead of treating eq. 10 as
/// a hard constraint, pay `penalty_rate` cost units per tuple/second of FIC
/// missing from the SLA goal. Always feasible (the CPU and eq. 12
/// constraints stay hard), so the provider can price SLA violations instead
/// of refusing contracts; with `penalty_rate` large enough it coincides
/// with the hard-constraint optimum.
///
/// Uses the same per-configuration Pareto decomposition as
/// [`solve_decomposed`] — and shares its scaling caveats.
///
/// # Errors
///
/// [`CoreError::InvalidPenaltyRate`] unless `penalty_rate` is finite and
/// non-negative; [`CoreError::UnsupportedReplication`] unless `k = 2`.
pub fn solve_soft(
    problem: &Problem,
    penalty_rate: f64,
    time_limit: Duration,
) -> Result<Option<SoftSolution>, CoreError> {
    if !(penalty_rate >= 0.0 && penalty_rate.is_finite()) {
        return Err(CoreError::InvalidPenaltyRate(penalty_rate));
    }
    if problem.k() != 2 {
        return Err(CoreError::UnsupportedReplication { k: problem.k() });
    }
    let prep = Prep::build(problem);
    if prep.root_conflict.is_some() {
        // The CPU constraint stays hard: no soft solution either, and no
        // point enumerating the configurations that do fit.
        return Ok(None);
    }
    let start = Instant::now();
    let deadline = super::deadline_after(start, time_limit);
    let nq = prep.num_configs;

    // Full frontiers (no goal clipping: every fic level may win).
    let mut frontiers = Vec::with_capacity(nq);
    for c in 0..nq {
        let (Some(f), _) = ConfigSearch::new(&prep, c, f64::NEG_INFINITY, deadline).run() else {
            return Ok(None); // timed out
        };
        frontiers.push(f);
    }
    if frontiers.iter().any(|f| f.points.is_empty()) {
        // Some configuration cannot fit on the cluster at all: the CPU
        // constraint is hard, so there is no soft solution either.
        return Ok(None);
    }

    // Enumerate combinations keeping the Pareto set of (fic, objective).
    #[derive(Clone)]
    struct Combo {
        fic: f64,
        cost: f64,
        picks: Vec<usize>,
    }
    let mut combos = vec![Combo {
        fic: 0.0,
        cost: 0.0,
        picks: Vec::new(),
    }];
    for frontier in &frontiers {
        let mut next = Vec::with_capacity(combos.len() * frontier.points.len());
        for combo in &combos {
            for (i, p) in frontier.points.iter().enumerate() {
                let mut picks = combo.picks.clone();
                picks.push(i);
                next.push(Combo {
                    fic: combo.fic + p.fic,
                    cost: combo.cost + p.cost,
                    picks,
                });
            }
        }
        next.sort_by(|a, b| {
            b.fic
                .partial_cmp(&a.fic)
                .unwrap()
                .then(a.cost.partial_cmp(&b.cost).unwrap())
        });
        let mut filtered: Vec<Combo> = Vec::new();
        let mut best_cost = f64::INFINITY;
        for c in next {
            if c.cost < best_cost - 1e-12 {
                best_cost = c.cost;
                filtered.push(c);
            }
        }
        combos = filtered;
    }

    // The penalized optimum lies on the Pareto frontier of (fic, cost).
    let winner = combos
        .iter()
        .min_by(|a, b| {
            let oa = a.cost + penalty_rate * (prep.goal_fic - a.fic).max(0.0);
            let ob = b.cost + penalty_rate * (prep.goal_fic - b.fic).max(0.0);
            oa.partial_cmp(&ob).unwrap()
        })
        .expect("combos non-empty");

    let mut full = vec![0u8; prep.num_vars];
    for (c, &pick) in winner.picks.iter().enumerate() {
        let point = &frontiers[c].points[pick];
        for pe in 0..prep.num_pes {
            full[prep.var_index[pe * nq + c]] = point.assign[pe];
        }
    }
    let solution = raw_to_solution_parts(problem, &prep, &full);
    let shortfall = (prep.goal_fic - winner.fic).max(0.0);
    Ok(Some(SoftSolution {
        objective_rate: winner.cost + penalty_rate * shortfall,
        ic_shortfall_rate: shortfall,
        solution,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftsearch::{solve, FtSearchConfig};
    use crate::testutil::{chain_problem, diamond_problem, fig2_problem};

    fn agree(problem: &Problem) {
        let mono = solve(
            problem,
            &FtSearchConfig::with_time_limit(Duration::from_secs(30)),
        )
        .unwrap();
        let deco = solve_decomposed(problem, Duration::from_secs(30)).unwrap();
        match (&mono.outcome, &deco.outcome) {
            (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                assert!(
                    (a.cost_cycles - b.cost_cycles).abs() < 1e-6 * a.cost_cycles.max(1.0),
                    "cost mismatch: mono {} vs deco {}",
                    a.cost_cycles,
                    b.cost_cycles
                );
            }
            (Outcome::Infeasible, Outcome::Infeasible) => {}
            (a, b) => panic!("outcome mismatch: {} vs {}", a.label(), b.label()),
        }
    }

    #[test]
    fn agrees_with_ftsearch_on_fig2() {
        for ic in [0.0, 0.4, 0.6, 2.0 / 3.0, 0.8, 0.95] {
            agree(&fig2_problem(ic));
        }
    }

    #[test]
    fn agrees_with_ftsearch_on_diamond() {
        for ic in [0.0, 0.3, 0.55, 0.7, 0.9] {
            agree(&diamond_problem(ic));
        }
    }

    #[test]
    fn agrees_with_ftsearch_on_chains() {
        for (n, h, ic) in [(8, 3, 0.5), (10, 4, 0.6), (12, 4, 0.4)] {
            agree(&chain_problem(n, h, ic));
        }
    }

    #[test]
    fn decomposed_solution_is_feasible() {
        let p = diamond_problem(0.6);
        let r = solve_decomposed(&p, Duration::from_secs(10)).unwrap();
        assert!(
            r.stats.nodes > 0,
            "per-configuration node counts are summed"
        );
        if let Some(sol) = r.outcome.solution() {
            assert!(p.is_feasible(&sol.strategy), "{:?}", p.check(&sol.strategy));
            assert!(sol.ic >= 0.6 - 1e-9);
        }
    }

    #[test]
    fn soft_solver_interpolates_between_extremes() {
        let p = fig2_problem(0.6);
        // λ = 0: the penalty is free, so the optimum is the cheapest valid
        // strategy (single replicas everywhere): cost-rate 960.
        let free = solve_soft(&p, 0.0, Duration::from_secs(10))
            .unwrap()
            .expect("solved");
        assert!((free.solution.cost_cycles / p.app.billing_period() - 960.0).abs() < 1e-6);
        assert!(free.ic_shortfall_rate > 0.0);

        // λ huge: the penalty dominates, matching the hard-constraint
        // optimum (cost-rate 1600, IC 2/3 >= 0.6).
        let strict = solve_soft(&p, 1e9, Duration::from_secs(10))
            .unwrap()
            .expect("solved");
        assert!(strict.ic_shortfall_rate < 1e-9);
        assert!((strict.solution.cost_cycles / p.app.billing_period() - 1600.0).abs() < 1e-6);
        let hard = solve_decomposed(&p, Duration::from_secs(10)).unwrap();
        let hard_cost = hard.outcome.solution().unwrap().cost_cycles;
        assert!((strict.solution.cost_cycles - hard_cost).abs() < 1e-6 * hard_cost);

        // Intermediate λ: objective between the extremes, monotone in λ.
        let mut last_obj = 0.0;
        for lambda in [0.0, 50.0, 200.0, 1e4] {
            let s = solve_soft(&p, lambda, Duration::from_secs(10))
                .unwrap()
                .expect("solved");
            assert!(
                s.objective_rate >= last_obj - 1e-9,
                "objective must grow with λ"
            );
            last_obj = s.objective_rate;
        }
    }

    #[test]
    fn soft_solver_rejects_bad_penalty_rates() {
        let p = fig2_problem(0.6);
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = solve_soft(&p, bad, Duration::from_secs(10)).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidPenaltyRate(_)),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn soft_solver_handles_unsatisfiable_goals_gracefully() {
        // IC 0.95 is infeasible on fig2 (hosts overload), but the soft
        // solver still returns the best trade-off instead of NUL.
        let p = fig2_problem(0.95);
        let hard = solve_decomposed(&p, Duration::from_secs(10)).unwrap();
        assert!(matches!(hard.outcome, Outcome::Infeasible));
        let soft = solve_soft(&p, 1e9, Duration::from_secs(10))
            .unwrap()
            .expect("soft always solves when the CPU constraints fit");
        assert!(soft.ic_shortfall_rate > 0.0);
        // With an overwhelming penalty it maximizes IC: 2/3 is the best
        // achievable on this deployment.
        assert!((soft.solution.ic - 2.0 / 3.0).abs() < 1e-6);
    }
}

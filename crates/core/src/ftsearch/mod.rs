//! FT-Search (§4.5): a constraint-programming-style branch-and-bound solver
//! for the LAAR replica-activation optimization problem (eqs. 9–12).
//!
//! FT-Search explores the tree of PE activation states per input
//! configuration (domain `{OnlyR0, OnlyR1, Both}`, i.e. `3^(|P|·|C|)` leaves
//! for two-fold replication) depth-first with backtracking, cutting branches
//! with four pruning strategies:
//!
//! 1. **CPU** — the partial assignment already overloads some host (eq. 11);
//! 2. **COMPL** — an upper bound on the achievable IC falls below the SLA
//!    goal (eq. 10);
//! 3. **COST** — a lower bound on the achievable cost is no better than the
//!    incumbent solution;
//! 4. **DOM** — forward domain propagation: when every predecessor of a PE
//!    is single-replicated in a configuration, full replication of that PE
//!    cannot improve IC, so `Both` is removed from its domain ("no
//!    replication forwarding").
//!
//! The search runs under a wall-clock limit (the paper used 10 minutes) and
//! classifies its result as the paper does in Fig. 4: `BST` (proved optimal),
//! `SOL` (feasible, possibly suboptimal), `NUL` (proved infeasible), or
//! `TMO` (timed out with nothing).
//!
//! The same engine also solves the paper's penalty model (§6: "a penalty
//! model associated to IC violations"): under [`Objective::Penalty`] the IC
//! goal becomes a priced term of the objective, `cost + λ·max(0, goal −
//! FIC)`, every CPU-feasible strategy is a solution, and COMPL's IC upper
//! bound turns into part of the objective's node bound. CPU stays hard, so
//! `NUL` then means that no strategy fits the cluster at all.
//!
//! [`solve`] is the solver, [`solve_with_warm_start`] the same with a
//! caller's incumbent. The [`SearchMode::Deterministic`] search is
//! sequential; with [`FtSearchConfig::threads`] above one, the
//! [`SearchMode::Portfolio`] search runs that many differently-seeded
//! CP-style workers over OS threads, sharing the incumbent bound and short
//! nogoods.

mod cp;
mod nogood;
mod prep;
mod search;
pub mod stats;

pub use stats::{PruneKind, RootConflict, SearchStats, NUM_PRUNE_KINDS};

use crate::error::CoreError;
use crate::ic::PessimisticFailure;
use crate::problem::Problem;
use laar_model::ActivationStrategy;
use parking_lot::Mutex;
use prep::Prep;
use search::{admit, Engine, RawSolution, Val};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The total order under which the portfolio merges its workers' solutions
/// (and a CP run its rounds'): exact objective (the cost under
/// [`Objective::Hard`]) first, then lexicographic assignment. The eps-band
/// used for *pruning* is deliberately absent here — an eps-tie comparison
/// is not transitive (costs `C`, `C+ε`, `C+2ε` form a cycle of "ties"),
/// which would make the winner of a merge depend on arrival order.
#[inline]
pub(crate) fn better_solution(a: &RawSolution, b: &RawSolution) -> bool {
    match a.objective.partial_cmp(&b.objective) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Greater) => false,
        _ => a.assign < b.assign,
    }
}

/// Which search engine drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// The paper-faithful branch-and-bound: a static fail-first order
    /// (configurations most resource hungry first, and inside one the ready
    /// PE whose downstream cone carries the most load first), no learning.
    /// Sequential whatever [`FtSearchConfig::threads`] says, so its
    /// incumbent, node and prune counts are reproducible.
    Deterministic,
    /// CP-style anytime search: nogood learning, activity-guided ordering,
    /// geometric restarts, and LNS around the incumbent, plus (under the
    /// hard objective) one node-budgeted run of the deterministic
    /// configuration from the first incumbent, to prove it. With one
    /// worker ([`FtSearchConfig::threads`] `= 1`, the default) it is
    /// deterministic under node budgets (everything is metered in nodes and
    /// the RNG is seeded). With more it runs a portfolio of
    /// differently-seeded workers sharing the incumbent bound and short
    /// nogoods, which is not bit-reproducible.
    Portfolio,
}

/// Tunables for the CP-style engine ([`SearchMode::Portfolio`]).
#[derive(Debug, Clone)]
pub struct CpConfig {
    /// Node budget of the first restart; later restarts grow geometrically.
    pub restart_base: u64,
    /// Geometric growth factor of the restart budget.
    pub restart_factor: f64,
    /// Upper clamp on the restart budget, so LNS keeps interleaving with
    /// tree restarts on huge instances. A restart proves optimality only by
    /// finishing its tree within this cap; the solve's one proof run from
    /// its first incumbent does not depend on it. Must be at least the
    /// first restart's budget (`restart_base`, at least 64 nodes).
    pub restart_cap: u64,
    /// Run LNS rounds around the incumbent between restarts.
    pub lns: bool,
    /// Node budget of one LNS re-solve.
    pub lns_node_budget: u64,
    /// LNS rounds between two consecutive restarts.
    pub lns_rounds_per_restart: u32,
    /// Fraction of the neighborhood (hosts or variables) relaxed per LNS
    /// round; the freeze mask fixes the rest to the incumbent.
    pub relax_frac: f64,
    /// Base RNG seed; portfolio workers derive per-worker seeds from it.
    pub seed: u64,
    /// Capacity of the nogood store; learning stops (new nogoods are
    /// dropped) once full.
    pub max_nogoods: usize,
}

impl Default for CpConfig {
    fn default() -> Self {
        Self {
            restart_base: 4096,
            restart_factor: 2.0,
            restart_cap: 1 << 26,
            lns: true,
            lns_node_budget: 16_384,
            lns_rounds_per_restart: 6,
            relax_frac: 0.3,
            seed: 0x1AA2_C0DE,
            max_nogoods: 65_536,
        }
    }
}

/// What FT-Search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Objective {
    /// The paper's problem (eqs. 9–12): minimize cost subject to the IC
    /// goal.
    #[default]
    Hard,
    /// The penalty model (§6): minimize `cost + λ·max(0, goal − FIC)`, in
    /// cost-rate units per tuple/s of FIC missing from the goal. CPU stays
    /// a hard constraint. With `λ` large enough the optimum is the hard
    /// one wherever that exists, and the strategy with the least IC
    /// shortfall elsewhere. `λ` must be finite and non-negative.
    Penalty(f64),
}

impl Objective {
    /// `λ` of the penalty objective; `None` for the hard one.
    pub(crate) fn lambda(self) -> Option<f64> {
        match self {
            Objective::Hard => None,
            Objective::Penalty(l) => Some(l),
        }
    }
}

/// Tunables for one FT-Search run.
#[derive(Debug, Clone)]
pub struct FtSearchConfig {
    /// Wall-clock limit; the paper used 10 minutes.
    pub time_limit: Duration,
    /// Enable pruning on the CPU constraint.
    pub prune_cpu: bool,
    /// Enable pruning on the IC upper bound (under the penalty objective
    /// that bound is part of COST's and this switch has no effect).
    pub prune_compl: bool,
    /// Enable pruning on the cost lower bound.
    pub prune_cost: bool,
    /// Enable forward domain propagation.
    pub prune_dom: bool,
    /// Seed the search with a greedy feasible incumbent before exploring
    /// (tightens COST pruning from the first node and guarantees a `SOL`
    /// outcome on timeout whenever the greedy strategy is feasible). The
    /// paper's FT-Search starts cold; disable for algorithm-faithful
    /// first-solution statistics (Fig. 5).
    pub seed_incumbent: bool,
    /// Optional deterministic node budget: the search stops (as a timeout)
    /// after visiting this many nodes. Unlike the wall-clock limit this is
    /// reproducible across machines and runs.
    pub node_limit: Option<u64>,
    /// Workers of a [`SearchMode::Portfolio`] search, one OS thread each
    /// (`0` = all available cores); `node_limit` is then a per-worker
    /// budget. The default, one, runs the CP search on the calling
    /// thread. The deterministic search ignores this.
    pub threads: usize,
    /// Search engine selection; see [`SearchMode`].
    pub mode: SearchMode,
    /// CP-engine tunables (used only when `mode` is
    /// [`SearchMode::Portfolio`]).
    pub cp: CpConfig,
    /// What the search minimizes; see [`Objective`].
    pub objective: Objective,
}

impl Default for FtSearchConfig {
    fn default() -> Self {
        Self {
            time_limit: Duration::from_secs(600),
            prune_cpu: true,
            prune_compl: true,
            prune_cost: true,
            prune_dom: true,
            seed_incumbent: true,
            node_limit: None,
            threads: 1,
            mode: SearchMode::Deterministic,
            cp: CpConfig::default(),
            objective: Objective::Hard,
        }
    }
}

impl FtSearchConfig {
    /// A configuration with the given time limit and all prunings enabled.
    pub fn with_time_limit(time_limit: Duration) -> Self {
        Self {
            time_limit,
            ..Self::default()
        }
    }
}

/// A strategy the search returned, with its objective values. Under
/// [`Objective::Hard`] it is feasible; under [`Objective::Penalty`] only
/// its CPU fit is guaranteed, and `ic` may fall short of the goal.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The activation strategy.
    pub strategy: ActivationStrategy,
    /// `cost(s)` per eq. 13, in CPU cycles over the billing period `T`.
    pub cost_cycles: f64,
    /// Guaranteed IC under the pessimistic failure model (eq. 14).
    pub ic: f64,
}

/// Result of an FT-Search run, classified as in Fig. 4 of the paper.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// `BST`: the search exhausted the tree; the solution is optimal.
    Optimal(Solution),
    /// `SOL`: the time limit expired; the solution is feasible but not
    /// proved optimal.
    Feasible(Solution),
    /// `NUL`: the search exhausted the tree without finding any feasible
    /// solution; the instance is proved infeasible.
    Infeasible,
    /// `TMO`: the time limit expired before any feasible solution was found.
    Timeout,
}

impl Outcome {
    /// The solution, if any.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            Outcome::Optimal(s) | Outcome::Feasible(s) => Some(s),
            _ => None,
        }
    }

    /// The paper's four-letter label for this outcome.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Optimal(_) => "BST",
            Outcome::Feasible(_) => "SOL",
            Outcome::Infeasible => "NUL",
            Outcome::Timeout => "TMO",
        }
    }
}

/// An FT-Search run's outcome together with its search statistics.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The classified outcome.
    pub outcome: Outcome,
    /// Collected statistics (node counts, prune accounting, timings).
    pub stats: SearchStats,
}

/// Shared incumbent for portfolio workers: the best objective seen (as `f64`
/// bits in an atomic) plus the corresponding raw solution.
pub(crate) struct SharedBest {
    objective_bits: AtomicU64,
    sol: Mutex<Option<RawSolution>>,
    cancelled: AtomicBool,
}

impl SharedBest {
    fn new() -> Self {
        Self {
            objective_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            sol: Mutex::new(None),
            cancelled: AtomicBool::new(false),
        }
    }

    #[inline]
    pub(crate) fn objective(&self) -> f64 {
        f64::from_bits(self.objective_bits.load(Ordering::Acquire))
    }

    #[inline]
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Ask all workers to stop (used by the portfolio once one worker has
    /// proved its run).
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Install `sol` if it wins the [`better_solution`] total order against
    /// the shared incumbent. `objective_bits` is maintained separately as a
    /// monotone bound (the lowest objective anyone has seen) — it only ever
    /// tightens pruning, never decides which solution is kept.
    pub(crate) fn offer(&self, sol: &RawSolution) {
        {
            let mut guard = self.sol.lock();
            let replace = match guard.as_ref() {
                Some(existing) => better_solution(sol, existing),
                None => true,
            };
            if replace {
                *guard = Some(sol.clone());
            }
        }
        let mut cur = self.objective_bits.load(Ordering::Acquire);
        while sol.objective < f64::from_bits(cur) {
            match self.objective_bits.compare_exchange_weak(
                cur,
                sol.objective.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// `start + time_limit`, saturated: a limit past what `Instant` can hold
/// (`Duration::MAX` as "no limit") is halved until it fits, which leaves a
/// deadline no run reaches instead of an overflow panic.
pub(crate) fn deadline_after(start: Instant, mut time_limit: Duration) -> Instant {
    loop {
        if let Some(deadline) = start.checked_add(time_limit) {
            return deadline;
        }
        time_limit /= 2;
    }
}

/// Build a greedy incumbent: all replicas active everywhere, then per
/// configuration deactivate replicas on overloaded hosts — most-downstream
/// PEs first, so upstream `Δ̂` chains survive and the IC damage stays small.
/// Returns `None` when it cannot unload some host or, under the hard
/// objective (`lambda` is `None`), when the result violates the IC goal.
fn greedy_seed(prep: &Prep, lambda: Option<f64>) -> Option<RawSolution> {
    // Two unloading heuristics; keep the better result.
    let a = greedy_seed_with(prep, lambda, SeedHeuristic::DownstreamFirst);
    let b = greedy_seed_with(prep, lambda, SeedHeuristic::CheapestIcPerLoad);
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.objective <= y.objective { x } else { y }),
        (x, y) => x.or(y),
    }
}

/// Candidate-selection rule used when the greedy seed unloads a host.
#[derive(Clone, Copy)]
enum SeedHeuristic {
    /// Deactivate the most-downstream fully replicated PE on the host
    /// (preserves upstream `Δ̂` chains).
    DownstreamFirst,
    /// Deactivate the PE with the smallest FIC contribution per unit of
    /// load relieved (directly IC-aware; better at strict IC goals).
    CheapestIcPerLoad,
}

fn greedy_seed_with(
    prep: &Prep,
    lambda: Option<f64>,
    heuristic: SeedHeuristic,
) -> Option<RawSolution> {
    let nq = prep.num_configs;
    let mut assign = vec![Val::Both as u8; prep.num_vars];
    for c in 0..nq {
        let mut load = vec![0.0f64; prep.num_hosts];
        for pe in 0..prep.num_pes {
            let l = prep.replica_load[pe * nq + c];
            load[prep.host_of[pe][0] as usize] += l;
            load[prep.host_of[pe][1] as usize] += l;
        }
        loop {
            let over = (0..prep.num_hosts)
                .filter(|&h| load[h] >= prep.cap[h])
                .max_by(|&a, &b| {
                    (load[a] / prep.cap[a])
                        .partial_cmp(&(load[b] / prep.cap[b]))
                        .unwrap()
                });
            let Some(h) = over else { break };
            // Fully replicated PEs with a replica on h.
            let mut cand: Option<(usize, usize, f64)> = None;
            for pe in 0..prep.num_pes {
                let v = prep.var_index[pe * nq + c];
                if assign[v] != Val::Both as u8 {
                    continue;
                }
                for r in 0..2usize {
                    if prep.host_of[pe][r] as usize != h {
                        continue;
                    }
                    let better = match heuristic {
                        // Highest dense index = most downstream.
                        SeedHeuristic::DownstreamFirst => cand.is_none_or(|(p, _, _)| pe > p),
                        SeedHeuristic::CheapestIcPerLoad => {
                            let l = prep.replica_load[pe * nq + c].max(1e-12);
                            let score = prep.w_ic[v] / l;
                            cand.is_none_or(|(_, _, s)| score < s)
                        }
                    };
                    if better {
                        let score = match heuristic {
                            SeedHeuristic::DownstreamFirst => 0.0,
                            SeedHeuristic::CheapestIcPerLoad => {
                                prep.w_ic[v] / prep.replica_load[pe * nq + c].max(1e-12)
                            }
                        };
                        cand = Some((pe, r, score));
                    }
                }
            }
            let (pe, r, _) = cand?;
            let v = prep.var_index[pe * nq + c];
            assign[v] = if r == 0 { Val::Only1 } else { Val::Only0 } as u8;
            load[h] -= prep.replica_load[pe * nq + c];
        }
    }
    admit(prep, lambda, assign)
}

/// Convert a complete raw assignment (in `Prep` variable order) into a
/// [`Solution`], recomputing objectives through the public evaluators so the
/// reported numbers agree with `Problem::check`.
fn raw_to_solution(problem: &Problem, prep: &Prep, raw: &RawSolution) -> Solution {
    let nq = prep.num_configs;
    let mut strategy = ActivationStrategy::all_inactive(prep.num_pes, nq, 2);
    for (v, var) in prep.vars.iter().enumerate() {
        let pe = var.pe as usize;
        let c = var.cfg;
        match raw.assign[v] {
            x if x == Val::Both as u8 => {
                strategy.set_active(pe, c, 0, true);
                strategy.set_active(pe, c, 1, true);
            }
            x if x == Val::Only0 as u8 => strategy.set_active(pe, c, 0, true),
            x if x == Val::Only1 as u8 => strategy.set_active(pe, c, 1, true),
            _ => unreachable!("complete assignment expected"),
        }
    }
    let ev = problem.ic_evaluator();
    debug_assert!(
        (raw.fic_rate * problem.app.billing_period() - ev.fic(&strategy, &PessimisticFailure))
            .abs()
            < 1e-6 * ev.bic().max(1.0)
    );
    let ic = ev.ic(&strategy, &PessimisticFailure);
    let cm = problem.cost_model();
    let cost_cycles = cm.cost_cycles(&strategy);
    Solution {
        strategy,
        cost_cycles,
        ic,
    }
}

fn classify(problem: &Problem, prep: &Prep, best: Option<RawSolution>, timed_out: bool) -> Outcome {
    match (best, timed_out) {
        (Some(raw), false) => Outcome::Optimal(raw_to_solution(problem, prep, &raw)),
        (Some(raw), true) => Outcome::Feasible(raw_to_solution(problem, prep, &raw)),
        (None, false) => Outcome::Infeasible,
        (None, true) => Outcome::Timeout,
    }
}

/// The verdict of the root presolve: `NUL` with zero nodes and the conflict
/// that proves it, when `Prep::build` found a PE whose single replica fits
/// on neither of its hosts in some configuration.
fn root_verdict(prep: &Prep, start: Instant) -> Option<SearchReport> {
    let conflict = prep.root_conflict?;
    Some(SearchReport {
        outcome: Outcome::Infeasible,
        stats: SearchStats {
            proved: true,
            elapsed: start.elapsed(),
            root_conflict: Some(conflict),
            ..SearchStats::default()
        },
    })
}

/// Convert a complete strategy into a raw incumbent, provided it is a
/// solution under the objective (eq. 12 shape, CPU fit, and the IC goal
/// under the hard objective).
fn strategy_to_raw(
    prep: &Prep,
    lambda: Option<f64>,
    strategy: &ActivationStrategy,
) -> Option<RawSolution> {
    if strategy.num_pes() != prep.num_pes
        || strategy.num_configs() != prep.num_configs
        || strategy.k() != 2
    {
        return None;
    }
    let mut assign = vec![0u8; prep.num_vars];
    for (v, var) in prep.vars.iter().enumerate() {
        let pe = var.pe as usize;
        let a0 = strategy.is_active(pe, var.cfg, 0);
        let a1 = strategy.is_active(pe, var.cfg, 1);
        assign[v] = match (a0, a1) {
            (true, true) => Val::Both,
            (true, false) => Val::Only0,
            (false, true) => Val::Only1,
            (false, false) => return None,
        } as u8;
    }
    admit(prep, lambda, assign)
}

/// The best incumbent under the objective among the greedy seed and a
/// caller-provided warm-start strategy.
fn best_seed(
    prep: &Prep,
    opts: &FtSearchConfig,
    warm_start: Option<&ActivationStrategy>,
) -> Option<RawSolution> {
    let lambda = opts.objective.lambda();
    let greedy = opts
        .seed_incumbent
        .then(|| greedy_seed(prep, lambda))
        .flatten();
    let warm = warm_start.and_then(|s| strategy_to_raw(prep, lambda, s));
    // A tie keeps the first: the greedy seed under the hard objective (the
    // order its pinned search trees were grown in), the caller's strategy
    // under the penalty one, so that a fallback re-plan does not trade the
    // installed strategy for an equally violating other.
    let (first, second) = if lambda.is_some() {
        (warm, greedy)
    } else {
        (greedy, warm)
    };
    match (first, second) {
        (Some(a), Some(b)) if b.objective < a.objective => Some(b),
        (a, b) => a.or(b),
    }
}

/// Check what every entry point checks before it builds anything.
fn check_problem(problem: &Problem, opts: &FtSearchConfig) -> Result<(), CoreError> {
    if problem.k() != 2 {
        return Err(CoreError::UnsupportedReplication { k: problem.k() });
    }
    if let Some(l) = opts.objective.lambda() {
        if !(l >= 0.0 && l.is_finite()) {
            return Err(CoreError::InvalidPenaltyRate(l));
        }
    }
    let first = opts.cp.restart_base.max(64);
    if opts.mode == SearchMode::Portfolio && opts.cp.restart_cap < first {
        return Err(CoreError::InvalidRestartCap {
            cap: opts.cp.restart_cap,
            first,
        });
    }
    Ok(())
}

/// Run FT-Search on a problem: sequentially, or as a portfolio of CP
/// workers when a [`SearchMode::Portfolio`] configuration asks for more
/// than one ([`FtSearchConfig::threads`]).
///
/// # Errors
///
/// Returns [`CoreError::UnsupportedReplication`] unless the placement uses
/// `k = 2` (the paper's FT-Search restriction),
/// [`CoreError::InvalidPenaltyRate`] unless a penalty objective's `λ` is
/// finite and non-negative, and [`CoreError::InvalidRestartCap`] when a
/// [`SearchMode::Portfolio`] run's `cp.restart_cap` is below its first
/// restart's budget (`cp.restart_base`, at least 64 nodes).
pub fn solve(problem: &Problem, opts: &FtSearchConfig) -> Result<SearchReport, CoreError> {
    solve_with_warm_start(problem, opts, None)
}

/// Run FT-Search with an optional warm-start strategy installed as the
/// initial incumbent (of every portfolio worker) when it is feasible for
/// this problem. Useful for cascades over decreasing IC requirements: a
/// solution guaranteeing IC 0.7 is feasible for the 0.6 and 0.5 problems,
/// so solving strictest-first and warm-starting the rest guarantees cost
/// monotonicity across the cascade even under tight time limits. Under
/// [`Objective::Penalty`] a warm start is accepted when it fits the
/// cluster.
///
/// # Errors
///
/// As [`solve`].
pub fn solve_with_warm_start(
    problem: &Problem,
    opts: &FtSearchConfig,
    warm_start: Option<&ActivationStrategy>,
) -> Result<SearchReport, CoreError> {
    check_problem(problem, opts)?;
    Ok(match opts.objective {
        Objective::Hard => solve_objective::<false>(problem, opts, warm_start),
        Objective::Penalty(_) => solve_objective::<true>(problem, opts, warm_start),
    })
}

/// [`solve_with_warm_start`] compiled for one objective.
fn solve_objective<const PENALTY: bool>(
    problem: &Problem,
    opts: &FtSearchConfig,
    warm_start: Option<&ActivationStrategy>,
) -> SearchReport {
    let prep = Prep::build(problem);
    let start = Instant::now();
    let deadline = deadline_after(start, opts.time_limit);
    if opts.prune_cpu {
        if let Some(report) = root_verdict(&prep, start) {
            return report;
        }
    }
    let seed = best_seed(&prep, opts, warm_start);
    let (best, stats) = if opts.mode == SearchMode::Portfolio && prep.num_vars > 0 {
        let threads = match opts.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        match threads {
            1 => cp::solve_cp::<PENALTY>(
                &prep,
                opts,
                start,
                deadline,
                None,
                None,
                &cp::CpWorkerParams::for_worker(&opts.cp, 0),
                seed,
            ),
            threads => solve_portfolio::<PENALTY>(&prep, opts, start, deadline, threads, seed),
        }
    } else {
        let order = search::fail_first_order(&prep);
        let mut engine = Engine::<PENALTY>::new(&prep, opts, start, deadline, None);
        engine.set_order(&order);
        if let Some(seed) = seed {
            engine.set_seed(seed);
        }
        let best = engine.run(0).0;
        (best, engine.stats)
    };
    SearchReport {
        outcome: classify(problem, &prep, best, !stats.proved),
        stats,
    }
}

/// Run a portfolio of `threads` CP workers with diversified seeds, restart
/// schedules and LNS neighborhood sizes, each from `warm`. Workers share the
/// incumbent cost bound (which tightens COST pruning everywhere) and
/// publish short learned nogoods into a pool that other workers import at
/// their restart boundaries. The first worker to prove its run (complete a
/// restart tree within budget) cancels the rest.
fn solve_portfolio<const PENALTY: bool>(
    prep: &Prep,
    opts: &FtSearchConfig,
    start: Instant,
    deadline: Instant,
    threads: usize,
    warm: Option<RawSolution>,
) -> (Option<RawSolution>, SearchStats) {
    let shared = SharedBest::new();
    let pool = cp::NogoodPool::default();
    let results: Vec<(Option<RawSolution>, SearchStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let (shared, pool, warm) = (&shared, &pool, warm.clone());
                s.spawn(move || {
                    let params = cp::CpWorkerParams::for_worker(&opts.cp, i);
                    let (best, stats) = cp::solve_cp::<PENALTY>(
                        prep,
                        opts,
                        start,
                        deadline,
                        Some(shared),
                        Some(pool),
                        &params,
                        warm,
                    );
                    if stats.proved {
                        shared.cancel();
                    }
                    (best, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("portfolio worker panicked"))
            .collect()
    });

    let mut stats = SearchStats::default();
    let mut best = shared.sol.into_inner();
    let mut proved = false;
    for (sol, st) in results {
        proved |= st.proved;
        stats.merge(&st);
        cp::keep_better(&mut best, sol);
    }
    stats.proved = proved;
    stats.elapsed = start.elapsed();
    (best, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic::PessimisticFailure;
    use crate::testutil::{chain_problem, diamond_problem, fig2_problem};
    use laar_model::{Application, ConfigId, ConfigSpace, GraphBuilder, Placement};

    #[test]
    fn fig2_outcome_is_optimal_and_feasible() {
        let p = fig2_problem(0.6);
        let report = solve(&p, &FtSearchConfig::default()).unwrap();
        let sol = match &report.outcome {
            Outcome::Optimal(s) => s,
            o => panic!("expected BST, got {}", o.label()),
        };
        assert!(p.is_feasible(&sol.strategy), "{:?}", p.check(&sol.strategy));
        assert!(sol.ic >= 0.6 - 1e-9);
        assert_eq!(report.outcome.label(), "BST");
    }

    #[test]
    fn infeasible_instance_is_nul() {
        let p = fig2_problem(0.95);
        let report = solve(&p, &FtSearchConfig::default()).unwrap();
        assert!(matches!(report.outcome, Outcome::Infeasible));
        assert_eq!(report.outcome.label(), "NUL");
        assert!(report.stats.proved);
    }

    #[test]
    fn matches_brute_force_on_diamond() {
        // Exhaustively enumerate all 3^(4*2) = 6561 strategies and compare.
        let p = diamond_problem(0.55);
        let report = solve(&p, &FtSearchConfig::default()).unwrap();
        let cm = p.cost_model();

        let mut best: Option<f64> = None;
        let np = 4;
        let nq = 2;
        let total = 3usize.pow((np * nq) as u32);
        for code in 0..total {
            let mut s = ActivationStrategy::all_inactive(np, nq, 2);
            let mut rem = code;
            for pe in 0..np {
                for c in 0..nq {
                    let v = rem % 3;
                    rem /= 3;
                    let cid = ConfigId(c as u32);
                    match v {
                        0 => {
                            s.set_active(pe, cid, 0, true);
                        }
                        1 => {
                            s.set_active(pe, cid, 1, true);
                        }
                        _ => {
                            s.set_active(pe, cid, 0, true);
                            s.set_active(pe, cid, 1, true);
                        }
                    }
                }
            }
            if p.is_feasible(&s) {
                let c = cm.cost_cycles(&s);
                best = Some(best.map_or(c, |b: f64| b.min(c)));
            }
        }

        match (&report.outcome, best) {
            (Outcome::Optimal(sol), Some(b)) => {
                assert!(
                    (sol.cost_cycles - b).abs() < 1e-6 * b.max(1.0),
                    "ftsearch {} vs brute force {}",
                    sol.cost_cycles,
                    b
                );
            }
            (Outcome::Infeasible, None) => {}
            (o, b) => panic!("mismatch: {} vs {:?}", o.label(), b),
        }
    }

    #[test]
    fn solution_respects_pessimistic_ic() {
        for ic_req in [0.0, 0.3, 0.5, 0.7] {
            let p = diamond_problem(ic_req);
            let report = solve(&p, &FtSearchConfig::default()).unwrap();
            if let Some(sol) = report.outcome.solution() {
                let ev = p.ic_evaluator();
                assert!(ev.ic(&sol.strategy, &PessimisticFailure) >= ic_req - 1e-9);
            }
        }
    }

    #[test]
    fn cost_is_monotone_in_ic_requirement() {
        let costs: Vec<f64> = [0.0, 0.4, 0.6]
            .iter()
            .map(|&ic| {
                let p = fig2_problem(ic);
                let report = solve(&p, &FtSearchConfig::default()).unwrap();
                report.outcome.solution().expect("feasible").cost_cycles
            })
            .collect();
        assert!(costs[0] <= costs[1] + 1e-9);
        assert!(costs[1] <= costs[2] + 1e-9);
    }

    #[test]
    fn timeout_yields_tmo_or_sol() {
        // A node budget, not a wall-clock one: the deadline is only polled
        // every 8 192 nodes, so a tiny time limit would test how many nodes
        // the proof needs rather than what a timeout returns.
        let p = chain_problem(24, 4, 0.5);
        let opts = FtSearchConfig {
            node_limit: Some(1),
            ..FtSearchConfig::default()
        };
        let report = solve(&p, &opts).unwrap();
        assert!(
            matches!(report.outcome, Outcome::Timeout | Outcome::Feasible(_)),
            "got {}",
            report.outcome.label()
        );
        assert!(!report.stats.proved);
    }

    #[test]
    fn unbounded_time_limit_means_no_limit() {
        // `start + Duration::MAX` overflowed `Instant` and panicked.
        let p = fig2_problem(0.6);
        let det = FtSearchConfig::with_time_limit(Duration::MAX);
        let cp = FtSearchConfig {
            mode: SearchMode::Portfolio,
            ..det.clone()
        };
        let portfolio = FtSearchConfig {
            threads: 2,
            ..cp.clone()
        };
        let reports = [
            ("solve", solve(&p, &det)),
            (
                "solve_with_warm_start",
                solve_with_warm_start(&p, &det, None),
            ),
            ("solve (cp)", solve(&p, &cp)),
            ("solve (portfolio)", solve(&p, &portfolio)),
            ("solve (penalty)", solve(&p, &penalty(1e9, &det))),
        ];
        for (what, report) in reports {
            let report = report.unwrap();
            assert_eq!(report.outcome.label(), "BST", "{what}");
            assert!(report.stats.proved, "{what}");
            assert!(
                report.outcome.solution().unwrap().ic >= 0.6 - 1e-9,
                "{what}"
            );
        }
    }

    /// `opts` under the penalty objective with rate `lambda`.
    fn penalty(lambda: f64, opts: &FtSearchConfig) -> FtSearchConfig {
        FtSearchConfig {
            objective: Objective::Penalty(lambda),
            ..opts.clone()
        }
    }

    /// The proved optimum under `lambda` on `p`: (cost rate, FIC rate short
    /// of the goal, objective).
    fn penalty_optimum(p: &Problem, lambda: f64) -> (f64, f64, f64) {
        let report = solve(p, &penalty(lambda, &FtSearchConfig::default())).unwrap();
        assert_eq!(report.outcome.label(), "BST", "λ = {lambda}");
        let sol = report.outcome.solution().unwrap();
        let rate = |cycles: f64| cycles / p.app.billing_period();
        let bic = rate(p.ic_evaluator().bic());
        let cost = rate(sol.cost_cycles);
        let shortfall = ((p.ic_requirement - sol.ic) * bic).max(0.0);
        (cost, shortfall, cost + lambda * shortfall)
    }

    #[test]
    fn penalty_sweeps_from_cheapest_to_the_hard_optimum() {
        let p = fig2_problem(0.6);
        // λ = 0: the shortfall is free, so the optimum is the cheapest
        // strategy that fits (single replicas everywhere): cost-rate 960.
        let (free, shortfall, _) = penalty_optimum(&p, 0.0);
        assert!((free - 960.0).abs() < 1e-6, "{free}");
        assert!(shortfall > 0.0);
        // λ huge: the penalty dominates and the hard optimum (cost-rate
        // 1600, IC 2/3 ≥ 0.6) wins.
        let (strict, shortfall, _) = penalty_optimum(&p, 1e9);
        assert!((strict - 1600.0).abs() < 1e-6, "{strict}");
        assert_eq!(shortfall, 0.0);
        // In between the objective grows with λ.
        let mut last = 0.0;
        for lambda in [0.0, 50.0, 200.0, 1e4] {
            let (_, _, objective) = penalty_optimum(&p, lambda);
            assert!(objective >= last - 1e-9, "λ = {lambda}");
            last = objective;
        }
    }

    #[test]
    fn penalty_answers_where_the_hard_goal_is_unreachable() {
        // IC 0.95 is NUL on fig2 (full replication at High overloads both
        // hosts); under a steep penalty the search maximizes IC instead,
        // and 2/3 is the most this deployment can guarantee.
        let p = fig2_problem(0.95);
        let hard = solve(&p, &FtSearchConfig::default()).unwrap();
        assert_eq!(hard.outcome.label(), "NUL");
        for opts in [
            FtSearchConfig::default(),
            FtSearchConfig {
                mode: SearchMode::Portfolio,
                ..FtSearchConfig::default()
            },
        ] {
            let report = solve(&p, &penalty(1e9, &opts)).unwrap();
            assert_eq!(report.outcome.label(), "BST", "{:?}", opts.mode);
            let sol = report.outcome.solution().unwrap();
            assert!(
                (sol.ic - 2.0 / 3.0).abs() < 1e-6,
                "{:?}: {}",
                opts.mode,
                sol.ic
            );
            assert!(p.check(&sol.strategy).len() == 1, "only the IC falls short");
        }
    }

    #[test]
    fn bad_penalty_rates_are_errors() {
        let p = fig2_problem(0.6);
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let opts = penalty(bad, &FtSearchConfig::default());
            let portfolio = FtSearchConfig {
                mode: SearchMode::Portfolio,
                threads: 2,
                ..opts.clone()
            };
            for err in [
                solve(&p, &opts).unwrap_err(),
                solve(&p, &portfolio).unwrap_err(),
            ] {
                assert!(
                    matches!(err, CoreError::InvalidPenaltyRate(_)),
                    "{bad}: {err}"
                );
            }
        }
    }

    #[test]
    fn restart_caps_below_the_first_restart_are_errors() {
        let p = fig2_problem(0.6);
        let cp = |restart_base, restart_cap| FtSearchConfig {
            mode: SearchMode::Portfolio,
            node_limit: Some(10_000),
            cp: CpConfig {
                restart_base,
                restart_cap,
                ..CpConfig::default()
            },
            ..FtSearchConfig::default()
        };
        for (base, cap, first) in [(4096, 1000, 4096), (4096, 4095, 4096), (1, 63, 64)] {
            let opts = cp(base, cap);
            let portfolio = FtSearchConfig {
                threads: 2,
                ..opts.clone()
            };
            for err in [
                solve(&p, &opts).unwrap_err(),
                solve(&p, &portfolio).unwrap_err(),
            ] {
                assert!(
                    matches!(err, CoreError::InvalidRestartCap { cap: c, first: f } if c == cap && f == first),
                    "{base}/{cap}: {err}"
                );
            }
        }
        // A cap equal to the first restart's budget is legal, and the
        // deterministic engine never reads it.
        assert!(solve(&p, &cp(4096, 4096)).is_ok());
        assert!(solve(&p, &cp(1, 64)).is_ok());
        let det = FtSearchConfig {
            mode: SearchMode::Deterministic,
            ..cp(4096, 1000)
        };
        assert!(solve(&p, &det).is_ok());
    }

    #[test]
    fn chain_instance_solves_quickly_with_pruning() {
        let p = chain_problem(16, 4, 0.5);
        let report = solve(
            &p,
            &FtSearchConfig::with_time_limit(Duration::from_secs(30)),
        )
        .unwrap();
        assert!(
            matches!(report.outcome, Outcome::Optimal(_) | Outcome::Infeasible),
            "expected proved outcome, got {}",
            report.outcome.label()
        );
    }

    #[test]
    fn disabling_prunings_preserves_optimum() {
        let p = diamond_problem(0.5);
        let full = solve(&p, &FtSearchConfig::default()).unwrap();
        for (cpu, compl, cost, dom) in [
            (false, true, true, true),
            (true, false, true, true),
            (true, true, false, true),
            (true, true, true, false),
            (false, false, false, false),
        ] {
            let opts = FtSearchConfig {
                prune_cpu: cpu,
                prune_compl: compl,
                prune_cost: cost,
                prune_dom: dom,
                ..FtSearchConfig::default()
            };
            let r = solve(&p, &opts).unwrap();
            match (&full.outcome, &r.outcome) {
                (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                    assert!(
                        (a.cost_cycles - b.cost_cycles).abs() < 1e-6 * a.cost_cycles.max(1.0),
                        "ablated search changed the optimum"
                    );
                }
                (Outcome::Infeasible, Outcome::Infeasible) => {}
                (a, b) => panic!("outcomes differ: {} vs {}", a.label(), b.label()),
            }
        }
    }

    #[test]
    fn app_without_pes_is_trivially_optimal() {
        // Nothing to decide: the empty strategy meets any IC goal for free.
        let mut b = GraphBuilder::new();
        let src = b.add_source("src");
        let sink = b.add_sink("sink");
        b.connect_sink(src, sink).unwrap();
        let g = b.build().unwrap();
        let cs = ConfigSpace::new(&g, vec![vec![4.0, 8.0]], vec![0.5, 0.5]).unwrap();
        let placement = Placement::new(&g, 2, Placement::uniform_hosts(2, 1000.0), vec![]).unwrap();
        let app = Application::new("empty", g, cs, 300.0).unwrap();
        let p = Problem::new(app, placement, 0.6).unwrap();
        let portfolio = FtSearchConfig {
            mode: SearchMode::Portfolio,
            threads: 2,
            ..FtSearchConfig::default()
        };
        for (what, report) in [
            ("solve", solve(&p, &FtSearchConfig::default())),
            ("solve (portfolio)", solve(&p, &portfolio)),
        ] {
            let report = report.unwrap();
            assert_eq!(report.outcome.label(), "BST", "{what}");
            assert_eq!(report.stats.nodes, 0, "{what}");
        }
    }
}

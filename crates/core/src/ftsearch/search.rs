//! The sequential FT-Search engine (§4.5): depth-first branch-and-bound with
//! the four pruning strategies (CPU, COMPL, COST, DOM), extensible with the
//! CP-style machinery (nogood store, activity-guided ordering, guided/dive
//! value policies, LNS variable freezing) used by `cp.rs`.
//!
//! The engine is compiled once per objective (`Engine<PENALTY>`): the hard
//! model's node loop carries no trace of the penalty one. Under the penalty
//! objective every CPU-feasible leaf is a solution, the IC upper bound feeds
//! the objective's node bound instead of cutting on its own, and the cover
//! bound prices the IC deficit at `λ` wherever buying it costs more.

use super::cp::Activity;
use super::nogood::{self, NogoodStore};
use super::prep::Prep;
use super::stats::{PruneKind, SearchStats};
use super::{FtSearchConfig, SharedBest};
use std::time::Instant;

/// Domain values of one variable. Encoded in `assign` as `val as u8`;
/// `0` means unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Val {
    /// Both replicas active (fully replicated, `φ = 1` under eq. 14).
    Both = 1,
    /// Only replica 0 active.
    Only0 = 2,
    /// Only replica 1 active.
    Only1 = 3,
}

impl Val {
    /// Whether replica 0 and replica 1 are active.
    #[inline]
    fn replicas(self) -> (bool, bool) {
        (self != Val::Only1, self != Val::Only0)
    }

    #[inline]
    fn is_both(self) -> bool {
        self == Val::Both
    }

    /// Decode the `assign`-array encoding (panics on 0 = unassigned).
    #[inline]
    pub(crate) fn from_u8(x: u8) -> Val {
        match x {
            1 => Val::Both,
            2 => Val::Only0,
            3 => Val::Only1,
            _ => unreachable!("unassigned value has no Val"),
        }
    }
}

/// Order in which values of a variable are tried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValuePolicy {
    /// Legacy order: cheaper single first, then the other single, then
    /// `Both`. First feasible solution is close to optimal in cost (Fig. 5a).
    CheapFirst,
    /// `Both` first (unless DOM removed it), then the singles — a FIC-greedy
    /// dive that reaches a high-IC (feasible) leaf quickly on large
    /// instances where no incumbent exists yet.
    BothFirst,
    /// The guide assignment's value first, then the legacy order — used to
    /// re-solve around an incumbent (LNS / warm restarts).
    Guided,
}

/// Relative slack used in floating-point bound comparisons. Running sums are
/// maintained incrementally (with exact recomputation at every incumbent), so
/// bounds can drift by a few ULPs; the slack keeps that drift from causing
/// incorrect prunes.
const BOUND_EPS: f64 = 1e-9;

/// How many nodes between deadline checks.
const TIMEOUT_CHECK_MASK: u64 = 0x1FFF;

/// A complete assignment together with its exact FIC rate and objective
/// value.
#[derive(Debug, Clone)]
pub(crate) struct RawSolution {
    /// One `Val as u8` per variable, in `Prep::vars` order.
    pub assign: Vec<u8>,
    /// Exact FIC rate under the pessimistic model (FIC without `T`).
    pub fic_rate: f64,
    /// What the search minimizes: the exact cost-rate (`Σ P_C·γ·Δ·s`, cost
    /// without the `T` factor) under the hard objective, plus
    /// `λ·max(0, goal − fic_rate)` under the penalty one.
    pub objective: f64,
}

/// `cost + λ·max(0, goal − fic)`: the penalty objective of an assignment.
#[inline]
pub(crate) fn penalized(prep: &Prep, lambda: f64, cost_rate: f64, fic_rate: f64) -> f64 {
    cost_rate + lambda * (prep.goal_fic - fic_rate).max(0.0)
}

/// The solution a complete assignment is, or `None` when it is not one: it
/// overloads a host, or, under the hard objective (`lambda` is `None`), it
/// misses the IC goal. Seeds and warm starts go through here.
pub(crate) fn admit(prep: &Prep, lambda: Option<f64>, assign: Vec<u8>) -> Option<RawSolution> {
    let (cost_rate, fic_rate, max_rel) = evaluate_assignment(prep, &assign);
    let objective = match lambda {
        None if fic_rate >= prep.goal_fic * (1.0 - BOUND_EPS) => cost_rate,
        None => return None,
        Some(l) => penalized(prep, l, cost_rate, fic_rate),
    };
    (max_rel < 1.0).then_some(RawSolution {
        assign,
        fic_rate,
        objective,
    })
}

/// The mutable search state of one worker; `PENALTY` selects the objective
/// (see the module doc).
pub(crate) struct Engine<'a, const PENALTY: bool> {
    prep: &'a Prep,
    opts: &'a FtSearchConfig,
    /// `λ` of the penalty objective (unused under the hard one).
    lambda: f64,
    deadline: Instant,
    start: Instant,
    shared: Option<&'a SharedBest>,

    assign: Vec<u8>,
    /// `host * num_configs + cfg` -> current load (cycles/s).
    host_load: Vec<f64>,
    /// `pe * num_configs + cfg` -> Δ̂ of assigned PEs (stale when unassigned).
    dhat: Vec<f64>,
    /// FIC-rate contribution recorded per variable (for undo).
    fic_contrib: Vec<f64>,
    fic: f64,
    cost: f64,
    /// Upper bound on the FIC-rate still obtainable from unassigned vars.
    /// Chain-aware: the credit of each open variable is
    /// `P_C(c) · rcv_ub[pe, c]`, not its static `w_ic` — a single upstream
    /// zeroes the achievable receive rate of its whole descendant chain.
    ic_ub_rem: f64,
    /// Per-configuration split of `fic` and `ic_ub_rem` (indexed by
    /// `ConfigId`): the refined COMPL bound caps each configuration's term
    /// at its capacity knapsack bound, `Σ_c min(fic_c + ub_c, kub_c)`.
    fic_by_cfg: Vec<f64>,
    ic_ub_by_cfg: Vec<f64>,
    /// Lower bound on the cost-rate still to be paid by unassigned vars.
    cost_lb_rem: f64,
    /// Upper bound on what `(pe, cfg)` can still receive given the singles
    /// and DOM removals committed so far (all-`Both` optimistic elsewhere).
    rcv_ub: Vec<f64>,
    /// Upper bound on `Δ̂(pe, cfg)` under the same assumption. Frozen to 0
    /// (and propagated downstream) when the variable goes single or loses
    /// `Both` to DOM.
    dhat_ub: Vec<f64>,
    /// `dhat_ub` value saved when a variable was assigned single (undo).
    dhat_ub_saved: Vec<f64>,
    /// Scratch stack for `propagate_dhat_ub` (avoids per-call allocation).
    prop_stack: Vec<(u32, f64)>,
    /// Scratch stack for `dom_walk`, same reason.
    dom_stack: Vec<u32>,
    /// DOM: `Both` removed from this variable's domain.
    both_removed: Vec<bool>,
    trail: Vec<DomUndo>,

    best: Option<RawSolution>,
    pub(crate) stats: SearchStats,
    timed_out: bool,
    /// The IC-deficit cover bound (under `prune_cost`) and CPU forward
    /// checking (under `prune_cpu`). Both are exact and both cost time at
    /// every node, which a proof earns back in nodes it never visits and a
    /// run metered by a fixed node budget does not — the CP driver turns
    /// them off.
    proof_bounds: bool,

    /// Exploration order (position -> variable); `None` = identity, the
    /// dense order of `Prep::vars`. Any permutation whose per-configuration
    /// restriction is topological is legal (incremental Δ̂ and DOM need
    /// predecessors assigned first).
    order: Option<&'a [u32]>,
    /// The inverse of `order` (variable -> position); empty for identity.
    position_of: Vec<u32>,

    // --- CP extensions (all default-off: the legacy DFS path is unchanged) ---
    /// LNS freeze mask: non-zero entries pin the variable to that value.
    fixed: Option<&'a [u8]>,
    /// Value to try first under `ValuePolicy::Guided`.
    guide: Option<&'a [u8]>,
    value_policy: ValuePolicy,
    /// Stop as soon as any solution is installed (first-incumbent dive).
    stop_on_solution: bool,
    /// The node count at which the run stops: the smaller of
    /// `opts.node_limit` (callers' global cap) and the per-run budget the CP
    /// driver meters restarts and LNS with.
    node_cap: u64,
    nogoods: Option<&'a mut NogoodStore>,
    /// Learn new nogoods at CPU/COMPL violations (store may also be consulted
    /// read-only with learning off).
    learn: bool,
    activity: Option<&'a mut Activity>,
    /// Assignment depth per variable (valid while assigned).
    depth_of: Vec<u32>,
    num_assigned: u32,
    /// Σ w_ic over assigned single-valued variables, and their count —
    /// the O(1) gate for COMPL reason extraction.
    singles_ic: f64,
    singles_cnt: u32,
    /// Assigned replicas contributing to each `(host, cfg)` slot — the O(1)
    /// gate for CPU reason extraction.
    slot_assigned: Vec<u16>,
}

/// One DOM removal on the trail: the exact IC credit subtracted and the
/// `dhat_ub` frozen at removal time, so undo restores bit-identical state.
#[derive(Debug, Clone, Copy)]
struct DomUndo {
    var: u32,
    credit: f64,
    dhat_saved: f64,
}

/// Skip CPU reason extraction when more than this many replicas sit on the
/// overloaded slot (the minimized reason would likely be long and weak).
const MAX_CPU_REASON: usize = 24;
/// Skip COMPL reason extraction beyond this many assigned singles.
const MAX_COMPL_SCAN: u32 = 64;

impl<'a, const PENALTY: bool> Engine<'a, PENALTY> {
    pub(crate) fn new(
        prep: &'a Prep,
        opts: &'a FtSearchConfig,
        start: Instant,
        deadline: Instant,
        shared: Option<&'a SharedBest>,
    ) -> Self {
        let nv = prep.num_vars;
        // Chain-aware bound init: with every variable still open, the best
        // case is all-`Both`, so receive/Δ̂ upper bounds flow unattenuated
        // through the DAG (dense PE index == topological rank).
        let nq = prep.num_configs;
        let mut rcv_ub = vec![0.0; prep.num_pes * nq];
        let mut dhat_ub = vec![0.0; prep.num_pes * nq];
        let mut ic_ub_rem = 0.0;
        let mut ic_ub_by_cfg = vec![0.0; nq];
        for c in 0..nq {
            for pe in 0..prep.num_pes {
                let mut received = 0.0;
                let mut weighted = 0.0;
                for e in &prep.pe_in[pe] {
                    let d = if e.from_source {
                        prep.source_rate[e.idx as usize * nq + c]
                    } else {
                        dhat_ub[e.idx as usize * nq + c]
                    };
                    received += d;
                    weighted += e.sel * d;
                }
                rcv_ub[pe * nq + c] = received;
                dhat_ub[pe * nq + c] = weighted;
                ic_ub_rem += prep.prob[c] * received;
                ic_ub_by_cfg[c] += prep.prob[c] * received;
            }
        }
        Self {
            prep,
            opts,
            lambda: opts.objective.lambda().unwrap_or(0.0),
            deadline,
            start,
            shared,
            assign: vec![0; nv],
            host_load: vec![0.0; prep.num_hosts * prep.num_configs],
            dhat: vec![0.0; prep.num_pes * prep.num_configs],
            fic_contrib: vec![0.0; nv],
            fic: 0.0,
            cost: 0.0,
            ic_ub_rem,
            fic_by_cfg: vec![0.0; nq],
            ic_ub_by_cfg,
            cost_lb_rem: prep.total_w_cost,
            rcv_ub,
            dhat_ub,
            dhat_ub_saved: vec![0.0; nv],
            prop_stack: Vec::new(),
            dom_stack: Vec::new(),
            both_removed: vec![false; nv],
            trail: Vec::with_capacity(nv),
            best: None,
            stats: SearchStats::default(),
            timed_out: false,
            proof_bounds: true,
            order: None,
            position_of: Vec::new(),
            fixed: None,
            guide: None,
            value_policy: ValuePolicy::CheapFirst,
            stop_on_solution: false,
            node_cap: opts.node_limit.unwrap_or(u64::MAX),
            nogoods: None,
            learn: false,
            activity: None,
            depth_of: vec![0; nv],
            num_assigned: 0,
            singles_ic: 0.0,
            singles_cnt: 0,
            slot_assigned: vec![0; prep.num_hosts * prep.num_configs],
        }
    }

    /// Set the exploration order (must be topological per configuration).
    pub(crate) fn set_order(&mut self, order: &'a [u32]) {
        debug_assert_eq!(order.len(), self.prep.num_vars);
        self.order = Some(order);
        self.position_of = vec![0; order.len()];
        for (pos, &v) in order.iter().enumerate() {
            self.position_of[v as usize] = pos as u32;
        }
    }

    /// The variable decided at search position `pos`.
    #[inline]
    fn var_at(&self, pos: usize) -> usize {
        match self.order {
            Some(o) => o[pos] as usize,
            None => pos,
        }
    }

    /// The search position of variable `v`.
    #[inline]
    fn position(&self, v: usize) -> usize {
        if self.position_of.is_empty() {
            v
        } else {
            self.position_of[v] as usize
        }
    }

    /// Freeze variables with non-zero entries to the given values (LNS).
    pub(crate) fn set_fixed(&mut self, fixed: &'a [u8]) {
        self.fixed = Some(fixed);
    }

    /// Guide assignment for `ValuePolicy::Guided`.
    pub(crate) fn set_guide(&mut self, guide: &'a [u8]) {
        self.guide = Some(guide);
    }

    pub(crate) fn set_value_policy(&mut self, policy: ValuePolicy) {
        self.value_policy = policy;
    }

    /// Attach a nogood store; `learn` additionally records new nogoods at
    /// CPU/COMPL violations.
    pub(crate) fn set_nogoods(&mut self, store: &'a mut NogoodStore, learn: bool) {
        self.nogoods = Some(store);
        self.learn = learn;
    }

    pub(crate) fn set_activity(&mut self, act: &'a mut Activity) {
        self.activity = Some(act);
    }

    /// Switch the cover bound and CPU forward checking (see the field).
    pub(crate) fn set_proof_bounds(&mut self, on: bool) {
        self.proof_bounds = on;
    }

    pub(crate) fn set_stop_on_solution(&mut self, stop: bool) {
        self.stop_on_solution = stop;
    }

    pub(crate) fn set_node_budget(&mut self, nodes: u64) {
        self.node_cap = self.node_cap.min(nodes);
    }

    /// Install a known-feasible solution as the incumbent (greedy seeding).
    /// Does not touch first/best statistics: those track solutions found by
    /// the search itself (Fig. 5 semantics).
    pub(crate) fn set_seed(&mut self, sol: RawSolution) {
        if let Some(sh) = self.shared {
            sh.offer(&sol);
        }
        self.best = Some(sol);
    }

    /// Run the search from variable `from` to completion or timeout.
    pub(crate) fn run(&mut self, from: usize) -> (Option<RawSolution>, bool) {
        self.search(from);
        self.stats.proved = !self.timed_out;
        self.stats.elapsed = self.start.elapsed();
        (self.best.take(), self.timed_out)
    }

    #[inline]
    fn goal_lo(&self) -> f64 {
        self.prep.goal_fic * (1.0 - BOUND_EPS) - 1e-12
    }

    /// COMPL violation test: the cheap global chain bound first, then the
    /// refined per-configuration form capping each term at its capacity
    /// knapsack bound (`Σ_c min(fic_c + ub_c, kub_c)` — both are valid
    /// upper bounds on the configuration's final contribution, so their
    /// minimum is too).
    #[inline]
    fn compl_violated(&self) -> bool {
        // `x - 0.0 == x` bit for bit: the bounds as they stand.
        self.compl_violated_less(0, 0.0)
    }

    /// [`Self::compl_violated`] on the bounds less `credit` in configuration
    /// `c`, the order of operations `try_assign` uses to subtract it.
    #[inline]
    fn compl_violated_less(&self, c: usize, credit: f64) -> bool {
        let lo = self.goal_lo();
        self.fic + (self.ic_ub_rem - credit) < lo || self.capped_ub_less(c, credit) < lo
    }

    /// The refined COMPL bound `Σ_k min(fic_k + ub_k, kub_k)`, less `credit`
    /// in configuration `c`.
    #[inline]
    fn capped_ub_less(&self, c: usize, credit: f64) -> f64 {
        let mut bound = 0.0;
        for k in 0..self.prep.num_configs {
            let ub = if k == c {
                self.ic_ub_by_cfg[k] - credit
            } else {
                self.ic_ub_by_cfg[k]
            };
            bound += (self.fic_by_cfg[k] + ub).min(self.prep.kub[k]);
        }
        bound
    }

    /// The penalty objective's node bound on top of `cost + cost_lb_rem`:
    /// `λ·max(0, goal − fic_ub)`, with `fic_ub` the smaller of COMPL's two
    /// upper bounds on the FIC any completion reaches.
    #[inline]
    fn penalty_lb(&self) -> f64 {
        let fic_ub = (self.fic + self.ic_ub_rem).min(self.capped_ub_less(0, 0.0));
        self.lambda * (self.goal_lo() - fic_ub).max(0.0)
    }

    /// COMPL for the single `val` of variable `v` on the state `try_assign`
    /// would leave before its chain loss, without assigning. A single adds
    /// exactly `+0.0` to `fic`, the chain loss only adds non-positive
    /// deltas to `ic_ub_rem` and `ic_ub_by_cfg`, and rounded addition is
    /// monotone, so the full check after `try_assign` would cut the same
    /// node. A value that overloads its host is left to `try_assign`: CPU
    /// keeps its precedence and its prune kind.
    #[inline]
    fn single_refuted(&self, v: usize, val: Val) -> bool {
        let prep = self.prep;
        let var = prep.vars[v];
        let pe = var.pe as usize;
        let c = var.cfg.index();
        let nq = prep.num_configs;
        let h = prep.host_of[pe][usize::from(val == Val::Only1)] as usize;
        if self.host_load[h * nq + c] + prep.replica_load[pe * nq + c] >= prep.cap[h] {
            return false;
        }
        let credit = if self.both_removed[v] {
            0.0
        } else {
            prep.prob[c] * self.rcv_ub[pe * nq + c]
        };
        self.compl_violated_less(c, credit)
    }

    /// The objective of the best known solution, local or shared.
    #[inline]
    fn incumbent_objective(&self) -> Option<f64> {
        let local = self.best.as_ref().map(|b| b.objective);
        let shared = self.shared.map(|s| s.objective());
        match (local, shared) {
            (Some(l), Some(s)) => Some(l.min(s)),
            (Some(l), None) => Some(l),
            (None, Some(s)) if s.is_finite() => Some(s),
            _ => None,
        }
    }

    fn check_deadline(&mut self) {
        if self.stats.nodes >= self.node_cap
            || (self.stats.nodes & TIMEOUT_CHECK_MASK == 0 && Instant::now() >= self.deadline)
            || self.shared.is_some_and(|s| s.is_cancelled())
        {
            self.timed_out = true;
        }
    }

    fn search(&mut self, pos: usize) {
        if self.timed_out {
            return;
        }
        if pos == self.prep.num_vars {
            self.record_leaf();
            return;
        }
        let v = self.var_at(pos);
        // Refute singles before assigning them where nothing but the cut
        // itself observes a COMPL prune: no nogood to learn, no activity to
        // bump (the deterministic engine).
        let refute_first =
            !PENALTY && self.opts.prune_compl && self.nogoods.is_none() && self.activity.is_none();
        for val in self.value_order(v) {
            self.stats.nodes += 1;
            self.check_deadline();
            if self.timed_out {
                return;
            }
            let height = (self.prep.num_vars - pos) as u64;
            if refute_first && !val.is_both() && self.single_refuted(v, val) {
                self.stats.record_prune(PruneKind::Compl, height);
                continue;
            }
            // Nogood store: would this value complete a refuted prefix?
            if let Some(ng) = &self.nogoods {
                if ng.is_forbidden(v as u32, val) {
                    self.stats.record_prune(PruneKind::Nogood, height);
                    self.bump_conflict(&[v as u32]);
                    continue;
                }
            }
            if !self.try_assign(v, val, height) {
                continue; // CPU-pruned (recorded inside)
            }
            let ng_mark = self.nogoods.as_ref().map(|ng| ng.mark());
            if self.ng_on_assign(v, val) {
                // The assignment completed a nogood the pre-check could not
                // see yet (watches were not unit before this literal).
                self.stats.record_prune(PruneKind::Nogood, height);
                self.bump_conflict(&[v as u32]);
                self.ng_undo(ng_mark);
                self.unassign(v, val);
                continue;
            }

            // Pruning on IC upper bound (COMPL).
            if !PENALTY && self.opts.prune_compl && self.compl_violated() {
                self.stats.record_prune(PruneKind::Compl, height);
                self.learn_compl(v);
                self.ng_undo(ng_mark);
                self.unassign(v, val);
                continue;
            }
            // Pruning on the objective's lower bound (COST). COST cuts are
            // incumbent-dependent and must never become nogoods.
            if self.opts.prune_cost && self.cost_cut(false) {
                self.stats.record_prune(PruneKind::Cost, height);
                self.ng_undo(ng_mark);
                self.unassign(v, val);
                continue;
            }

            let mark = self.trail.len();
            if self.opts.prune_cpu && !self.propagate_cap(v) {
                // Forward checking: some open variable has no value left.
                self.stats.record_prune(PruneKind::Cpu, height);
                self.undo_dom(mark);
                self.ng_undo(ng_mark);
                self.unassign(v, val);
                continue;
            }
            if !val.is_both() && self.opts.prune_dom {
                self.propagate_dom(v);
            }
            // Re-check COMPL: CAP/DOM propagation may have collapsed enough
            // chain credit to refute the subtree before descending.
            if !PENALTY && self.opts.prune_compl && self.compl_violated() {
                self.stats.record_prune(PruneKind::Compl, height);
                self.learn_compl(v);
                self.undo_dom(mark);
                self.ng_undo(ng_mark);
                self.unassign(v, val);
                continue;
            }
            // Under the penalty objective the same collapse raises the
            // objective's bound instead.
            if PENALTY && self.opts.prune_cost && self.cost_cut(true) {
                self.stats.record_prune(PruneKind::Cost, height);
                self.undo_dom(mark);
                self.ng_undo(ng_mark);
                self.unassign(v, val);
                continue;
            }
            self.search(pos + 1);
            self.undo_dom(mark);
            self.ng_undo(ng_mark);
            self.unassign(v, val);
            if self.timed_out {
                return;
            }
        }
    }

    /// COST: can no completion of this node beat the incumbent by more than
    /// the eps-band, `lb ≥ best·(1−ε)`? The cover term is only computed
    /// where the plain bound fails, and not at all under `plain_only`.
    /// Under the penalty objective the plain bound adds the IC shortfall
    /// priced at λ ([`Self::penalty_lb`]).
    #[inline]
    fn cost_cut(&self, plain_only: bool) -> bool {
        let Some(best) = self.incumbent_objective() else {
            return false;
        };
        let cut = |lb: f64| lb >= best * (1.0 - BOUND_EPS);
        let lb = self.cost + self.cost_lb_rem;
        let plain = if PENALTY { lb + self.penalty_lb() } else { lb };
        cut(plain) || (!plain_only && self.proof_bounds && cut(lb + self.deficit_cover()))
    }

    /// Forward `on_assign` to the attached nogood store (no-op without one).
    #[inline]
    fn ng_on_assign(&mut self, v: usize, val: Val) -> bool {
        match self.nogoods.as_deref_mut() {
            Some(ng) => ng.on_assign(v as u32, val, &self.assign),
            None => false,
        }
    }

    #[inline]
    fn ng_undo(&mut self, mark: Option<usize>) {
        if let (Some(ng), Some(m)) = (self.nogoods.as_deref_mut(), mark) {
            ng.undo_to(m);
        }
    }

    /// Bump activity of the variables blamed for a conflict and decay.
    #[inline]
    fn bump_conflict(&mut self, vars: &[u32]) {
        if let Some(act) = self.activity.as_deref_mut() {
            for &v in vars {
                act.bump(v as usize);
            }
            act.decay();
        }
    }

    /// Value order for variable `v` under the active policy (see
    /// [`ValuePolicy`]); a non-zero `fixed` entry pins the variable instead.
    fn value_order(&self, v: usize) -> impl Iterator<Item = Val> + 'static {
        self.value_slots(v).into_iter().flatten()
    }

    fn value_slots(&self, v: usize) -> [Option<Val>; 3] {
        let include_both = !self.both_removed[v];
        if let Some(f) = self.fixed {
            if f[v] != 0 {
                let val = Val::from_u8(f[v]);
                if val.is_both() && !include_both {
                    return [None; 3]; // DOM killed the pinned value
                }
                return [Some(val), None, None];
            }
        }
        // Cheaper single first: the one whose host currently has the lower
        // load in this configuration. Trying cheap values first makes the
        // first feasible solution close to optimal in cost (Fig. 5a).
        let var = self.prep.vars[v];
        let pe = var.pe as usize;
        let c = var.cfg.index();
        let nq = self.prep.num_configs;
        let h0 = self.prep.host_of[pe][0] as usize;
        let h1 = self.prep.host_of[pe][1] as usize;
        let l0 = self.host_load[h0 * nq + c];
        let l1 = self.host_load[h1 * nq + c];
        let (cheap, other) = if l0 <= l1 {
            (Val::Only0, Val::Only1)
        } else {
            (Val::Only1, Val::Only0)
        };
        match self.value_policy {
            ValuePolicy::CheapFirst => {
                [Some(cheap), Some(other), include_both.then_some(Val::Both)]
            }
            ValuePolicy::BothFirst => {
                if include_both {
                    [Some(Val::Both), Some(cheap), Some(other)]
                } else {
                    [Some(cheap), Some(other), None]
                }
            }
            ValuePolicy::Guided => {
                let g = self.guide.map_or(0, |g| g[v]);
                if g == 0 || (g == Val::Both as u8 && !include_both) {
                    return [Some(cheap), Some(other), include_both.then_some(Val::Both)];
                }
                let gval = Val::from_u8(g);
                let mut out = [Some(gval), None, None];
                let mut k = 1;
                for cand in [cheap, other] {
                    if cand != gval {
                        out[k] = Some(cand);
                        k += 1;
                    }
                }
                if include_both && gval != Val::Both {
                    out[k] = Some(Val::Both);
                }
                out
            }
        }
    }

    /// Assign `val` to variable `v`, updating loads, Δ̂, FIC, cost, and
    /// bounds. Returns `false` (state rolled back, prune recorded) if a host
    /// CPU constraint is violated and CPU pruning is enabled. When CPU
    /// pruning is disabled the overload is tolerated here and caught at the
    /// leaf.
    fn try_assign(&mut self, v: usize, val: Val, height: u64) -> bool {
        let var = self.prep.vars[v];
        let pe = var.pe as usize;
        let c = var.cfg.index();
        let nq = self.prep.num_configs;
        let load = self.prep.replica_load[pe * nq + c];
        let (on0, on1) = val.replicas();
        let h0 = self.prep.host_of[pe][0] as usize;
        let h1 = self.prep.host_of[pe][1] as usize;

        // CPU loads; the first overloaded host is the one CPU learning blames.
        let mut over_host: Option<usize> = None;
        if on0 {
            self.host_load[h0 * nq + c] += load;
            if self.host_load[h0 * nq + c] >= self.prep.cap[h0] {
                over_host = Some(h0);
            }
        }
        if on1 {
            self.host_load[h1 * nq + c] += load;
            if self.host_load[h1 * nq + c] >= self.prep.cap[h1] && over_host.is_none() {
                over_host = Some(h1);
            }
        }
        if let Some(h) = over_host {
            if self.opts.prune_cpu {
                if on0 {
                    self.host_load[h0 * nq + c] -= load;
                }
                if on1 {
                    self.host_load[h1 * nq + c] -= load;
                }
                self.stats.record_prune(PruneKind::Cpu, height);
                self.learn_cpu(v, val, h);
                return false;
            }
        }
        if on0 {
            self.slot_assigned[h0 * nq + c] += 1;
        }
        if on1 {
            self.slot_assigned[h1 * nq + c] += 1;
        }

        // Δ̂ and FIC (eqs. 6–7): predecessors in this configuration are
        // already assigned (topological order within a configuration).
        let mut received = 0.0;
        let mut weighted = 0.0;
        for e in &self.prep.pe_in[pe] {
            let d = if e.from_source {
                self.prep.source_rate[e.idx as usize * nq + c]
            } else {
                self.dhat[e.idx as usize * nq + c]
            };
            received += d;
            weighted += e.sel * d;
        }
        let phi = if val.is_both() { 1.0 } else { 0.0 };
        self.dhat[pe * nq + c] = phi * weighted;
        let contrib = self.prep.prob[c] * phi * received;
        self.fic_contrib[v] = contrib;
        self.fic += contrib;
        self.fic_by_cfg[c] += contrib;

        // Cost and bounds.
        let mult = if val.is_both() { 2.0 } else { 1.0 };
        self.cost += mult * self.prep.w_cost[v];
        self.cost_lb_rem -= self.prep.w_cost[v];
        if !self.both_removed[v] {
            // If DOM removed Both earlier, the credit was already subtracted
            // (and `dhat_ub` frozen) at removal time.
            let credit = self.prep.prob[c] * self.rcv_ub[pe * nq + c];
            self.ic_ub_rem -= credit;
            self.ic_ub_by_cfg[c] -= credit;
        }
        if !val.is_both() {
            // A single contributes nothing and zeroes Δ̂: freeze this slot's
            // Δ̂ upper bound and shrink every descendant's receive credit.
            let saved = self.dhat_ub[pe * nq + c];
            self.dhat_ub_saved[v] = saved;
            if saved != 0.0 {
                self.dhat_ub[pe * nq + c] = 0.0;
                self.propagate_dhat_ub(pe, c, -saved);
            }
            self.singles_ic += self.prep.w_ic[v];
            self.singles_cnt += 1;
        }

        self.depth_of[v] = self.num_assigned;
        self.num_assigned += 1;
        self.assign[v] = val as u8;
        true
    }

    fn unassign(&mut self, v: usize, val: Val) {
        let var = self.prep.vars[v];
        let pe = var.pe as usize;
        let c = var.cfg.index();
        let nq = self.prep.num_configs;
        let load = self.prep.replica_load[pe * nq + c];
        let (on0, on1) = val.replicas();
        if on0 {
            let slot = self.prep.host_of[pe][0] as usize * nq + c;
            self.host_load[slot] -= load;
            self.slot_assigned[slot] -= 1;
        }
        if on1 {
            let slot = self.prep.host_of[pe][1] as usize * nq + c;
            self.host_load[slot] -= load;
            self.slot_assigned[slot] -= 1;
        }
        self.fic -= self.fic_contrib[v];
        self.fic_by_cfg[c] -= self.fic_contrib[v];
        self.fic_contrib[v] = 0.0;
        let mult = if val.is_both() { 2.0 } else { 1.0 };
        self.cost -= mult * self.prep.w_cost[v];
        self.cost_lb_rem += self.prep.w_cost[v];
        if !val.is_both() {
            // Reverse the Δ̂ freeze. Linearity of the additive propagation
            // plus LIFO discipline makes the restore exact.
            let saved = self.dhat_ub_saved[v];
            if saved != 0.0 {
                self.propagate_dhat_ub(pe, c, saved);
                self.dhat_ub[pe * nq + c] = saved;
            }
            self.singles_ic -= self.prep.w_ic[v];
            self.singles_cnt -= 1;
        }
        if !self.both_removed[v] {
            // `rcv_ub` of this slot is untouched while `v` is assigned
            // (predecessors topologically precede it), so this re-adds
            // exactly what `try_assign` subtracted.
            let credit = self.prep.prob[c] * self.rcv_ub[pe * nq + c];
            self.ic_ub_rem += credit;
            self.ic_ub_by_cfg[c] += credit;
        }
        self.num_assigned -= 1;
        self.assign[v] = 0;
    }

    /// Learn a minimized nogood from a CPU violation: the smallest set of
    /// currently-assigned replicas (plus the tentative `(v, val)`) whose load
    /// alone overflows host `h` in `v`'s configuration. Any completion
    /// keeping those replicas on `h` carries at least that load, so the
    /// subtree is refuted regardless of everything else — sound across
    /// restarts, LNS neighborhoods, and portfolio workers. A relative margin
    /// on the capacity absorbs incremental-float drift.
    fn learn_cpu(&mut self, v: usize, val: Val, h: usize) {
        let can_learn = self.learn && self.nogoods.as_ref().is_some_and(|ng| ng.has_room());
        let var = self.prep.vars[v];
        let c = var.cfg.index();
        let nq = self.prep.num_configs;
        if !can_learn || self.slot_assigned[h * nq + c] as usize + 2 > MAX_CPU_REASON {
            self.bump_conflict(&[v as u32]);
            return;
        }
        // Gather contributors to (h, c): assigned vars with a replica there,
        // plus the tentative assignment itself.
        let mut cand: Vec<(f64, u32)> = Vec::with_capacity(8);
        for pe in 0..self.prep.num_pes {
            let u = self.prep.var_index[pe * nq + c];
            let a = if u == v { val as u8 } else { self.assign[u] };
            if a == 0 {
                continue;
            }
            let load = self.prep.replica_load[pe * nq + c];
            let h0 = self.prep.host_of[pe][0] as usize;
            let h1 = self.prep.host_of[pe][1] as usize;
            let a = Val::from_u8(a);
            let (contrib, code) = if h0 == h && h1 == h {
                // Both replicas live on `h`: `Both` contributes twice.
                match a {
                    Val::Both => (2.0 * load, nogood::CODE_EQ_BOTH),
                    Val::Only0 => (load, nogood::CODE_COV0),
                    Val::Only1 => (load, nogood::CODE_COV1),
                }
            } else if h0 == h {
                match a {
                    Val::Both | Val::Only0 => (load, nogood::CODE_COV0),
                    Val::Only1 => continue,
                }
            } else if h1 == h {
                match a {
                    Val::Both | Val::Only1 => (load, nogood::CODE_COV1),
                    Val::Only0 => continue,
                }
            } else {
                continue;
            };
            cand.push((contrib, nogood::lit(u as u32, code)));
        }
        // Largest contributors first; deterministic tie-break on the literal.
        cand.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let target = self.prep.cap[h] * (1.0 + BOUND_EPS);
        let mut sum = 0.0;
        let mut lits: Vec<u32> = Vec::with_capacity(cand.len().min(8));
        for &(contrib, l) in &cand {
            sum += contrib;
            lits.push(l);
            if sum >= target {
                break;
            }
        }
        if sum < target {
            // Fresh summation fell short of the margin (drift-tight case):
            // skip learning rather than risk an unsound nogood.
            self.bump_conflict(&[v as u32]);
            return;
        }
        // `depth_of[v]` is stale (v is unassigned); pretend it is deepest.
        self.depth_of[v] = self.num_assigned;
        if let Some(ng) = self.nogoods.as_deref_mut() {
            ng.learn(&lits, &self.depth_of);
        }
        let vars: Vec<u32> = lits.iter().map(|&l| nogood::lit_var(l)).collect();
        self.bump_conflict(&vars);
    }

    /// Learn a minimized nogood from a COMPL violation, when it is expressible
    /// over assigned singles alone: if `BIC − Σ w_ic(chosen singles)` is
    /// already below the goal (with a wide relative margin for float drift),
    /// every completion keeping those variables single misses the IC goal.
    fn learn_compl(&mut self, v: usize) {
        let can_learn = self.learn && self.nogoods.as_ref().is_some_and(|ng| ng.has_room());
        if !can_learn || self.singles_cnt == 0 || self.singles_cnt > MAX_COMPL_SCAN {
            self.bump_conflict(&[v as u32]);
            return;
        }
        let goal_margin = self.prep.goal_fic * (1.0 - 1e-6);
        if self.prep.bic_rate - self.singles_ic >= goal_margin {
            // Not expressible over singles alone (the violation also depends
            // on DOM removals / unassigned structure): don't learn.
            self.bump_conflict(&[v as u32]);
            return;
        }
        let mut cand: Vec<(f64, u32)> = Vec::with_capacity(self.singles_cnt as usize);
        for (u, &a) in self.assign.iter().enumerate() {
            if a != 0 && a != Val::Both as u8 {
                cand.push((
                    self.prep.w_ic[u],
                    nogood::lit(u as u32, nogood::CODE_NOT_BOTH),
                ));
            }
        }
        cand.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut lost = 0.0;
        let mut lits: Vec<u32> = Vec::with_capacity(8);
        for &(w, l) in &cand {
            lost += w;
            lits.push(l);
            if self.prep.bic_rate - lost < goal_margin {
                break;
            }
        }
        if self.prep.bic_rate - lost >= goal_margin {
            self.bump_conflict(&[v as u32]);
            return;
        }
        if let Some(ng) = self.nogoods.as_deref_mut() {
            ng.learn(&lits, &self.depth_of);
        }
        let vars: Vec<u32> = lits.iter().map(|&l| nogood::lit_var(l)).collect();
        self.bump_conflict(&vars);
    }

    /// Forward domain propagation (DOM, §4.5): after binding `v` to a
    /// single-replica value, recursively remove `Both` from successors whose
    /// predecessors are all "dead" in this configuration (no source inputs
    /// and every PE input with `Δ̂ = 0` or doomed to it).
    fn propagate_dom(&mut self, v: usize) {
        let var = self.prep.vars[v];
        self.dom_walk(var.pe as usize, var.cfg.index());
    }

    /// The DOM walk proper, from the successors of `pe` in configuration `c`.
    fn dom_walk(&mut self, pe: usize, c: usize) {
        let nq = self.prep.num_configs;
        let mut stack = std::mem::take(&mut self.dom_stack);
        stack.clear();
        stack.extend_from_slice(&self.prep.pe_succ[pe]);
        while let Some(succ) = stack.pop() {
            let u = self.prep.var_index[succ as usize * nq + c];
            if self.assign[u] != 0 || self.both_removed[u] {
                continue;
            }
            let mut all_dead = true;
            for e in &self.prep.pe_in[succ as usize] {
                if e.from_source {
                    all_dead = false;
                    break;
                }
                let p = e.idx as usize;
                let pv = self.prep.var_index[p * nq + c];
                let dead = if self.assign[pv] != 0 {
                    self.dhat[p * nq + c] == 0.0
                } else {
                    self.both_removed[pv]
                };
                if !dead {
                    all_dead = false;
                    break;
                }
            }
            if all_dead {
                self.remove_both(succ as usize, c, u);
                stack.extend_from_slice(&self.prep.pe_succ[succ as usize]);
            }
        }
        self.dom_stack = stack;
    }

    /// Remove `Both` from the open variable `u = (pe, c)`: freeze its Δ̂
    /// upper bound (a single is all it can be, contributing nothing),
    /// subtract its residual IC credit, propagate the loss downstream, and
    /// trail the exact amounts for undo. The prune's height is that of the
    /// branch `u` would have opened: `num_vars` less its search position.
    fn remove_both(&mut self, pe: usize, c: usize, u: usize) {
        let slot = pe * self.prep.num_configs + c;
        self.both_removed[u] = true;
        let credit = self.prep.prob[c] * self.rcv_ub[slot];
        self.ic_ub_rem -= credit;
        self.ic_ub_by_cfg[c] -= credit;
        let dhat_saved = self.dhat_ub[slot];
        self.dhat_ub[slot] = 0.0;
        if dhat_saved != 0.0 {
            self.propagate_dhat_ub(pe, c, -dhat_saved);
        }
        self.trail.push(DomUndo {
            var: u as u32,
            credit,
            dhat_saved,
        });
        let height = (self.prep.num_vars - self.position(u)) as u64;
        self.stats.record_prune(PruneKind::Dom, height);
    }

    /// Capacity propagation after `v`'s loads landed. Host loads only grow
    /// down a branch, so what no longer fits now never fits in this subtree.
    /// Scans only the open PEs sharing a host with `v` (the two slots whose
    /// load changed):
    ///
    /// - CAP: once both replicas of an open variable no longer fit together,
    ///   `Both` is removed and the DOM walk picks up any chains that kills;
    /// - forward checking (`proof_bounds`): once *neither* single fits, the
    ///   variable has no value left and the node fails — returns `false`
    ///   with the removals made so far on the trail for the caller to undo.
    fn propagate_cap(&mut self, v: usize) -> bool {
        let prep = self.prep;
        let var = prep.vars[v];
        let pe = var.pe as usize;
        let c = var.cfg.index();
        let nq = prep.num_configs;
        for hi in 0..2 {
            let h = prep.host_of[pe][hi] as usize;
            if hi == 1 && h == prep.host_of[pe][0] as usize {
                break;
            }
            for &u_pe in &prep.host_pes[h] {
                let u_pe = u_pe as usize;
                let u = prep.var_index[u_pe * nq + c];
                if self.assign[u] != 0 || (self.both_removed[u] && !self.proof_bounds) {
                    continue;
                }
                let load = prep.replica_load[u_pe * nq + c];
                let h0 = prep.host_of[u_pe][0] as usize;
                let h1 = prep.host_of[u_pe][1] as usize;
                let over0 = self.host_load[h0 * nq + c] + load >= prep.cap[h0];
                let over1 = self.host_load[h1 * nq + c] + load >= prep.cap[h1];
                if over0 && over1 && self.proof_bounds {
                    return false;
                }
                if self.both_removed[u] {
                    continue;
                }
                let infeasible = if h0 == h1 {
                    self.host_load[h0 * nq + c] + 2.0 * load >= prep.cap[h0]
                } else {
                    over0 || over1
                };
                if infeasible {
                    self.remove_both(u_pe, c, u);
                    if self.opts.prune_dom {
                        self.dom_walk(u_pe, c);
                    }
                }
            }
        }
        true
    }

    /// IC-deficit cover bound: a lower bound on what closing the IC deficit
    /// costs on top of `cost + cost_lb_rem` (which charges every open
    /// variable one replica). The FIC of the assigned variables is final, so
    /// a feasible completion must buy `goal − fic` from open variables it
    /// turns into `Both`; variable `u` then adds `w_cost[u]` and contributes
    /// at most `g_u = min(P_C(c)·rcv_ub[pe, c], w_ic[u])`, i.e. it sells
    /// FIC at `w_cost[u]/g_u ≥ w_cost[u]/w_ic[u]` per unit. Letting every
    /// candidate sell any fraction of `g_u` at the cheaper static price and
    /// buying cheapest-first (the order `Prep` sorted once) can only cost
    /// less than any real completion. Runs out of sellers only where COMPL
    /// fires; the partial sum is still a lower bound.
    ///
    /// Under the penalty objective a unit of deficit left open costs `λ`, so
    /// the fill stops at the first seller whose price reaches `λ` and every
    /// unit still needed (including what the sellers cannot supply) is
    /// charged `λ`: the exact minimum of cover plus penalty over the same
    /// relaxation.
    fn deficit_cover(&self) -> f64 {
        let mut need = self.goal_lo() - self.fic;
        let mut extra = 0.0;
        for it in &self.prep.cover {
            if need <= 0.0 || (PENALTY && it.density >= self.lambda) {
                break;
            }
            let u = it.var as usize;
            if self.assign[u] != 0 || self.both_removed[u] {
                continue;
            }
            let gain = (it.prob * self.rcv_ub[it.slot as usize]).min(it.w_ic);
            if gain > 0.0 {
                extra += gain.min(need) * it.density;
                need -= gain;
            }
        }
        if PENALTY {
            extra += self.lambda * need.max(0.0);
        }
        extra
    }

    fn undo_dom(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let t = self.trail.pop().unwrap();
            let u = t.var as usize;
            let var = self.prep.vars[u];
            let pe = var.pe as usize;
            let c = var.cfg.index();
            self.both_removed[u] = false;
            if t.dhat_saved != 0.0 {
                self.propagate_dhat_ub(pe, c, t.dhat_saved);
            }
            self.dhat_ub[pe * self.prep.num_configs + c] = t.dhat_saved;
            self.ic_ub_rem += t.credit;
            self.ic_ub_by_cfg[c] += t.credit;
        }
    }

    /// Propagate a change `delta` of `Δ̂_ub(pe, c)` to all descendants in
    /// configuration `c`: their receive-rate upper bounds shift by the
    /// selectivity-weighted delta, open (non-removed) descendants adjust the
    /// global IC upper bound, and the wave continues below them. Removed or
    /// frozen slots absorb the receive update without recursing (their own
    /// `Δ̂_ub` is already 0 — exact, since they can only go single). Purely
    /// additive, so re-propagating `-delta` undoes it term by term.
    fn propagate_dhat_ub(&mut self, pe: usize, c: usize, delta: f64) {
        let prep = self.prep;
        let nq = prep.num_configs;
        let mut stack = std::mem::take(&mut self.prop_stack);
        stack.clear();
        stack.push((pe as u32, delta));
        while let Some((u, d)) = stack.pop() {
            for &(s, sel) in &prep.pe_out[u as usize] {
                let slot = s as usize * nq + c;
                let sv = prep.var_index[slot];
                debug_assert_eq!(
                    self.assign[sv], 0,
                    "descendants of an open/just-decided slot are unassigned \
                     (per-configuration topological order)"
                );
                self.rcv_ub[slot] += d;
                if !self.both_removed[sv] {
                    self.ic_ub_rem += prep.prob[c] * d;
                    self.ic_ub_by_cfg[c] += prep.prob[c] * d;
                    let dd = sel * d;
                    if dd != 0.0 {
                        self.dhat_ub[slot] += dd;
                        stack.push((s, dd));
                    }
                }
            }
        }
        self.prop_stack = stack;
    }

    /// A complete assignment was reached: recompute FIC/cost exactly (kills
    /// incremental drift), re-validate, and record it if it improves on the
    /// incumbent by more than the eps-band.
    fn record_leaf(&mut self) {
        let (cost_rate, fic, max_rel_load) = self.recompute_exact();
        if !PENALTY && fic < self.prep.goal_fic * (1.0 - BOUND_EPS) {
            // Only reachable when COMPL pruning is disabled (ablation mode).
            return;
        }
        if max_rel_load >= 1.0 {
            // Only reachable when CPU pruning is disabled (ablation mode).
            return;
        }
        let objective = if PENALTY {
            penalized(self.prep, self.lambda, cost_rate, fic)
        } else {
            cost_rate
        };
        if self
            .incumbent_objective()
            .is_some_and(|b| objective >= b * (1.0 - BOUND_EPS))
        {
            return;
        }
        self.note_solution(objective);
        let sol = RawSolution {
            assign: self.assign.clone(),
            fic_rate: fic,
            objective,
        };
        if let Some(sh) = self.shared {
            sh.offer(&sol);
        }
        self.best = Some(sol);
        if self.stop_on_solution {
            self.timed_out = true;
        }
    }

    /// Update first/best statistics for a new incumbent.
    fn note_solution(&mut self, cost: f64) {
        let now = self.start.elapsed();
        if self.stats.time_to_first.is_none() {
            self.stats.time_to_first = Some(now);
            self.stats.first_cost = Some(cost);
        }
        self.stats.time_to_best = Some(now);
        self.stats.best_cost = Some(cost);
        self.stats.improvements += 1;
        let nodes = self.stats.nodes;
        self.stats.push_incumbent(now, nodes, cost);
    }

    /// Exact (non-incremental) evaluation of the current complete assignment.
    /// Returns `(cost_rate, fic_rate, max load/capacity ratio)`.
    fn recompute_exact(&self) -> (f64, f64, f64) {
        evaluate_assignment(self.prep, &self.assign)
    }
}

/// Exact evaluation of a complete assignment: `(cost_rate, fic_rate,
/// max load/capacity ratio over hosts and configurations)`. Shared by the
/// engine's leaf check and the greedy incumbent seeding.
pub(crate) fn evaluate_assignment(p: &Prep, assign: &[u8]) -> (f64, f64, f64) {
    let nq = p.num_configs;
    let mut cost = 0.0;
    let mut fic = 0.0;
    let mut host_load = vec![0.0f64; p.num_hosts * nq];
    let mut dhat = vec![0.0f64; p.num_pes * nq];
    for c in 0..nq {
        // PEs in topological (dense) order.
        for pe in 0..p.num_pes {
            let v = p.var_index[pe * nq + c];
            let val = assign[v];
            debug_assert_ne!(val, 0);
            let both = val == Val::Both as u8;
            let mut received = 0.0;
            let mut weighted = 0.0;
            for e in &p.pe_in[pe] {
                let d = if e.from_source {
                    p.source_rate[e.idx as usize * nq + c]
                } else {
                    dhat[e.idx as usize * nq + c]
                };
                received += d;
                weighted += e.sel * d;
            }
            let phi = if both { 1.0 } else { 0.0 };
            dhat[pe * nq + c] = phi * weighted;
            fic += p.prob[c] * phi * received;
            let mult = if both { 2.0 } else { 1.0 };
            cost += mult * p.w_cost[v];
            let load = p.replica_load[pe * nq + c];
            match val {
                x if x == Val::Both as u8 => {
                    host_load[p.host_of[pe][0] as usize * nq + c] += load;
                    host_load[p.host_of[pe][1] as usize * nq + c] += load;
                }
                x if x == Val::Only0 as u8 => {
                    host_load[p.host_of[pe][0] as usize * nq + c] += load;
                }
                _ => {
                    host_load[p.host_of[pe][1] as usize * nq + c] += load;
                }
            }
        }
    }
    let mut max_rel = 0.0f64;
    for h in 0..p.num_hosts {
        for c in 0..nq {
            let rel = host_load[h * nq + c] / p.cap[h];
            max_rel = max_rel.max(rel);
        }
    }
    (cost, fic, max_rel)
}

/// The priority-topological walk both engines explore in: configuration
/// blocks (variables `b·|P| .. (b+1)·|P|` of `Prep::vars`) in the order
/// given, and inside a block, among the PEs whose predecessors are already
/// placed, the one whose variable has the largest `key` (ties to the smaller
/// dense index). Such an order keeps predecessors before successors per
/// configuration, which the incremental Δ̂/FIC bookkeeping and DOM need.
pub(crate) fn priority_order(
    prep: &Prep,
    blocks: impl IntoIterator<Item = usize>,
    key: impl Fn(usize) -> f64,
) -> Vec<u32> {
    let np = prep.num_pes;
    let nq = prep.num_configs;
    if np == 0 {
        return Vec::new();
    }
    // Unique successor lists derived from the deduplicated predecessor sets.
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); np];
    for (s, preds) in prep.pe_pred.iter().enumerate() {
        for &p in preds {
            succs[p as usize].push(s as u32);
        }
    }

    let mut order = Vec::with_capacity(prep.num_vars);
    let mut indeg = vec![0u32; np];
    let mut ready: Vec<u32> = Vec::with_capacity(np);
    for b in blocks {
        let c = prep.vars[b * np].cfg.index();
        for (d, preds) in indeg.iter_mut().zip(&prep.pe_pred) {
            *d = preds.len() as u32;
        }
        ready.clear();
        ready.extend((0..np as u32).filter(|&pe| indeg[pe as usize] == 0));
        for _ in 0..np {
            let mut pick = 0;
            let mut pick_score = f64::NEG_INFINITY;
            let mut pick_pe = u32::MAX;
            for (i, &pe) in ready.iter().enumerate() {
                let s = key(prep.var_index[pe as usize * nq + c]);
                if s > pick_score || (s == pick_score && pe < pick_pe) {
                    pick = i;
                    pick_score = s;
                    pick_pe = pe;
                }
            }
            let pe = ready.swap_remove(pick) as usize;
            order.push(prep.var_index[pe * nq + c] as u32);
            for &s in &succs[pe] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), prep.num_vars);
    order
}

/// The deterministic engine's fail-first order: `Prep`'s configuration
/// blocks, and inside each the ready PE whose downstream cone carries the
/// most load — `Σ replica_load[u, c]` over the PE and every PE reachable
/// from it, summed in ascending dense order. Those are the PEs whose
/// replicas decide the CPU constraints and whose single-replica choice
/// zeroes the IC of the most downstream work, so the tree fails high.
pub(crate) fn fail_first_order(prep: &Prep) -> Vec<u32> {
    let np = prep.num_pes;
    let nq = prep.num_configs;
    let mut cone_load = vec![0.0; prep.num_vars];
    // `seen[u] == pe` marks `u` as in the cone of `pe`.
    let mut seen = vec![usize::MAX; np];
    let mut stack: Vec<u32> = Vec::new();
    let mut cone: Vec<u32> = Vec::new();
    for pe in 0..np {
        cone.clear();
        seen[pe] = pe;
        stack.push(pe as u32);
        while let Some(u) = stack.pop() {
            cone.push(u);
            for &s in &prep.pe_succ[u as usize] {
                if seen[s as usize] != pe {
                    seen[s as usize] = pe;
                    stack.push(s);
                }
            }
        }
        cone.sort_unstable();
        for c in 0..nq {
            let mut sum = 0.0;
            for &u in &cone {
                sum += prep.replica_load[u as usize * nq + c];
            }
            cone_load[prep.var_index[pe * nq + c]] = sum;
        }
    }
    priority_order(prep, 0..nq, |v| cone_load[v])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftsearch::FtSearchConfig;
    use crate::problem::Problem;
    use crate::testutil::{chain_problem, diamond_problem, fig2_problem};
    use laar_model::{Application, ConfigSpace, GraphBuilder, HostId, Placement};
    use std::time::Duration;

    /// `src → a → {b, c, d}`, `d → e`: `b` and `c` tie, and the `d → e`
    /// branch outweighs both, so the fail-first order is not the dense one.
    fn fan_problem(ic_req: f64) -> Problem {
        let mut g = GraphBuilder::new();
        let s = g.add_source("src");
        let [a, b, c, d, e] = ["a", "b", "c", "d", "e"].map(|n| g.add_pe(n));
        let k = g.add_sink("sink");
        g.connect(s, a, 1.0, 50.0).unwrap();
        for (from, to, cost) in [(a, b, 20.0), (a, c, 20.0), (a, d, 10.0), (d, e, 40.0)] {
            g.connect(from, to, 1.0, cost).unwrap();
        }
        for pe in [b, c, e] {
            g.connect_sink(pe, k).unwrap();
        }
        let g = g.build().unwrap();
        let cs = ConfigSpace::new(&g, vec![vec![4.0, 8.0]], vec![0.7, 0.3]).unwrap();
        let assignment = (0..5u32)
            .flat_map(|i| [HostId(i % 3), HostId((i + 1) % 3)])
            .collect();
        let placement =
            Placement::new(&g, 2, Placement::uniform_hosts(3, 700.0), assignment).unwrap();
        let app = Application::new("fan", g, cs, 300.0).unwrap();
        Problem::new(app, placement, ic_req).unwrap()
    }

    /// Run the engine to completion, in `order` or in the dense order. The
    /// run is bounded in nodes, ten times the largest tree of the fixtures
    /// below (chain @ 0.5, 1 989 523 nodes in either order), with a deadline
    /// far enough out never to bind, so a timeout here means a tree grew and
    /// never that the machine was slow.
    fn run_in(prep: &Prep, order: Option<&[u32]>) -> (Option<RawSolution>, SearchStats) {
        let opts = FtSearchConfig {
            node_limit: Some(20_000_000),
            ..FtSearchConfig::default()
        };
        let start = Instant::now();
        let deadline = start + Duration::from_secs(86_400);
        let mut eng = Engine::<false>::new(prep, &opts, start, deadline, None);
        if let Some(o) = order {
            eng.set_order(o);
        }
        let (sol, timed_out) = eng.run(0);
        assert!(!timed_out);
        (sol, eng.stats)
    }

    #[test]
    fn fail_first_order_takes_the_heaviest_ready_cone() {
        let fixtures = [
            ("fig2", fig2_problem(0.6)),
            ("diamond", diamond_problem(0.5)),
            ("chain", chain_problem(16, 4, 0.5)),
            ("fan", fan_problem(0.5)),
        ];
        for (what, p) in fixtures {
            let prep = Prep::build(&p);
            let (np, nq) = (prep.num_pes, prep.num_configs);
            let order = fail_first_order(&prep);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert!(
                sorted.into_iter().eq(0..prep.num_vars as u32),
                "{what}: a permutation"
            );
            // Cone loads recomputed from the transitive closure, built
            // bottom-up over the dense (topological) order.
            let mut reach = vec![vec![false; np]; np];
            for u in (0..np).rev() {
                reach[u][u] = true;
                for &s in &prep.pe_succ[u] {
                    let below = reach[s as usize].clone();
                    for (r, b) in reach[u].iter_mut().zip(below) {
                        *r |= b;
                    }
                }
            }
            let cone = |pe: usize, c: usize| -> f64 {
                let mut sum = 0.0;
                for w in (0..np).filter(|&w| reach[pe][w]) {
                    sum += prep.replica_load[w * nq + c];
                }
                sum
            };
            for b in 0..nq {
                let c = prep.vars[b * np].cfg.index();
                let mut placed = vec![false; np];
                for &v in &order[b * np..(b + 1) * np] {
                    let var = prep.vars[v as usize];
                    assert_eq!(
                        var.cfg.index(),
                        c,
                        "{what}: block {b} keeps its configuration"
                    );
                    let pe = var.pe as usize;
                    let ready = |u: usize| {
                        !placed[u] && prep.pe_pred[u].iter().all(|&q| placed[q as usize])
                    };
                    assert!(ready(pe), "{what}: pe {pe} placed before its predecessors");
                    for u in (0..np).filter(|&u| ready(u)) {
                        let (cu, cp) = (cone(u, c), cone(pe, c));
                        assert!(
                            cu < cp || (cu == cp && u >= pe),
                            "{what}: took pe {pe} (cone {cp}) over ready pe {u} (cone {cu})"
                        );
                    }
                    placed[pe] = true;
                }
            }
            if what == "fan" {
                assert!(
                    order.iter().zip(0..).any(|(&v, pos)| v != pos),
                    "fan: the fixture must tell the two orders apart"
                );
            }
        }
    }

    #[test]
    fn dense_and_fail_first_orders_agree_on_the_answer() {
        let cases = [
            ("fig2 @ 0", fig2_problem(0.0)),
            ("fig2 @ 0.6", fig2_problem(0.6)),
            ("fig2 @ 2/3", fig2_problem(2.0 / 3.0)),
            ("fig2 @ 0.9", fig2_problem(0.9)),
            ("diamond @ 0.55", diamond_problem(0.55)),
            ("chain @ 0.5", chain_problem(16, 4, 0.5)),
            ("fan @ 0.3", fan_problem(0.3)),
            ("fan @ 0.6", fan_problem(0.6)),
            ("fan @ 0.9", fan_problem(0.9)),
        ];
        for (what, p) in cases {
            let prep = Prep::build(&p);
            let order = fail_first_order(&prep);
            let answer = |order: Option<&[u32]>| {
                let (sol, stats) = run_in(&prep, order);
                assert!(stats.proved, "{what}");
                sol.map(|s| s.objective.to_bits())
            };
            assert_eq!(
                answer(None),
                answer(Some(&order)),
                "{what}: label and cost bits"
            );
        }
    }

    #[test]
    fn dom_heights_count_search_positions() {
        // The Low block first: assigning (Low, pe1) a single at position 0
        // removes `Both` from (Low, pe2) — variable 3, but position 1.
        let prep = Prep::build(&fig2_problem(0.0));
        let order = [2u32, 3, 0, 1];
        let opts = FtSearchConfig::default();
        let start = Instant::now();
        let mut eng =
            Engine::<false>::new(&prep, &opts, start, start + Duration::from_secs(10), None);
        eng.set_order(&order);
        let v = eng.var_at(0);
        assert!(eng.try_assign(v, Val::Only0, prep.num_vars as u64));
        eng.propagate_dom(v);
        let removed: Vec<usize> = eng.trail.iter().map(|t| t.var as usize).collect();
        assert_eq!(removed, [3]);
        let recount: u64 = removed
            .iter()
            .map(|&u| (prep.num_vars - order.iter().position(|&x| x as usize == u).unwrap()) as u64)
            .sum();
        let dom = PruneKind::Dom.index();
        assert_eq!(eng.stats.prunes[dom], removed.len() as u64);
        assert_eq!(eng.stats.prune_heights[dom], recount);
        assert_ne!(
            recount,
            (prep.num_vars - 3) as u64,
            "positions, not indices"
        );
    }

    fn run_fig2(ic: f64) -> (Option<RawSolution>, SearchStats) {
        let p = fig2_problem(ic);
        let prep = Prep::build(&p);
        let opts = FtSearchConfig::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs(10);
        let mut eng = Engine::<false>::new(&prep, &opts, start, deadline, None);
        let (sol, timed_out) = eng.run(0);
        assert!(!timed_out);
        (sol, eng.stats)
    }

    #[test]
    fn fig2_ic06_finds_fig2b_like_solution() {
        let (sol, stats) = run_fig2(0.6);
        let sol = sol.expect("feasible");
        assert!(stats.proved);
        // IC must be at least 0.6 of BIC-rate 9.6.
        assert!(sol.fic_rate >= 0.6 * 9.6 - 1e-9);
        // Optimal: fully replicate in Low (0.8 * 2 PEs * 400 * 2 replicas),
        // single replicas at High (0.2 * 2 * 800): cost = 1280 + 320 = 1600.
        assert!((sol.objective - 1600.0).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn fig2_ic_zero_single_replicas_everywhere() {
        let (sol, _) = run_fig2(0.0);
        let sol = sol.expect("feasible");
        // Cheapest valid strategy: one replica everywhere.
        // cost = 0.8*2*400 + 0.2*2*800 = 640 + 320 = 960.
        assert!((sol.objective - 960.0).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn fig2_high_ic_is_infeasible() {
        // Full replication at High is impossible (hosts overload), so any
        // IC above the Low-only share (2/3) cannot be guaranteed.
        let (sol, stats) = run_fig2(0.9);
        assert!(sol.is_none());
        assert!(stats.proved);
    }

    #[test]
    fn fig2_boundary_ic_two_thirds_feasible() {
        let (sol, _) = run_fig2(2.0 / 3.0);
        assert!(sol.is_some());
    }

    #[test]
    fn stats_record_pruning() {
        let (_, stats) = run_fig2(0.6);
        assert!(stats.nodes > 0);
        let total_prunes: u64 = stats.prunes.iter().sum();
        assert!(total_prunes > 0, "expected some pruning on fig2");
    }

    #[test]
    fn first_solution_not_cheaper_than_best() {
        let (_, stats) = run_fig2(0.6);
        if let Some(r) = stats.first_to_best_cost_ratio() {
            assert!(r >= 1.0 - 1e-9);
        }
    }
}

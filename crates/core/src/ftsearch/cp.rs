//! CP-style anytime driver over the FT-Search engine: activity/conflict-guided
//! ordering, geometric restarts that keep learned nogoods and the incumbent,
//! LNS around the incumbent, and the shared-nogood pool used by portfolio
//! workers.
//!
//! One driver call owns one nogood store, one activity table, and one seeded
//! RNG; it runs the [`Engine`] repeatedly under node budgets. Everything is
//! metered in nodes (never wall-clock decisions), so a driver run under a
//! node limit is deterministic — the property `adapt::replanner` relies on
//! for cross-engine parity.

use super::nogood::NogoodStore;
use super::prep::Prep;
use super::search::{
    admit, evaluate_assignment, fail_first_order, priority_order, Engine, RawSolution, Val,
    ValuePolicy,
};
use super::stats::SearchStats;
use super::{better_solution, FtSearchConfig, SharedBest};
use rand::{Rng, SeedableRng, StdRng};
use std::sync::Mutex;
use std::time::Instant;

/// VSIDS-style variable activity: bump at conflicts, geometric decay via a
/// growing increment, rescale near overflow.
pub(crate) struct Activity {
    score: Vec<f64>,
    inc: f64,
}

/// Per-conflict decay factor (increment grows by `1/DECAY`).
const DECAY: f64 = 0.95;
/// Rescale threshold.
const RESCALE_AT: f64 = 1e100;

impl Activity {
    pub(crate) fn new(num_vars: usize) -> Self {
        Self {
            score: vec![0.0; num_vars],
            inc: 1.0,
        }
    }

    #[inline]
    pub(crate) fn bump(&mut self, v: usize) {
        self.score[v] += self.inc;
        if self.score[v] > RESCALE_AT {
            self.rescale();
        }
    }

    #[inline]
    pub(crate) fn decay(&mut self) {
        self.inc /= DECAY;
        if self.inc > RESCALE_AT {
            self.rescale();
        }
    }

    #[inline]
    pub(crate) fn score(&self, v: usize) -> f64 {
        self.score[v]
    }

    fn rescale(&mut self) {
        for s in &mut self.score {
            *s *= 1.0 / RESCALE_AT;
        }
        self.inc *= 1.0 / RESCALE_AT;
    }
}

/// Build an exploration order from current activities: configuration blocks
/// sorted by total activity (descending, ties in original block order), PEs
/// within a block in [`priority_order`] with the activity as key (most
/// active ready PE first).
pub(crate) fn build_order(prep: &Prep, act: &Activity) -> Vec<u32> {
    let np = prep.num_pes;
    let mut blocks: Vec<(f64, usize)> = (0..prep.num_configs)
        .map(|b| {
            let sum: f64 = (b * np..(b + 1) * np).map(|v| act.score(v)).sum();
            (sum, b)
        })
        .collect();
    blocks.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    priority_order(prep, blocks.into_iter().map(|(_, b)| b), |v| act.score(v))
}

/// Constructive feasibility dive: start from all-`Both` (maximal IC), then
/// repair CPU overloads one at a time. For the most-overloaded (host,
/// configuration) slot, the candidate moves are (a) flip a fully replicated
/// PE with a replica there to its other-side single and (b) migrate a single
/// to its sibling host when that host has headroom; the applied move is the
/// one losing the least *exact* FIC per unit of load relieved. Exact
/// re-evaluation per candidate sees the full downstream Δ̂-chain damage that
/// the per-variable weight `w_ic` misses, which is what lets this dive find
/// feasible incumbents on instances where `greedy_seed` gives up (it cannot
/// migrate singles at all). Deterministic; returns `None` when repair gets
/// stuck or, under the hard objective (`lambda` is `None`), when the
/// repaired assignment misses the IC goal.
pub(crate) fn repair_seed(prep: &Prep, lambda: Option<f64>) -> Option<RawSolution> {
    let nq = prep.num_configs;
    let nh = prep.num_hosts;
    let mut assign = vec![Val::Both as u8; prep.num_vars];
    let mut load = vec![0.0f64; nh * nq];
    for pe in 0..prep.num_pes {
        for c in 0..nq {
            let l = prep.replica_load[pe * nq + c];
            load[prep.host_of[pe][0] as usize * nq + c] += l;
            load[prep.host_of[pe][1] as usize * nq + c] += l;
        }
    }
    let max_steps = 4 * prep.num_vars.max(16);
    for _ in 0..max_steps {
        // Most overloaded (host, configuration) slot relative to capacity.
        let mut worst: Option<(usize, usize, f64)> = None;
        for h in 0..nh {
            for c in 0..nq {
                let rel = load[h * nq + c] / prep.cap[h];
                if rel >= 1.0 && worst.is_none_or(|(_, _, w)| rel > w) {
                    worst = Some((h, c, rel));
                }
            }
        }
        let Some((h, c, _)) = worst else {
            return readd_phase(prep, lambda, assign, load);
        };
        let (_, fic_now, _) = evaluate_assignment(prep, &assign);
        // (damage per load relieved, variable, new value).
        let mut pick: Option<(f64, usize, u8)> = None;
        for pe in 0..prep.num_pes {
            let v = prep.var_index[pe * nq + c];
            let l = prep.replica_load[pe * nq + c];
            if l <= 0.0 {
                continue;
            }
            let h0 = prep.host_of[pe][0] as usize;
            let h1 = prep.host_of[pe][1] as usize;
            let a = assign[v];
            let new_val = if a == Val::Both as u8 && h0 == h {
                Val::Only1 as u8
            } else if a == Val::Both as u8 && h1 == h {
                Val::Only0 as u8
            } else if a == Val::Only0 as u8 && h0 == h && h1 != h {
                // Migrating is allowed only into real headroom, so a move
                // never creates a fresh overload (keeps repair from
                // ping-ponging a single between two tight hosts).
                if load[h1 * nq + c] + l >= prep.cap[h1] {
                    continue;
                }
                Val::Only1 as u8
            } else if a == Val::Only1 as u8 && h1 == h && h0 != h {
                if load[h0 * nq + c] + l >= prep.cap[h0] {
                    continue;
                }
                Val::Only0 as u8
            } else {
                continue;
            };
            let old = assign[v];
            assign[v] = new_val;
            let (_, fic_after, _) = evaluate_assignment(prep, &assign);
            assign[v] = old;
            let score = (fic_now - fic_after).max(0.0) / l;
            if pick.is_none_or(|(s, _, _)| score < s) {
                pick = Some((score, v, new_val));
            }
        }
        let (_, v, new_val) = pick?;
        let pe = prep.vars[v].pe as usize;
        let l = prep.replica_load[pe * nq + c];
        let old = assign[v];
        // Replica r is active under Both or Only_r.
        for r in 0..2usize {
            let hr = prep.host_of[pe][r] as usize;
            let was = old == Val::Both as u8 || old == Val::Only0 as u8 + r as u8;
            let is = new_val == Val::Both as u8 || new_val == Val::Only0 as u8 + r as u8;
            if was && !is {
                load[hr * nq + c] -= l;
            } else if !was && is {
                load[hr * nq + c] += l;
            }
        }
        assign[v] = new_val;
    }
    None
}

/// Second half of [`repair_seed`]: the unload greedy over-corrects (later
/// migrations free headroom its earlier flips were compensating for), so
/// greedily restore `Both` wherever the inactive replica's host now has
/// room, largest exact FIC gain first, until the IC goal is met or no
/// restoring flip fits.
fn readd_phase(
    prep: &Prep,
    lambda: Option<f64>,
    mut assign: Vec<u8>,
    mut load: Vec<f64>,
) -> Option<RawSolution> {
    let nq = prep.num_configs;
    loop {
        let (_, fic_rate, max_rel) = evaluate_assignment(prep, &assign);
        if fic_rate >= prep.goal_fic * (1.0 - 1e-9) && max_rel < 1.0 {
            return admit(prep, lambda, assign);
        }
        let mut pick: Option<(f64, usize)> = None;
        for v in 0..prep.num_vars {
            let a = assign[v];
            if a == Val::Both as u8 {
                continue;
            }
            let var = prep.vars[v];
            let pe = var.pe as usize;
            let c = var.cfg.index();
            let l = prep.replica_load[pe * nq + c];
            // The replica the single left inactive.
            let r = if a == Val::Only0 as u8 { 1 } else { 0 };
            let hr = prep.host_of[pe][r] as usize;
            if load[hr * nq + c] + l >= prep.cap[hr] {
                continue;
            }
            let old = assign[v];
            assign[v] = Val::Both as u8;
            let (_, fic_after, _) = evaluate_assignment(prep, &assign);
            assign[v] = old;
            let gain = fic_after - fic_rate;
            if gain > 0.0 && pick.is_none_or(|(g, _)| gain > g) {
                pick = Some((gain, v));
            }
        }
        let Some((_, v)) = pick else {
            return swap_phase(prep, lambda, assign, load);
        };
        let var = prep.vars[v];
        let pe = var.pe as usize;
        let c = var.cfg.index();
        let r = if assign[v] == Val::Only0 as u8 { 1 } else { 0 };
        load[prep.host_of[pe][r] as usize * nq + c] += prep.replica_load[pe * nq + c];
        assign[v] = Val::Both as u8;
    }
}

/// Last resort of [`repair_seed`]: hosts are packed, so no single flip back
/// to `Both` fits — but *swapping* can still raise FIC: evict a fully
/// replicated PE from the blocked host (flip it to the single on its other
/// side) to admit a single whose restoration gains more than the eviction
/// loses. Repeats steepest-ascent while some swap has strictly positive
/// exact net FIC gain; FIC is bounded, so the `net > eps` requirement
/// terminates the loop. Where it ends short of the IC goal the assignment
/// may still fit the cluster, which makes it a solution under the penalty
/// objective.
fn swap_phase(
    prep: &Prep,
    lambda: Option<f64>,
    mut assign: Vec<u8>,
    mut load: Vec<f64>,
) -> Option<RawSolution> {
    let nq = prep.num_configs;
    let eps = 1e-12 * prep.bic_rate.max(1.0);
    for _ in 0..4 * prep.num_vars.max(16) {
        let (_, fic_rate, max_rel) = evaluate_assignment(prep, &assign);
        if fic_rate >= prep.goal_fic * (1.0 - 1e-9) && max_rel < 1.0 {
            return admit(prep, lambda, assign);
        }
        // Best (net gain, restored var, evicted var, evicted new value).
        let mut pick: Option<(f64, usize, usize, u8)> = None;
        for v in 0..prep.num_vars {
            let a = assign[v];
            if a == Val::Both as u8 {
                continue;
            }
            let var = prep.vars[v];
            let pe = var.pe as usize;
            let c = var.cfg.index();
            let lv = prep.replica_load[pe * nq + c];
            let r = if a == Val::Only0 as u8 { 1 } else { 0 };
            let hr = prep.host_of[pe][r] as usize;
            for wpe in 0..prep.num_pes {
                if wpe == pe {
                    continue;
                }
                let w = prep.var_index[wpe * nq + c];
                if assign[w] != Val::Both as u8 {
                    continue;
                }
                let wh0 = prep.host_of[wpe][0] as usize;
                let wh1 = prep.host_of[wpe][1] as usize;
                let lw = prep.replica_load[wpe * nq + c];
                // Which replica of w sits on the blocked host?
                let w_new = if wh0 == hr {
                    Val::Only1 as u8
                } else if wh1 == hr {
                    Val::Only0 as u8
                } else {
                    continue;
                };
                if load[hr * nq + c] + lv - lw >= prep.cap[hr] {
                    continue;
                }
                let (old_v, old_w) = (assign[v], assign[w]);
                assign[v] = Val::Both as u8;
                assign[w] = w_new;
                let (_, fic_after, _) = evaluate_assignment(prep, &assign);
                assign[v] = old_v;
                assign[w] = old_w;
                let net = fic_after - fic_rate;
                if net > eps && pick.is_none_or(|(g, _, _, _)| net > g) {
                    pick = Some((net, v, w, w_new));
                }
            }
        }
        let Some((_, v, w, w_new)) = pick else {
            return lambda.and_then(|_| admit(prep, lambda, assign));
        };
        let (vvar, wvar) = (prep.vars[v], prep.vars[w]);
        let c = vvar.cfg.index();
        let vpe = vvar.pe as usize;
        let wpe = wvar.pe as usize;
        let r = if assign[v] == Val::Only0 as u8 { 1 } else { 0 };
        let hr = prep.host_of[vpe][r] as usize;
        load[hr * nq + c] += prep.replica_load[vpe * nq + c];
        load[hr * nq + c] -= prep.replica_load[wpe * nq + c];
        debug_assert!(
            prep.host_of[wpe][if w_new == Val::Only1 as u8 { 0 } else { 1 }] as usize == hr
        );
        assign[v] = Val::Both as u8;
        assign[w] = w_new;
    }
    lambda.and_then(|_| admit(prep, lambda, assign))
}

/// Build an LNS freeze mask around `incumbent`: entries left non-zero are
/// pinned to the incumbent value, zero entries are re-decided. Neighborhoods
/// rotate by round: (0) a random host subset across all configurations,
/// (1) a random host subset in one random configuration, (2) a random
/// variable subset. Seeded RNG keeps the sequence deterministic.
pub(crate) fn lns_neighborhood(
    rng: &mut StdRng,
    prep: &Prep,
    incumbent: &[u8],
    relax_frac: f64,
    round: u64,
) -> Vec<u8> {
    let nv = prep.num_vars;
    let nq = prep.num_configs;
    let mut fixed = incumbent.to_vec();
    match round % 3 {
        0 | 1 => {
            let k = ((prep.num_hosts as f64 * relax_frac).ceil() as usize).clamp(1, prep.num_hosts);
            let mut hosts = vec![false; prep.num_hosts];
            let mut chosen = 0;
            while chosen < k {
                let h = rng.random_range(0..prep.num_hosts);
                if !hosts[h] {
                    hosts[h] = true;
                    chosen += 1;
                }
            }
            let only_cfg = (round % 3 == 1).then(|| rng.random_range(0..nq));
            for (v, f) in fixed.iter_mut().enumerate() {
                let var = prep.vars[v];
                if only_cfg.is_some_and(|c| var.cfg.index() != c) {
                    continue;
                }
                let pe = var.pe as usize;
                if hosts[prep.host_of[pe][0] as usize] || hosts[prep.host_of[pe][1] as usize] {
                    *f = 0;
                }
            }
        }
        _ => {
            let k = ((nv as f64 * relax_frac).ceil() as usize).clamp(1, nv);
            let mut chosen = 0;
            while chosen < k {
                let v = rng.random_range(0..nv);
                if fixed[v] != 0 {
                    fixed[v] = 0;
                    chosen += 1;
                }
            }
        }
    }
    fixed
}

/// Shared pool of short nogoods exchanged between portfolio workers. Workers
/// publish at restart boundaries and import everything new since their last
/// read; the store's canonical-form dedup makes re-imports harmless.
#[derive(Default)]
pub(crate) struct NogoodPool {
    entries: Mutex<Vec<Vec<u32>>>,
}

/// Only nogoods at most this long are shared (short = general = worth it).
const SHARE_MAX_LEN: usize = 8;

impl NogoodPool {
    pub(crate) fn publish(&self, lits: &[u32]) {
        self.entries.lock().unwrap().push(lits.to_vec());
    }

    /// Entries added since `cursor`, plus the new cursor.
    pub(crate) fn read_from(&self, cursor: usize) -> (Vec<Vec<u32>>, usize) {
        let entries = self.entries.lock().unwrap();
        (entries[cursor..].to_vec(), entries.len())
    }
}

fn publish_new(pool: Option<&NogoodPool>, ng: &NogoodStore, published: &mut usize) {
    if let Some(pool) = pool {
        for g in *published..ng.count() {
            let lits = ng.nogood(g);
            if lits.len() <= SHARE_MAX_LEN {
                pool.publish(lits);
            }
        }
        *published = ng.count();
    }
}

/// Replace `best` by `sol` when `sol` is better under [`better_solution`].
fn keep_better(best: &mut Option<RawSolution>, sol: Option<RawSolution>) {
    if let Some(s) = sol {
        if best.as_ref().is_none_or(|b| better_solution(&s, b)) {
            *best = Some(s);
        }
    }
}

/// Per-worker knobs; the portfolio varies these across workers.
pub(crate) struct CpWorkerParams {
    pub seed: u64,
    pub restart_base: u64,
    pub restart_factor: f64,
    pub relax_frac: f64,
    pub worker_id: usize,
}

/// Node budget of the one proof run of a [`solve_cp`] call, sized on the
/// re-plan corpus (`solver_corpus(40, 0xF75EA7C4)` at IC 0.5–0.7 under a
/// 200 000-node budget): `1 << 14` does not fit the `adapt-drift`
/// fixture's proof (28 724 nodes from its first incumbent), and at `1 << 16`
/// the failed proofs leave the CP loop too few nodes (one re-plan 2.4 %
/// dearer).
const PROOF_RUN_NODES: u64 = 1 << 15;

/// One CP worker: geometric restarts (keeping nogoods, activities, and the
/// incumbent) interleaved with LNS rounds around the incumbent.
///
/// Under the hard objective, right after the first restart run that ends
/// holding an incumbent and before that restart's LNS rounds, the driver
/// runs the deterministic engine once from that incumbent: fail-first
/// order, proof bounds on, no nogoods or activities, cheapest value first,
/// at most [`PROOF_RUN_NODES`] nodes, counted in the budget. Metered CP runs
/// keep the proof bounds off and rarely finish a restart tree, so without
/// it a warm-started solve spends its whole budget after it already holds
/// the optimum. The proof run touches none of the nogoods, activities, RNG
/// or restart schedule: when it neither proves nor improves, the loop goes
/// on as it would have without it, on fewer nodes.
///
/// Returns the best solution found and merged stats; `stats.proved` is set
/// only when a restart run or the proof run completed its whole tree within
/// budget (never from an LNS run, whose tree is restricted to a
/// neighborhood).
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_cp<const PENALTY: bool>(
    prep: &Prep,
    opts: &FtSearchConfig,
    start: Instant,
    deadline: Instant,
    shared: Option<&SharedBest>,
    pool: Option<&NogoodPool>,
    params: &CpWorkerParams,
    warm: Option<RawSolution>,
) -> (Option<RawSolution>, SearchStats) {
    let nv = prep.num_vars;
    let mut stats = SearchStats::default();
    let mut ng = NogoodStore::new(nv, opts.cp.max_nogoods);
    let mut act = Activity::new(nv);
    let mut rng = StdRng::seed_from_u64(params.seed);
    // The engine sees no global node limit: the driver meters runs itself.
    let mut eng_opts = opts.clone();
    eng_opts.node_limit = None;

    // No caller-provided seed: try the constructive repair dive. Its
    // incumbent is usually expensive (Both wherever it fits) but arrives in
    // microseconds and unlocks LNS from the first restart.
    let mut best = warm.or_else(|| repair_seed(prep, opts.objective.lambda()));
    if let Some(b) = &best {
        // An externally installed seed is this solve's first incumbent:
        // record it so time-to-first/best are meaningful even if the search
        // never improves on it.
        stats.seeded = true;
        let at = start.elapsed();
        stats.time_to_first = Some(at);
        stats.first_cost = Some(b.objective);
        stats.time_to_best = Some(at);
        stats.best_cost = Some(b.objective);
        stats.push_incumbent(at, 0, b.objective);
        if let Some(sh) = shared {
            sh.offer(b);
        }
    }

    let global_limit = opts.node_limit;
    let mut nodes_used: u64 = 0;
    let mut proved = false;
    let mut proof_run_done = false;
    let mut published = 0usize;
    let mut imported = 0usize;
    let min_restart = params.restart_base.max(64);
    let mut restart_len = min_restart;
    // Desync the neighborhood rotation across workers.
    let mut lns_round: u64 = params.worker_id as u64;

    let remaining = |nodes_used: u64| -> u64 {
        match global_limit {
            Some(n) => n.saturating_sub(nodes_used),
            None => u64::MAX,
        }
    };
    let out_of_budget = |nodes_used: u64| {
        Instant::now() >= deadline
            || shared.is_some_and(|s| s.is_cancelled())
            || remaining(nodes_used) == 0
    };

    'outer: loop {
        if out_of_budget(nodes_used) {
            break;
        }
        if let Some(pool) = pool {
            let (fresh, next) = pool.read_from(imported);
            imported = next;
            for e in &fresh {
                ng.import(e);
            }
        }
        let order = build_order(prep, &act);

        // Restart run: FIC-greedy dive while no incumbent exists, guided
        // re-exploration (strict COST cut against the incumbent) afterwards.
        let budget = restart_len.min(remaining(nodes_used));
        let guide_buf = best.as_ref().map(|b| b.assign.clone());
        {
            let mut eng = Engine::<PENALTY>::new(prep, &eng_opts, start, deadline, shared);
            eng.set_order(&order);
            eng.set_nogoods(&mut ng, true);
            eng.set_activity(&mut act);
            eng.set_tie_keeping(false);
            eng.set_proof_bounds(false);
            eng.set_node_budget(budget);
            match &guide_buf {
                Some(g) => {
                    eng.set_value_policy(ValuePolicy::Guided);
                    eng.set_guide(g);
                    eng.set_seed(best.clone().expect("guide implies incumbent"));
                }
                None => {
                    eng.set_value_policy(ValuePolicy::BothFirst);
                    eng.set_stop_on_solution(true);
                }
            }
            let (sol, timed_out) = eng.run(0);
            nodes_used += eng.stats.nodes;
            stats.merge(&eng.stats);
            keep_better(&mut best, sol);
            if !timed_out {
                proved = true;
            }
        }
        publish_new(pool, &ng, &mut published);
        if proved {
            break;
        }
        stats.restarts += 1;

        // The one proof run, from the first incumbent a restart run ends
        // holding. Hard objective only: under the penalty one the engine
        // cannot refute singles before assigning them, the proof rarely fits
        // the budget, and the nodes it spends come out of the LNS rounds
        // that find the least-violating strategy.
        if !PENALTY && !proof_run_done && best.is_some() {
            proof_run_done = true;
            if out_of_budget(nodes_used) {
                break;
            }
            let order = fail_first_order(prep);
            let mut eng = Engine::<PENALTY>::new(prep, &eng_opts, start, deadline, shared);
            eng.set_order(&order);
            eng.set_tie_keeping(false);
            eng.set_node_budget(PROOF_RUN_NODES.min(remaining(nodes_used)));
            eng.set_seed(best.clone().expect("checked above"));
            let (sol, timed_out) = eng.run(0);
            nodes_used += eng.stats.nodes;
            stats.merge(&eng.stats);
            keep_better(&mut best, sol);
            if !timed_out {
                proved = true;
                break;
            }
        }

        // LNS rounds around the incumbent.
        if opts.cp.lns && best.is_some() {
            for _ in 0..opts.cp.lns_rounds_per_restart {
                if out_of_budget(nodes_used) {
                    break 'outer;
                }
                let b = best.clone().expect("lns requires incumbent");
                let fixed =
                    lns_neighborhood(&mut rng, prep, &b.assign, params.relax_frac, lns_round);
                lns_round += 1;
                let budget = opts.cp.lns_node_budget.min(remaining(nodes_used));
                let mut eng = Engine::<PENALTY>::new(prep, &eng_opts, start, deadline, shared);
                eng.set_order(&order);
                eng.set_nogoods(&mut ng, true);
                eng.set_activity(&mut act);
                eng.set_tie_keeping(false);
                eng.set_proof_bounds(false);
                eng.set_node_budget(budget);
                eng.set_value_policy(ValuePolicy::Guided);
                eng.set_guide(&b.assign);
                eng.set_fixed(&fixed);
                eng.set_seed(b.clone());
                let (sol, _) = eng.run(0);
                nodes_used += eng.stats.nodes;
                stats.merge(&eng.stats);
                stats.lns_rounds += 1;
                keep_better(&mut best, sol);
            }
            publish_new(pool, &ng, &mut published);
        }

        restart_len = (((restart_len as f64) * params.restart_factor) as u64)
            .clamp(min_restart, opts.cp.restart_cap.max(min_restart));
    }

    stats.nogoods_learned = ng.learned;
    stats.nogood_lits = ng.learned_lits;
    stats.proved = proved;
    stats.elapsed = start.elapsed();
    (best, stats)
}

//! Precomputation for FT-Search: variable numbering and per-variable weights.
//!
//! FT-Search explores one decision variable per (PE, input configuration)
//! pair with domain `{OnlyR0, OnlyR1, Both}` (3 values — eq. 12 excludes
//! "none", hence the paper's `3^(|P|·|C|)` space for `k = 2`).
//!
//! Variables are numbered *configuration-major*: configurations sorted by
//! their all-active total CPU load, descending (the paper's "most resource
//! hungry configurations first" heuristic), and PEs in dense (topological)
//! order within a configuration. The engine explores the configuration
//! blocks in this order, but not necessarily the PEs inside one: any order
//! that is topological inside a configuration keeps the incremental
//! `Δ̂`/FIC bookkeeping and DOM propagation possible (§4.5), and the
//! deterministic engine takes the fail-first one of
//! `search::fail_first_order`.

use super::stats::RootConflict;
use crate::problem::Problem;
use laar_model::{ComponentKind, ConfigId, HostId};

/// One input of a PE, pre-resolved to dense indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InEdge {
    /// `true` if the upstream component is a data source (never fails).
    pub from_source: bool,
    /// Dense index of the upstream source or PE.
    pub idx: u32,
    /// Selectivity `δ` of this input.
    pub sel: f64,
}

/// One search variable: the activation cell of `pe` in `cfg`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Var {
    /// The input configuration.
    pub cfg: ConfigId,
    /// Dense PE index.
    pub pe: u32,
}

/// One candidate of the IC-deficit cover bound: an open variable that can
/// still be turned into `Both`, with everything the per-node fill reads
/// packed next to each other.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoverItem {
    /// The variable.
    pub var: u32,
    /// `pe * num_configs + cfg` — its slot in the engine's `rcv_ub`.
    pub slot: u32,
    /// `P_C(c)` of its configuration.
    pub prob: f64,
    /// `w_ic[var]`, the static cap on the FIC-rate `Both` can buy here.
    pub w_ic: f64,
    /// `w_cost[var] / w_ic[var]`: extra cost-rate per unit of FIC-rate.
    pub density: f64,
}

/// Immutable tables shared by all (sequential or parallel) search workers.
#[derive(Debug, Clone)]
pub(crate) struct Prep {
    pub num_pes: usize,
    pub num_configs: usize,
    pub num_hosts: usize,
    pub num_vars: usize,
    /// `v -> (cfg, pe)`: configuration blocks in exploration order, PEs in
    /// dense order inside a block (the engine's order without `set_order`).
    pub vars: Vec<Var>,
    /// `pe * num_configs + cfg -> v`.
    pub var_index: Vec<usize>,
    /// Max FIC-rate contribution of variable `v`:
    /// `P_C(c) · Σ_{j ∈ pred} Δ(j, c)`.
    pub w_ic: Vec<f64>,
    /// Cost-rate of *one* active replica for variable `v`:
    /// `P_C(c) · Σ_{j ∈ pred} γ(j, x)·Δ(j, c)`.
    pub w_cost: Vec<f64>,
    /// CPU load (cycles/s) of one active replica: `pe * num_configs + cfg`.
    pub replica_load: Vec<f64>,
    /// Hosts of the two replicas of each PE.
    pub host_of: Vec<[u32; 2]>,
    /// Capacity `K` of each host.
    pub cap: Vec<f64>,
    /// Inputs of each PE (dense index).
    pub pe_in: Vec<Vec<InEdge>>,
    /// PE successors of each PE (dense indices).
    pub pe_succ: Vec<Vec<u32>>,
    /// Outgoing PE->PE edges of each PE with their selectivity (one entry
    /// per edge, parallel edges kept) — the chain-aware IC bound propagates
    /// Δ̂ upper-bound changes along these.
    pub pe_out: Vec<Vec<(u32, f64)>>,
    /// PE predecessors of each PE (dense indices, deduplicated) — the edge
    /// set used by the per-restart topological re-ordering.
    pub pe_pred: Vec<Vec<u32>>,
    /// `host -> PEs with a replica placed on it` (deduplicated) — the scan
    /// set for capacity-based `Both` removal after a load change.
    pub host_pes: Vec<Vec<u32>>,
    /// `source_dense * num_configs + cfg -> Δ(source, cfg)`.
    pub source_rate: Vec<f64>,
    /// `P_C(c)` indexed by `ConfigId`.
    pub prob: Vec<f64>,
    /// Capacity-aware upper bound on each configuration's total FIC-rate
    /// contribution, indexed by `ConfigId`: a per-host fractional knapsack
    /// over half-credits (`w_ic/2` per replica host) bounds the `Both`
    /// credit the cluster can physically host in that configuration,
    /// independent of chain structure.
    pub kub: Vec<f64>,
    /// Variables with `w_ic > 0` in ascending `w_cost / w_ic` order (ties by
    /// variable index): the fill order of the IC-deficit cover bound.
    pub cover: Vec<CoverItem>,
    /// Root presolve: the first `(PE, config)` (in variable order) whose
    /// single-replica load alone reaches the capacity of both its hosts.
    /// No CPU-feasible strategy exists then (eq. 12 needs one replica
    /// active, eq. 11 rejects `load >= K`).
    pub root_conflict: Option<RootConflict>,
    /// `Σ_v w_ic[v]` — BIC divided by `T` (rate units).
    pub bic_rate: f64,
    /// `ic_requirement · bic_rate`: the absolute FIC-rate goal.
    pub goal_fic: f64,
    /// `Σ_v w_cost[v]`: cost-rate of the single-replica-everywhere strategy.
    pub total_w_cost: f64,
}

impl Prep {
    /// Build the tables for a `k = 2` problem.
    pub fn build(problem: &Problem) -> Self {
        assert_eq!(problem.k(), 2, "FT-Search supports k = 2 only");
        let g = problem.app.graph();
        let cs = problem.app.configs();
        let rates = problem.rates();
        let np = g.num_pes();
        let nq = cs.num_configs();
        let nh = problem.placement.num_hosts();

        // Sort configurations by all-active total load, descending.
        let mut cfg_order: Vec<ConfigId> = cs.configs().collect();
        let total_load =
            |c: ConfigId| -> f64 { (0..np).map(|pe| rates.pe_input_load(pe, c)).sum() };
        cfg_order.sort_by(|a, b| {
            total_load(*b)
                .partial_cmp(&total_load(*a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut vars = Vec::with_capacity(np * nq);
        let mut var_index = vec![usize::MAX; np * nq];
        for &c in &cfg_order {
            for pe in 0..np {
                // `pes()` is already in topological order; dense index == rank.
                let v = vars.len();
                vars.push(Var {
                    cfg: c,
                    pe: pe as u32,
                });
                var_index[pe * nq + c.index()] = v;
            }
        }

        let mut w_ic = vec![0.0; vars.len()];
        let mut w_cost = vec![0.0; vars.len()];
        let mut replica_load = vec![0.0; np * nq];
        for (v, var) in vars.iter().enumerate() {
            let pe = var.pe as usize;
            let c = var.cfg;
            w_ic[v] = cs.prob(c) * rates.pe_input_rate(pe, c);
            w_cost[v] = cs.prob(c) * rates.pe_input_load(pe, c);
            replica_load[pe * nq + c.index()] = rates.pe_input_load(pe, c);
        }

        let host_of: Vec<[u32; 2]> = (0..np)
            .map(|pe| {
                [
                    problem.placement.host_of(pe, 0).0,
                    problem.placement.host_of(pe, 1).0,
                ]
            })
            .collect();
        let cap: Vec<f64> = problem
            .placement
            .hosts()
            .iter()
            .map(|h| h.capacity)
            .collect();

        let mut pe_in = vec![Vec::new(); np];
        let mut pe_succ = vec![Vec::new(); np];
        let mut pe_out: Vec<Vec<(u32, f64)>> = vec![Vec::new(); np];
        for (dense, &pe) in g.pes().iter().enumerate() {
            for e in g.in_edges(pe) {
                let from = g.component(e.from);
                match from.kind {
                    ComponentKind::Source => pe_in[dense].push(InEdge {
                        from_source: true,
                        idx: g.source_dense_index(e.from).unwrap() as u32,
                        sel: e.selectivity,
                    }),
                    ComponentKind::Pe => pe_in[dense].push(InEdge {
                        from_source: false,
                        idx: g.pe_dense_index(e.from).unwrap() as u32,
                        sel: e.selectivity,
                    }),
                    ComponentKind::Sink => unreachable!("edge from sink"),
                }
            }
            for e in g.out_edges(pe) {
                if g.is_pe(e.to) {
                    let to = g.pe_dense_index(e.to).unwrap() as u32;
                    pe_succ[dense].push(to);
                    pe_out[dense].push((to, e.selectivity));
                }
            }
        }

        let mut pe_pred: Vec<Vec<u32>> = pe_in
            .iter()
            .map(|ins| {
                let mut p: Vec<u32> = ins
                    .iter()
                    .filter(|e| !e.from_source)
                    .map(|e| e.idx)
                    .collect();
                p.sort_unstable();
                p.dedup();
                p
            })
            .collect();
        for p in &mut pe_pred {
            p.shrink_to_fit();
        }

        let mut host_pes: Vec<Vec<u32>> = vec![Vec::new(); nh];
        for (pe, hosts) in host_of.iter().enumerate() {
            let h0 = hosts[0] as usize;
            let h1 = hosts[1] as usize;
            host_pes[h0].push(pe as u32);
            if h1 != h0 {
                host_pes[h1].push(pe as u32);
            }
        }

        let ns = g.num_sources();
        let mut source_rate = vec![0.0; ns * nq];
        for s in 0..ns {
            for c in cs.configs() {
                source_rate[s * nq + c.index()] = cs.source_rate(s, c);
            }
        }

        let prob: Vec<f64> = cs.configs().map(|c| cs.prob(c)).collect();

        let mut kub = vec![0.0; nq];
        for c in 0..nq {
            // (density, value, load) per replica host.
            let item = |w: f64, l: f64| (w / l, w, l);
            let mut per_host: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); nh];
            let mut max_c = 0.0;
            let mut free = 0.0;
            for pe in 0..np {
                let v = var_index[pe * nq + c];
                let w = w_ic[v];
                max_c += w;
                let l = replica_load[pe * nq + c];
                let h0 = host_of[pe][0] as usize;
                let h1 = host_of[pe][1] as usize;
                if l <= 0.0 {
                    free += w;
                } else if h0 == h1 {
                    per_host[h0].push(item(w, 2.0 * l));
                } else {
                    per_host[h0].push(item(w / 2.0, l));
                    per_host[h1].push(item(w / 2.0, l));
                }
            }
            let mut total = free;
            for (h, items) in per_host.iter_mut().enumerate() {
                // Density descending on the precomputed key: a total order
                // (a cross-multiplied comparison is not one under rounding,
                // and a greedy fill out of order under-estimates the bound).
                // The sort is stable, so equal densities keep PE order.
                items.sort_by(|a, b| b.0.total_cmp(&a.0));
                let mut left = cap[h];
                for &(_, w, l) in items.iter() {
                    if l <= left {
                        total += w;
                        left -= l;
                    } else {
                        total += w * left / l;
                        break;
                    }
                }
            }
            kub[c] = total.min(max_c);
        }

        let mut cover: Vec<CoverItem> = vars
            .iter()
            .enumerate()
            .filter(|&(v, _)| w_ic[v] > 0.0)
            .map(|(v, var)| CoverItem {
                var: v as u32,
                slot: (var.pe as usize * nq + var.cfg.index()) as u32,
                prob: prob[var.cfg.index()],
                w_ic: w_ic[v],
                density: w_cost[v] / w_ic[v],
            })
            .collect();
        // Stable, so equal densities keep variable order.
        cover.sort_by(|a, b| a.density.total_cmp(&b.density));

        let root_conflict = vars.iter().find_map(|var| {
            let pe = var.pe as usize;
            let load = replica_load[pe * nq + var.cfg.index()];
            let [h0, h1] = host_of[pe];
            let capacities = [cap[h0 as usize], cap[h1 as usize]];
            (load >= capacities[0] && load >= capacities[1]).then_some(RootConflict {
                pe,
                config: var.cfg,
                load,
                hosts: [HostId(h0), HostId(h1)],
                capacities,
            })
        });

        let bic_rate: f64 = w_ic.iter().sum();
        let total_w_cost: f64 = w_cost.iter().sum();

        Self {
            num_pes: np,
            num_configs: nq,
            num_hosts: nh,
            num_vars: vars.len(),
            vars,
            var_index,
            w_ic,
            w_cost,
            replica_load,
            host_of,
            cap,
            pe_in,
            pe_succ,
            pe_out,
            pe_pred,
            host_pes,
            source_rate,
            prob,
            kub,
            cover,
            root_conflict,
            bic_rate,
            goal_fic: problem.ic_requirement * bic_rate,
            total_w_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{chain_problem, fig2_problem};

    #[test]
    fn variables_cover_product_config_major() {
        let p = fig2_problem(0.6);
        let prep = Prep::build(&p);
        assert_eq!(prep.num_vars, 4); // 2 PEs x 2 configs
                                      // High (config 1) is more resource hungry, so it is explored first.
        assert_eq!(prep.vars[0].cfg, ConfigId(1));
        assert_eq!(prep.vars[1].cfg, ConfigId(1));
        assert_eq!(prep.vars[2].cfg, ConfigId(0));
        // PEs are in topological order inside each configuration.
        assert_eq!(prep.vars[0].pe, 0);
        assert_eq!(prep.vars[1].pe, 1);
    }

    #[test]
    fn weights_match_hand_computation() {
        let p = fig2_problem(0.6);
        let prep = Prep::build(&p);
        // Var 0 = (High, pe1): w_ic = 0.2 * 8, w_cost = 0.2 * 800.
        assert!((prep.w_ic[0] - 1.6).abs() < 1e-12);
        assert!((prep.w_cost[0] - 160.0).abs() < 1e-12);
        // BIC rate = 0.8*8 + 0.2*16 = 9.6.
        assert!((prep.bic_rate - 9.6).abs() < 1e-12);
        assert!((prep.goal_fic - 0.6 * 9.6).abs() < 1e-12);
    }

    #[test]
    fn graph_navigation_tables() {
        let p = fig2_problem(0.6);
        let prep = Prep::build(&p);
        // pe0 reads from the source, pe1 from pe0.
        assert!(prep.pe_in[0][0].from_source);
        assert!(!prep.pe_in[1][0].from_source);
        assert_eq!(prep.pe_in[1][0].idx, 0);
        assert_eq!(prep.pe_succ[0], vec![1]);
        assert!(prep.pe_succ[1].is_empty());
        assert!(prep.pe_pred[0].is_empty());
        assert_eq!(prep.pe_pred[1], vec![0]);
    }

    #[test]
    fn cover_order_is_total_and_ascending() {
        // Densities one rounding apart: the instance on which a
        // cross-multiplied comparator made `sort_by` panic.
        let prep = Prep::build(&chain_problem(24, 4, 0.5));
        assert_eq!(prep.cover.len(), prep.num_vars);
        assert!(prep
            .cover
            .windows(2)
            .all(|w| (w[0].density, w[0].var) < (w[1].density, w[1].var)));
        for it in &prep.cover {
            let v = it.var as usize;
            assert_eq!(it.density, prep.w_cost[v] / prep.w_ic[v]);
            assert_eq!(prep.var_index[it.slot as usize], v);
        }
        assert!(prep.root_conflict.is_none());
    }

    #[test]
    fn var_index_inverts_vars() {
        let p = fig2_problem(0.6);
        let prep = Prep::build(&p);
        for (v, var) in prep.vars.iter().enumerate() {
            assert_eq!(
                prep.var_index[var.pe as usize * prep.num_configs + var.cfg.index()],
                v
            );
        }
    }
}

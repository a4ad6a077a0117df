//! The synthetic application generator (§5.2).

use laar_model::{
    Application, ApplicationGraph, ComponentId, ConfigSpace, GraphBuilder, Host, HostId, Placement,
    RateTable,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Parameters of one generated application (defaults reproduce §5.2).
#[derive(Debug, Clone)]
pub struct GenParams {
    /// Number of PEs (the paper uses 24, i.e. 48 replicas).
    pub num_pes: usize,
    /// Number of worker hosts.
    pub num_hosts: usize,
    /// Host CPU capacity `K`. We use 1.0 "CPU-second per second", so
    /// per-tuple costs are in CPU-seconds and cost values are CPU-seconds.
    pub host_capacity: f64,
    /// Range from which the target average out-degree is drawn
    /// (paper: 1.5–3).
    pub out_degree: (f64, f64),
    /// Selectivity range (paper: uniform 0.5–1.5).
    pub selectivity: (f64, f64),
    /// Source rate range in tuples/s (paper: uniform 1–20 for both Low and
    /// High, Low < High).
    pub rate_range: (f64, f64),
    /// Probability of the High configuration in the contract's `P_C`
    /// (matches the trace's High share; paper: 1/3).
    pub p_high: f64,
    /// Minimum `low/high` rate ratio. With a very bursty source (tiny
    /// ratio) the Low configuration carries too little of BIC for an IC 0.7
    /// SLA to be satisfiable at all; the runtime corpus keeps the ratio
    /// above this floor so all three LAAR variants are solvable (as in the
    /// paper's 100-application population), while the solver corpus sets it
    /// to 0 to exercise infeasible (NUL) outcomes as in Fig. 4.
    pub min_rate_ratio: f64,
    /// Target utilization of the hottest host with all replicas active in
    /// the Low configuration (must stay `< 1`; paper: "not overloaded").
    pub low_util_target: f64,
    /// Target utilization of the hottest host with all replicas active in
    /// the High configuration (must be `> 1`; paper: "overloaded").
    pub high_util_target: f64,
    /// Billing period / trace duration in seconds (paper: 5 minutes).
    pub duration: f64,
}

impl Default for GenParams {
    fn default() -> Self {
        Self {
            num_pes: 24,
            num_hosts: 4,
            host_capacity: 1.0,
            out_degree: (1.5, 3.0),
            selectivity: (0.5, 1.5),
            rate_range: (1.0, 20.0),
            p_high: 1.0 / 3.0,
            min_rate_ratio: 0.45,
            low_util_target: 0.80,
            high_util_target: 1.25,
            duration: 300.0,
        }
    }
}

impl GenParams {
    /// Scale the fixture by `factor`: host and PE counts multiply (rounded,
    /// floored at 1) and the source-rate range scales linearly so per-host
    /// pressure tracks the bigger population. Cost calibration re-derives
    /// `α` against the scaled deployment, so scaled fixtures keep the
    /// paper's shape — Low fits, High overloads — at any size. Used by
    /// `laar generate --scale` and the benchmark's `sim-dense` fixture.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let scale = |v: usize| ((v as f64 * factor).round() as usize).max(1);
        Self {
            num_pes: scale(self.num_pes),
            num_hosts: scale(self.num_hosts),
            rate_range: (self.rate_range.0 * factor, self.rate_range.1 * factor),
            ..self.clone()
        }
    }

    /// The wide benchmark fixture (`sim-wide`): [`GenParams::scaled`] with the
    /// paper's source-rate range restored and sub-unit selectivities.
    /// The default selectivity range (0.5–1.5) makes per-PE tuple rates
    /// grow multiplicatively along fan-out chains, so a 1k-PE graph
    /// amplifies the source by ~10⁵ and a tuple-level simulation measures
    /// queue pops instead of per-replica scheduling overhead. Capping the
    /// expected branching·selectivity product below one keeps the total
    /// tuple volume near-linear in the PE count, while cost calibration
    /// (`high_util_target`) still saturates the hottest host at High.
    pub fn scaled_bench(factor: f64) -> Self {
        Self {
            selectivity: (0.2, 0.6),
            rate_range: (1.0, 20.0),
            ..Self::default().scaled(factor)
        }
    }
}

/// One generated application: the contract plus its replicated placement.
#[derive(Debug, Clone)]
pub struct GeneratedApp {
    /// The application (graph + descriptor + billing period).
    pub app: Application,
    /// The two-fold replicated placement.
    pub placement: Placement,
    /// The Low rate of the single source (tuples/s).
    pub low_rate: f64,
    /// The High rate of the single source (tuples/s).
    pub high_rate: f64,
    /// The seed that produced this application.
    pub seed: u64,
}

impl GeneratedApp {
    /// The fraction of time the High configuration is expected to be active
    /// (the contract's `P_C(High)`).
    pub fn p_high(&self) -> f64 {
        self.app.configs().prob(laar_model::ConfigId(1))
    }
}

/// Generate the random DAG topology: a single source, `num_pes` PEs each
/// reachable from the source, one sink collecting all terminal PEs, extra
/// edges up to the target average out-degree.
fn generate_topology(
    rng: &mut StdRng,
    params: &GenParams,
    costs_sels: &mut Vec<(f64, f64)>,
) -> ApplicationGraph {
    let n = params.num_pes;
    loop {
        let mut b = GraphBuilder::new();
        let source = b.add_source("source");
        let pes: Vec<ComponentId> = (0..n).map(|i| b.add_pe(&format!("pe{i}"))).collect();
        let sink = b.add_sink("sink");

        costs_sels.clear();
        let mut edges: Vec<(ComponentId, ComponentId)> = Vec::new();
        // Dedup set kept in lockstep with `edges`: the linear
        // `edges.contains` scan made topology generation O(E²), which
        // dominates wall time for the 10k/100k-PE scaled fixtures. The RNG
        // is only consulted after a successful insert, so the draw sequence
        // (and therefore every generated graph) is unchanged.
        let mut edge_set: HashSet<(ComponentId, ComponentId)> = HashSet::new();
        let connect = |b: &mut GraphBuilder,
                       edges: &mut Vec<(ComponentId, ComponentId)>,
                       edge_set: &mut HashSet<(ComponentId, ComponentId)>,
                       costs_sels: &mut Vec<(f64, f64)>,
                       rng: &mut StdRng,
                       from: ComponentId,
                       to: ComponentId|
         -> bool {
            if !edge_set.insert((from, to)) {
                return false;
            }
            let sel = rng.random_range(params.selectivity.0..params.selectivity.1);
            // Raw (pre-calibration) per-tuple cost; rescaled later.
            let cost = rng.random_range(0.5..1.5);
            b.connect(from, to, sel, cost).expect("valid edge");
            edges.push((from, to));
            costs_sels.push((cost, sel));
            true
        };

        // Backbone: every PE has one incoming edge from an earlier node,
        // biased toward shallow attachment (square-law preference for the
        // source and early PEs). The paper's graphs have average out-degree
        // 1.5-3, i.e. strong fan-out and short chains; depth matters for
        // LAAR because deactivating an upstream PE cascades through the
        // whole pessimistic-model chain below it.
        for (i, &pe) in pes.iter().enumerate() {
            let from = if i == 0 {
                source
            } else {
                let u = rng.random_range(0.0..1.0f64);
                let j = ((u * u) * (i + 1) as f64) as usize; // 0 = source
                if j == 0 {
                    source
                } else {
                    pes[j - 1]
                }
            };
            connect(&mut b, &mut edges, &mut edge_set, costs_sels, rng, from, pe);
        }

        // Extra edges toward the target out-degree. The average counts
        // source + PEs as non-sink nodes; sink edges are added afterwards.
        let target_avg = rng.random_range(params.out_degree.0..params.out_degree.1);
        let non_sink_nodes = n + 1;
        // Sink edges will add roughly the number of terminal PEs; estimate
        // them post-hoc, so aim the PE/source edge count at
        // target_avg * non_sink_nodes minus an estimated sink share.
        let target_edges = (target_avg * non_sink_nodes as f64) as usize;
        let mut attempts = 0;
        while edges.len() < target_edges && attempts < target_edges * 20 {
            attempts += 1;
            let to_idx = rng.random_range(0..n);
            let to = pes[to_idx];
            let from = if to_idx == 0 || rng.random_bool(0.15) {
                source
            } else {
                pes[rng.random_range(0..to_idx)]
            };
            connect(&mut b, &mut edges, &mut edge_set, costs_sels, rng, from, to);
        }

        // Terminal PEs feed the sink.
        let with_out: HashSet<ComponentId> = edges.iter().map(|&(f, _)| f).collect();
        for &pe in &pes {
            if !with_out.contains(&pe) {
                b.connect_sink(pe, sink).expect("sink edge");
            }
        }

        match b.build() {
            Ok(g) => return g,
            Err(_) => continue, // extremely unlikely; retry with same rng
        }
    }
}

/// Balanced replicated placement: PEs sorted by their High-configuration
/// load (descending), replica 0 to the least-loaded host, replica 1 to the
/// least-loaded *other* host.
fn balanced_placement(
    graph: &ApplicationGraph,
    rates: &RateTable,
    high: laar_model::ConfigId,
    num_hosts: usize,
    capacity: f64,
) -> Placement {
    let np = graph.num_pes();
    let hosts: Vec<Host> = (0..num_hosts)
        .map(|i| Host {
            id: HostId(i as u32),
            name: format!("host{i}"),
            capacity,
        })
        .collect();

    let mut order: Vec<usize> = (0..np).collect();
    order.sort_by(|&a, &b| {
        rates
            .pe_input_load(b, high)
            .partial_cmp(&rates.pe_input_load(a, high))
            .unwrap()
    });

    // Lazy-deletion min-heap over (load bits, host index): the per-PE full
    // re-sort made placement O(P·H log H), which dominates generation for
    // the 100k-PE scaled fixtures. Loads are non-negative, so `to_bits()`
    // orders exactly like the f64 comparison the sort used, and the index
    // tiebreak reproduces the stable sort's lowest-index-first choice —
    // the produced placement is bit-identical to the sort-based one (see
    // the oracle test below). Entries go stale when a host's load grows;
    // they are skipped on pop by comparing against the live load table.
    let mut load = vec![0.0f64; num_hosts];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..num_hosts).map(|h| Reverse((0u64, h))).collect();
    let mut assignment = vec![HostId(0); np * 2];
    for &pe in &order {
        let l = rates.pe_input_load(pe, high);
        let mut pop_fresh = |load: &[f64], skip: Option<usize>| loop {
            let Reverse((bits, h)) = heap.pop().expect("a live host entry remains");
            if bits == load[h].to_bits() && Some(h) != skip {
                return h;
            }
        };
        let h0 = pop_fresh(&load, None);
        let h1 = if num_hosts > 1 {
            pop_fresh(&load, Some(h0))
        } else {
            h0
        };
        assignment[pe * 2] = HostId(h0 as u32);
        assignment[pe * 2 + 1] = HostId(h1 as u32);
        load[h0] += l;
        load[h1] += l;
        heap.push(Reverse((load[h0].to_bits(), h0)));
        if h1 != h0 {
            heap.push(Reverse((load[h1].to_bits(), h1)));
        }
    }
    Placement::new(graph, 2, hosts, assignment).expect("valid placement")
}

/// Generate one application per §5.2. Deterministic given `seed`.
pub fn generate_app(params: &GenParams, seed: u64) -> GeneratedApp {
    let mut rng = StdRng::seed_from_u64(seed);

    // Rates: Low < High, with enough headroom that the calibration targets
    // are jointly satisfiable (load scales linearly with the single source's
    // rate, so max-host-load(Low)/max-host-load(High) = low/high exactly).
    let max_ratio = params.low_util_target / params.high_util_target * 0.95;
    assert!(
        params.min_rate_ratio < max_ratio,
        "min_rate_ratio {} must stay below the calibration ceiling {}",
        params.min_rate_ratio,
        max_ratio
    );
    let (low_rate, high_rate) = loop {
        let a = rng.random_range(params.rate_range.0..params.rate_range.1);
        let b = rng.random_range(params.rate_range.0..params.rate_range.1);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if hi > 0.0 && lo / hi <= max_ratio && lo / hi >= params.min_rate_ratio {
            break (lo, hi);
        }
    };

    let mut costs_sels = Vec::new();
    let graph = generate_topology(&mut rng, params, &mut costs_sels);

    // Calibrate costs: scale all per-tuple costs by α so the hottest host
    // with all replicas active reaches exactly `high_util_target` in High.
    let cs = ConfigSpace::new(
        &graph,
        vec![vec![low_rate, high_rate]],
        vec![1.0 - params.p_high, params.p_high],
    )
    .expect("config space");
    let app_raw = Application::new("raw", graph.clone(), cs.clone(), params.duration)
        .expect("raw application");
    let rates_raw = RateTable::compute(&app_raw);
    let high = laar_model::ConfigId(1);
    let placement_raw = balanced_placement(
        &graph,
        &rates_raw,
        high,
        params.num_hosts,
        params.host_capacity,
    );

    // One pass over PEs instead of `replicas_on` per host (O(P·H) — the
    // other wall-time cliff at 100k PEs). Each host still accumulates its
    // replica loads in ascending (pe, replica) order, so the per-host f64
    // sums — and therefore α and every downstream cost — are unchanged.
    let mut host_load = vec![0.0f64; params.num_hosts];
    for pe in 0..graph.num_pes() {
        let l = rates_raw.pe_input_load(pe, high);
        for r in 0..placement_raw.k() {
            host_load[placement_raw.host_of(pe, r).index()] += l;
        }
    }
    let max_high_load = host_load.iter().copied().fold(0.0f64, f64::max);
    let alpha = params.high_util_target * params.host_capacity / max_high_load;

    // Rebuild the graph with scaled costs.
    let mut b = GraphBuilder::new();
    let mut id_map = Vec::with_capacity(graph.num_components());
    for c in graph.components() {
        let new_id = match c.kind {
            laar_model::ComponentKind::Source => b.add_source(&c.name),
            laar_model::ComponentKind::Pe => b.add_pe(&c.name),
            laar_model::ComponentKind::Sink => b.add_sink(&c.name),
        };
        id_map.push(new_id);
    }
    for e in graph.edges() {
        b.connect(
            id_map[e.from.index()],
            id_map[e.to.index()],
            e.selectivity,
            e.cpu_cost * alpha,
        )
        .expect("scaled edge");
    }
    let graph = b.build().expect("scaled graph");
    let cs = ConfigSpace::new(
        &graph,
        vec![vec![low_rate, high_rate]],
        vec![1.0 - params.p_high, params.p_high],
    )
    .expect("config space");
    let app =
        Application::new(&format!("gen-{seed}"), graph, cs, params.duration).expect("application");
    let rates = RateTable::compute(&app);
    let placement = balanced_placement(
        app.graph(),
        &rates,
        high,
        params.num_hosts,
        params.host_capacity,
    );

    GeneratedApp {
        app,
        placement,
        low_rate,
        high_rate,
        seed,
    }
}

/// Utilization of the hottest host with all replicas active in `config`.
pub fn max_host_utilization(gen: &GeneratedApp, config: laar_model::ConfigId) -> f64 {
    let rates = RateTable::compute(&gen.app);
    gen.placement
        .hosts()
        .iter()
        .map(|h| {
            let load: f64 = gen
                .placement
                .replicas_on(h.id)
                .into_iter()
                .map(|(pe, _)| rates.pe_input_load(pe, config))
                .sum();
            load / h.capacity
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_model::ConfigId;

    #[test]
    fn generated_app_matches_paper_invariants() {
        for seed in 0..10 {
            let g = generate_app(&GenParams::default(), seed);
            assert_eq!(g.app.graph().num_pes(), 24);
            assert_eq!(g.app.graph().num_sources(), 1);
            assert!(g.low_rate < g.high_rate);
            // (i) not overloaded all-active at Low.
            let low_util = max_host_utilization(&g, ConfigId(0));
            assert!(low_util < 1.0, "seed {seed}: low util {low_util}");
            // (ii) overloaded all-active at High.
            let high_util = max_host_utilization(&g, ConfigId(1));
            assert!(high_util > 1.0, "seed {seed}: high util {high_util}");
        }
    }

    #[test]
    fn calibration_hits_targets() {
        let params = GenParams::default();
        let g = generate_app(&params, 42);
        let high_util = max_host_utilization(&g, ConfigId(1));
        assert!(
            (high_util - params.high_util_target).abs() < 1e-6,
            "high util {high_util}"
        );
        let low_util = max_host_utilization(&g, ConfigId(0));
        assert!(low_util <= params.low_util_target + 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_app(&GenParams::default(), 7);
        let b = generate_app(&GenParams::default(), 7);
        assert_eq!(a.app, b.app);
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_app(&GenParams::default(), 1);
        let b = generate_app(&GenParams::default(), 2);
        assert_ne!(a.app, b.app);
    }

    #[test]
    fn out_degree_within_range() {
        for seed in 0..10 {
            let g = generate_app(&GenParams::default(), seed);
            let d = g.app.graph().average_out_degree();
            assert!(
                (1.0..=3.6).contains(&d),
                "seed {seed}: out degree {d} out of range"
            );
        }
    }

    #[test]
    fn selectivities_in_range() {
        let g = generate_app(&GenParams::default(), 3);
        for e in g.app.graph().edges() {
            if g.app.graph().is_pe(e.to) {
                assert!((0.5..=1.5).contains(&e.selectivity));
            }
        }
    }

    #[test]
    fn replicas_on_distinct_hosts() {
        let g = generate_app(&GenParams::default(), 5);
        for pe in 0..24 {
            assert_ne!(g.placement.host_of(pe, 0), g.placement.host_of(pe, 1));
        }
    }

    #[test]
    fn p_high_matches_params() {
        let params = GenParams {
            p_high: 0.25,
            ..GenParams::default()
        };
        let g = generate_app(&params, 11);
        assert!((g.p_high() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn small_instances_generate() {
        let params = GenParams {
            num_pes: 4,
            num_hosts: 2,
            ..GenParams::default()
        };
        let g = generate_app(&params, 9);
        assert_eq!(g.app.graph().num_pes(), 4);
        assert!(max_host_utilization(&g, ConfigId(1)) > 1.0);
    }

    #[test]
    fn scaled_params_preserve_calibration_shape() {
        let base = GenParams::default();
        let p8 = base.scaled(8.0);
        assert_eq!(p8.num_pes, 192);
        assert_eq!(p8.num_hosts, 32);
        assert!((p8.rate_range.0 - 8.0).abs() < 1e-12);
        let g = generate_app(&p8, 21);
        assert_eq!(g.app.graph().num_pes(), 192);
        assert_eq!(g.placement.num_hosts(), 32);
        assert!(max_host_utilization(&g, ConfigId(0)) < 1.0);
        assert!(max_host_utilization(&g, ConfigId(1)) > 1.0);
        // Fractional factors floor at one host/PE.
        let tiny = base.scaled(0.01);
        assert_eq!(tiny.num_pes.max(tiny.num_hosts), 1);
    }

    /// The sort-based placement `balanced_placement` replaced: per PE, a
    /// full stable re-sort of hosts by live load, lowest two picked.
    fn sort_oracle_placement(
        graph: &ApplicationGraph,
        rates: &RateTable,
        high: ConfigId,
        num_hosts: usize,
        capacity: f64,
    ) -> Placement {
        let np = graph.num_pes();
        let hosts: Vec<Host> = (0..num_hosts)
            .map(|i| Host {
                id: HostId(i as u32),
                name: format!("host{i}"),
                capacity,
            })
            .collect();
        let mut order: Vec<usize> = (0..np).collect();
        order.sort_by(|&a, &b| {
            rates
                .pe_input_load(b, high)
                .partial_cmp(&rates.pe_input_load(a, high))
                .unwrap()
        });
        let mut load = vec![0.0f64; num_hosts];
        let mut assignment = vec![HostId(0); np * 2];
        for &pe in &order {
            let l = rates.pe_input_load(pe, high);
            let mut hosts_by_load: Vec<usize> = (0..num_hosts).collect();
            hosts_by_load.sort_by(|&a, &b| load[a].partial_cmp(&load[b]).unwrap());
            let h0 = hosts_by_load[0];
            let h1 = if num_hosts > 1 { hosts_by_load[1] } else { h0 };
            assignment[pe * 2] = HostId(h0 as u32);
            assignment[pe * 2 + 1] = HostId(h1 as u32);
            load[h0] += l;
            load[h1] += l;
        }
        Placement::new(graph, 2, hosts, assignment).expect("valid placement")
    }

    #[test]
    fn heap_placement_matches_sort_oracle() {
        // The lazy-deletion heap must reproduce the historical sort-based
        // placement bit for bit (including lowest-index tie-breaks), or
        // every generated fixture would silently change.
        for seed in 0..6 {
            let g = generate_app(&GenParams::default(), seed);
            let rates = RateTable::compute(&g.app);
            for num_hosts in [1, 2, 4, 7] {
                let heap = balanced_placement(g.app.graph(), &rates, ConfigId(1), num_hosts, 1.0);
                let oracle =
                    sort_oracle_placement(g.app.graph(), &rates, ConfigId(1), num_hosts, 1.0);
                assert_eq!(heap, oracle, "seed {seed} hosts {num_hosts}");
            }
        }
        let big = generate_app(&GenParams::default().scaled(4.0), 17);
        let rates = RateTable::compute(&big.app);
        let heap = balanced_placement(big.app.graph(), &rates, ConfigId(1), 16, 1.0);
        let oracle = sort_oracle_placement(big.app.graph(), &rates, ConfigId(1), 16, 1.0);
        assert_eq!(heap, oracle);
    }

    #[test]
    fn single_host_instances_generate() {
        let params = GenParams {
            num_pes: 3,
            num_hosts: 1,
            ..GenParams::default()
        };
        let g = generate_app(&params, 13);
        assert_eq!(g.placement.num_hosts(), 1);
    }
}

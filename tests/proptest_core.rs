//! Property-based tests of the optimizer layer: IC bounds and
//! monotonicity, cost monotonicity, solver-solution validity, greedy
//! invariants, and the HAController's dominating-configuration lookup
//! against brute force.

use laar::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

/// A small random problem: 3–7 PEs in a random layered DAG over 2–3 hosts,
/// with loads calibrated to overload at High (like the paper's generator,
/// but built inline so shrinking works on all the knobs).
fn arb_problem() -> impl Strategy<Value = (u64, usize, usize, f64)> {
    (any::<u64>(), 3usize..8, 2usize..4, 0.0f64..0.8)
}

fn make_problem(seed: u64, num_pes: usize, num_hosts: usize, ic: f64) -> Problem {
    let gen = laar_gen::generator::generate_app(
        &GenParams {
            num_pes,
            num_hosts,
            duration: 30.0,
            ..GenParams::default()
        },
        seed,
    );
    Problem::new(gen.app, gen.placement, ic).unwrap()
}

/// A random valid strategy for a problem (every PE keeps >= 1 replica).
fn random_strategy(problem: &Problem, seed: u64) -> ActivationStrategy {
    let mut s = ActivationStrategy::all_inactive(problem.num_pes(), problem.num_configs(), 2);
    let mut x = seed | 1;
    for pe in 0..problem.num_pes() {
        for c in 0..problem.num_configs() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let cfg = ConfigId(c as u32);
            match (x >> 61) % 3 {
                0 => s.set_active(pe, cfg, 0, true),
                1 => s.set_active(pe, cfg, 1, true),
                _ => {
                    s.set_active(pe, cfg, 0, true);
                    s.set_active(pe, cfg, 1, true);
                }
            }
        }
    }
    s
}

/// Per-source rate levels of a product space: 1–4 sources with 1–4 levels
/// each, unsorted, drawn from a coarse grid (so levels repeat), from a
/// continuous range, or one ulp above the source's previous level.
fn arb_levels() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..3, 0u32..8, 0.0f64..20.0), 1..5),
        1..5,
    )
    .prop_map(|sources| {
        sources
            .into_iter()
            .map(|draws| {
                let mut levels: Vec<f64> = Vec::new();
                for (kind, k, x) in draws {
                    let v = match (kind, levels.last()) {
                        (1, _) => x,
                        (2, Some(prev)) => prev.next_up(),
                        _ => k as f64 * 1.5,
                    };
                    levels.push(v);
                }
                levels
            })
            .collect()
    })
}

/// The product space over `rates`: one source per level set, all feeding
/// one PE, uniform probabilities.
fn product_space(rates: Vec<Vec<f64>>) -> ConfigSpace {
    let mut b = GraphBuilder::new();
    let pe = b.add_pe("pe");
    let sink = b.add_sink("sink");
    for i in 0..rates.len() {
        let s = b.add_source(&format!("s{i}"));
        b.connect(s, pe, 1.0, 1.0).unwrap();
    }
    b.connect_sink(pe, sink).unwrap();
    let n: usize = rates.iter().map(Vec::len).product();
    ConfigSpace::new(&b.build().unwrap(), rates, vec![1.0 / n as f64; n]).unwrap()
}

/// A measured rate vector, one `(kind, a, b)` draw per source: at level
/// `a`, one ulp below or above it, between levels `a` and `b`, at zero,
/// above every level, NaN or +∞.
fn query(cs: &ConfigSpace, draws: &[(u32, usize, usize)]) -> Vec<f64> {
    (0..cs.num_sources())
        .map(|s| {
            let r = cs.rate_set(s);
            let (kind, a, b) = draws[s];
            let (x, y) = (r[a % r.len()], r[b % r.len()]);
            match kind {
                0..=3 => x,
                4 | 5 => x.next_down(),
                6 | 7 => x.next_up(),
                8..=10 => (x + y) / 2.0,
                11 | 12 => 0.0,
                13 => r.iter().fold(0.0, |m: f64, &v| m.max(v)) + 1.0,
                14 => f64::NAN,
                _ => f64::INFINITY,
            }
        })
        .collect()
}

/// The L1 slack `Σ (vᵢ − qᵢ)`, summed left to right.
fn slack(v: &[f64], q: &[f64]) -> f64 {
    v.iter().zip(q).fold(0.0, |s, (a, b)| s + (a - b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ic_is_bounded_and_sr_is_one((seed, np, nh, _ic) in arb_problem(), sseed in any::<u64>()) {
        let p = make_problem(seed, np, nh, 0.0);
        let ev = p.ic_evaluator();
        let s = random_strategy(&p, sseed);
        let ic = ev.ic(&s, &PessimisticFailure);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ic), "ic = {ic}");
        let sr = ActivationStrategy::all_active(np, p.num_configs(), 2);
        prop_assert!((ev.ic(&sr, &PessimisticFailure) - 1.0).abs() < 1e-9);
        prop_assert!((ev.ic(&s, &NoFailure) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn activation_monotonicity((seed, np, nh, _ic) in arb_problem(), sseed in any::<u64>(), pe_pick in any::<u32>(), c_pick in any::<u32>()) {
        let p = make_problem(seed, np, nh, 0.0);
        let ev = p.ic_evaluator();
        let cm = p.cost_model();
        let mut s = random_strategy(&p, sseed);
        let pe = (pe_pick as usize) % p.num_pes();
        let c = ConfigId(c_pick % p.num_configs() as u32);
        let ic_before = ev.ic(&s, &PessimisticFailure);
        let cost_before = cm.cost_cycles(&s);
        // Activate everything for one (pe, config) cell.
        s.set_active(pe, c, 0, true);
        s.set_active(pe, c, 1, true);
        let ic_after = ev.ic(&s, &PessimisticFailure);
        let cost_after = cm.cost_cycles(&s);
        prop_assert!(ic_after >= ic_before - 1e-12);
        prop_assert!(cost_after >= cost_before - 1e-12);
    }

    #[test]
    fn solver_solutions_are_feasible_and_beat_greedy((seed, np, nh, ic) in arb_problem()) {
        let p = make_problem(seed, np, nh, ic);
        let report = ftsearch::solve(
            &p,
            &FtSearchConfig::with_time_limit(Duration::from_secs(10)),
        ).unwrap();
        if let Some(sol) = report.outcome.solution() {
            prop_assert!(p.is_feasible(&sol.strategy), "{:?}", p.check(&sol.strategy));
            // If greedy is feasible for this IC too, the proved optimum
            // cannot cost more.
            if report.stats.proved {
                let g = greedy(&p);
                if p.is_feasible(&g.strategy) {
                    let cm = p.cost_model();
                    prop_assert!(
                        sol.cost_cycles <= cm.cost_cycles(&g.strategy) + 1e-6,
                        "optimal {} vs greedy {}",
                        sol.cost_cycles,
                        cm.cost_cycles(&g.strategy)
                    );
                }
            }
        }
    }

    #[test]
    fn greedy_never_breaks_eq12_and_never_costs_more_than_sr((seed, np, nh, _ic) in arb_problem()) {
        let p = make_problem(seed, np, nh, 0.0);
        let g = greedy(&p);
        g.strategy.validate(p.app.graph(), p.num_configs(), 2).unwrap();
        let cm = p.cost_model();
        let sr = static_replication(&p);
        prop_assert!(cm.cost_cycles(&g.strategy) <= cm.cost_cycles(&sr) + 1e-9);
    }

    #[test]
    fn nr_is_single_replica_and_never_overloaded((seed, np, nh, _ic) in arb_problem()) {
        let p = make_problem(seed, np, nh, 0.5);
        let report = ftsearch::solve(
            &p,
            &FtSearchConfig::with_time_limit(Duration::from_secs(10)),
        ).unwrap();
        if let Some(sol) = report.outcome.solution() {
            let nr = non_replicated(&p, &sol.strategy);
            for pe in 0..p.num_pes() {
                for c in 0..p.num_configs() {
                    prop_assert_eq!(nr.active_count(pe, ConfigId(c as u32)), 1);
                }
            }
            prop_assert!(p.cost_model().check_no_overload(&nr).is_ok());
        }
    }

    // Keeps the name it had under the R-tree the per-source snap replaced.
    #[test]
    fn rtree_matches_brute_force(
        rates in arb_levels(),
        queries in proptest::collection::vec(
            proptest::collection::vec((0u32..16, 0usize..4, 0usize..4), 4), 64),
    ) {
        let cs = product_space(rates);
        for draws in &queries {
            let q = query(&cs, draws);
            let got = cs.dominating_config(&q);
            // Brute force: every dominating configuration, in id order.
            let dominating: Vec<(ConfigId, Vec<f64>, f64)> = cs
                .configs()
                .map(|c| (c, cs.rate_vector(c)))
                .filter(|(_, v)| v.iter().zip(&q).all(|(a, b)| a >= b))
                .map(|(c, v)| {
                    let s = slack(&v, &q);
                    (c, v, s)
                })
                .collect();
            let Some(min) = dominating.iter().map(|d| d.2).min_by(f64::total_cmp) else {
                prop_assert_eq!(got, cs.max_config());
                continue;
            };
            let got_v = cs.rate_vector(got);
            prop_assert!(got_v.iter().zip(&q).all(|(a, b)| a >= b), "{got_v:?} vs {q:?}");
            prop_assert_eq!(slack(&got_v, &q).to_bits(), min.to_bits());
            // The id is pinned where one rate vector attains the minimum: the
            // first such id, i.e. the lowest index of a repeated level. Where
            // f64 absorption ties different vectors, any of them is exact.
            let mut minimal = dominating.iter().filter(|d| d.2 == min);
            let first = minimal.next().expect("the minimum is attained");
            if minimal.all(|d| d.1 == first.1) {
                prop_assert_eq!(got, first.0);
            }
        }
    }

    #[test]
    fn controller_selection_never_underestimates((seed, np, nh, _ic) in arb_problem(), q in 0.0f64..40.0) {
        let p = make_problem(seed, np, nh, 0.0);
        let cs = p.app.configs();
        let chosen = cs.dominating_config(&[q]);
        let rate = cs.source_rate(0, chosen);
        // Either the chosen configuration dominates the measurement, or the
        // measurement exceeds every declared rate and the max config is
        // returned.
        let max_rate = cs.source_rate(0, cs.max_config());
        prop_assert!(rate >= q.min(max_rate) - 1e-9);
    }
}

//! Corpus builders for the paper's two experiment populations:
//!
//! * the **runtime corpus** of 100 generated applications run on the
//!   cluster (Figs. 9–12);
//! * the **solver corpus** of 600 instances on 1–12 hosts with 2–12 PEs per
//!   host (Figs. 4–6).

use crate::generator::{generate_app, GenParams, GeneratedApp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate the runtime corpus: `n` applications with the default §5.2
/// parameters, seeds derived from `seed`.
pub fn runtime_corpus(n: usize, params: &GenParams, seed: u64) -> Vec<GeneratedApp> {
    (0..n)
        .map(|i| {
            generate_app(
                params,
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64),
            )
        })
        .collect()
}

/// One instance of the solver benchmark population.
#[derive(Debug, Clone)]
pub struct SolverInstance {
    /// The generated application + placement.
    pub gen: GeneratedApp,
    /// Number of hosts (1–12).
    pub num_hosts: usize,
    /// PEs per host (2–12); the PE count is `hosts × pes_per_host / 2`
    /// rounded up (two-fold replication, one replica slot per "core").
    pub pes_per_host: usize,
}

/// Generate the solver corpus: `n` instances with `hosts ∈ [1, 12]` and
/// `PEs per host ∈ [2, 12]` drawn uniformly (the paper's 600-instance
/// population for Figs. 4–6).
pub fn solver_corpus(n: usize, seed: u64) -> Vec<SolverInstance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let num_hosts = rng.random_range(1..=12usize);
        let pes_per_host = rng.random_range(2..=12usize);
        // Replica slots = hosts * pes_per_host; PEs = slots / 2 (k = 2).
        let num_pes = ((num_hosts * pes_per_host) / 2).max(1);
        let params = GenParams {
            num_pes,
            num_hosts,
            // Unconstrained burstiness: some instances must be infeasible
            // at strict IC constraints so Fig. 4 exhibits NUL outcomes.
            min_rate_ratio: 0.0,
            ..GenParams::default()
        };
        let gen = generate_app(
            &params,
            seed.wrapping_add(0x5851_F42D_4C95_7F2D)
                .wrapping_add(i as u64),
        );
        out.push(SolverInstance {
            gen,
            num_hosts,
            pes_per_host,
        });
    }
    out
}

/// The large-instance ladder of `tests/solver_cp.rs`: cluster
/// sizes well beyond the paper's 12×12 ceiling, scaling to hundreds of PEs.
/// Each rung stresses the anytime machinery (restarts, LNS, nogood reuse)
/// rather than exhaustive proving — at these sizes the interesting question
/// is how quickly a feasible incumbent appears and improves, so unlike
/// [`solver_corpus`] the rungs bound the Low/High rate ratio (milder
/// overload at High) to stay feasible at an IC constraint of 0.7 rather
/// than testing infeasibility proving at scale.
pub const LARGE_LADDER: &[(usize, usize)] = &[(16, 10), (20, 12), (24, 14), (32, 16), (40, 16)];

/// Generate the large-instance ladder: one instance per [`LARGE_LADDER`]
/// rung `(hosts, pes_per_host)`, PE count `hosts × pes_per_host / 2` as in
/// [`solver_corpus`], seeds derived from `seed`.
pub fn solver_corpus_large(seed: u64) -> Vec<SolverInstance> {
    LARGE_LADDER
        .iter()
        .enumerate()
        .map(|(i, &(num_hosts, pes_per_host))| {
            let params = GenParams {
                num_pes: ((num_hosts * pes_per_host) / 2).max(1),
                num_hosts,
                min_rate_ratio: 0.6,
                ..GenParams::default()
            };
            let gen = generate_app(
                &params,
                seed.wrapping_mul(0xD134_2543_DE82_EF95)
                    .wrapping_add(i as u64),
            );
            SolverInstance {
                gen,
                num_hosts,
                pes_per_host,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_model::ConfigId;

    #[test]
    fn runtime_corpus_size_and_determinism() {
        let a = runtime_corpus(5, &GenParams::default(), 99);
        let b = runtime_corpus(5, &GenParams::default(), 99);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.app, y.app);
        }
    }

    #[test]
    fn runtime_corpus_apps_are_distinct() {
        let c = runtime_corpus(5, &GenParams::default(), 1);
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                assert_ne!(c[i].app, c[j].app);
            }
        }
    }

    #[test]
    fn solver_corpus_dimensions_in_range() {
        let c = solver_corpus(20, 7);
        assert_eq!(c.len(), 20);
        for inst in &c {
            assert!((1..=12).contains(&inst.num_hosts));
            assert!((2..=12).contains(&inst.pes_per_host));
            assert_eq!(inst.gen.placement.num_hosts(), inst.num_hosts);
            let expected_pes = ((inst.num_hosts * inst.pes_per_host) / 2).max(1);
            assert_eq!(inst.gen.app.graph().num_pes(), expected_pes);
        }
    }

    #[test]
    fn solver_corpus_instances_are_calibrated() {
        let c = solver_corpus(10, 3);
        for inst in &c {
            let hi = crate::generator::max_host_utilization(&inst.gen, ConfigId(1));
            assert!(hi > 1.0, "instance not overloaded at High: {hi}");
            let lo = crate::generator::max_host_utilization(&inst.gen, ConfigId(0));
            assert!(lo < 1.0, "instance overloaded at Low: {lo}");
        }
    }
}

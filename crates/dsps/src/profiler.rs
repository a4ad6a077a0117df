//! Descriptor profiling: estimating selectivities and per-tuple CPU costs
//! from example runs.
//!
//! The paper's service model assumes PE selectivities and per-tuple CPU
//! costs "are either provided by the customer or extracted by the service
//! provider through a preliminary profiling step" (§3, citing \[14\]). This
//! module implements that profiling step against the simulator: it runs the
//! application a few times at different constant source rates (so
//! multi-input PEs yield independent linear equations), collects per-port
//! processed counts, per-replica emitted counts, and consumed cycles, and
//! solves the per-PE least-squares systems
//!
//! ```text
//! emitted_run  = Σ_ports δ_port · processed_{port,run}
//! cycles_run   = Σ_ports γ_port · processed_{port,run}
//! ```
//!
//! recovering the application descriptor without trusting the contract.

use crate::failure::FailurePlan;
use crate::sim::{SimConfig, Simulation};
use crate::trace::InputTrace;
use laar_model::{ActivationStrategy, Application, ComponentId, Placement};
use serde::Serialize;

/// Wall-clock attribution of a simulation run to its per-quantum phases,
/// collected by [`Simulation::run_profiled`](crate::sim::Simulation::run_profiled).
///
/// This is *measurement about* a run, never simulation state: it does not
/// participate in [`SimMetrics`](crate::metrics::SimMetrics) equality, so
/// the equivalence suite stays bit-exact while benchmarks report where
/// the time went (and which phases staging over the pool actually
/// accelerates).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PhaseProfile {
    /// Failure plan, command application, election, and the monitor poll.
    pub control_secs: f64,
    /// Source emission and its coordinator-side bookkeeping.
    pub emission_secs: f64,
    /// Source offers + GPS water-filling (data-plane phase 1).
    pub scheduling_secs: f64,
    /// Primary output staging + destination-side offers (phase 2).
    pub forwarding_secs: f64,
    /// Primary work attribution, snapshots, and time advance.
    pub accounting_secs: f64,
    /// Quanta actually executed (the horizon jump skips quiescent
    /// stretches).
    pub quanta_executed: u64,
    /// Resident bytes of the hot replica state at the end of the run:
    /// the [`HotArena`](crate::arena::HotArena) footprint.
    pub arena_bytes: u64,
    /// `arena_bytes` divided by the number of PEs — the per-PE memory
    /// budget of the hot path.
    pub bytes_per_pe: f64,
}

impl PhaseProfile {
    /// Sum of the five per-phase wall-clock attributions. The profiled
    /// runner asserts this stays within tolerance of the engine's total
    /// wall time, so no phase of the quantum loop can silently escape
    /// attribution.
    pub fn phase_sum(&self) -> f64 {
        self.control_secs
            + self.emission_secs
            + self.scheduling_secs
            + self.forwarding_secs
            + self.accounting_secs
    }
}

/// The estimated descriptor of one PE: per input port (in `in_edges`
/// order), the inferred selectivity and per-tuple CPU cost.
#[derive(Debug, Clone)]
pub struct EstimatedDescriptor {
    /// Dense PE index.
    pub pe_dense: usize,
    /// The PE's component id.
    pub pe: ComponentId,
    /// Estimated selectivity per input port.
    pub selectivity: Vec<f64>,
    /// Estimated per-tuple cost (cycles) per input port.
    pub cpu_cost: Vec<f64>,
    /// `true` when the per-port system was identifiable. With a single
    /// external source all port rates scale proportionally, so per-port
    /// attribution for fan-in PEs is fundamentally unidentifiable from rate
    /// sweeps; the estimator then falls back to *effective* per-port values
    /// (the aggregate ratio split evenly), which predict totals correctly
    /// for proportionally scaled inputs but are not the true per-port
    /// attributes.
    pub identifiable: bool,
}

/// Solve the normal equations `(AᵀA) x = Aᵀb` for a small dense system by
/// Gaussian elimination with partial pivoting. Returns `None` when the
/// system is singular (not enough independent probe runs).
fn least_squares(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let rows = a.len();
    if rows == 0 {
        return None;
    }
    let cols = a[0].len();
    if rows < cols {
        return None;
    }
    // Normal matrix and right-hand side.
    let mut m = vec![vec![0.0f64; cols + 1]; cols];
    for i in 0..cols {
        for j in 0..cols {
            m[i][j] = (0..rows).map(|r| a[r][i] * a[r][j]).sum();
        }
        m[i][cols] = (0..rows).map(|r| a[r][i] * b[r]).sum();
    }
    // Scale reference for the conditioning check: the largest diagonal of
    // the normal matrix.
    let scale = (0..cols).map(|i| m[i][i].abs()).fold(0.0f64, f64::max);
    if scale <= 0.0 {
        return None;
    }
    // Elimination with a *relative* pivot threshold: nearly collinear
    // columns (e.g. fan-in ports fed proportionally by one source) produce
    // tiny pivots and garbage coefficients despite perfect residuals —
    // treat them as unidentifiable instead.
    for col in 0..cols {
        let pivot =
            (col..cols).max_by(|&x, &y| m[x][col].abs().partial_cmp(&m[y][col].abs()).unwrap())?;
        if m[pivot][col].abs() < 1e-4 * scale {
            return None;
        }
        m.swap(col, pivot);
        let p = m[col][col];
        m[col][col..=cols].iter_mut().for_each(|x| *x /= p);
        for row in 0..cols {
            if row != col {
                let f = m[row][col];
                let pivot_row = m[col][col..=cols].to_vec();
                m[row][col..=cols]
                    .iter_mut()
                    .zip(&pivot_row)
                    .for_each(|(x, p)| *x -= f * p);
            }
        }
    }
    Some((0..cols).map(|i| m[i][cols]).collect())
}

/// Profile an application by running it `probes` times at constant source
/// rates spread between each source's minimum and maximum declared rate,
/// for `probe_duration` seconds each, and estimating every PE's descriptor
/// from the observed counters.
///
/// The probe deployment uses a single active replica (replica 0) per PE so
/// counters are unambiguous, and disables the controller.
pub fn profile_application(
    app: &Application,
    placement: &Placement,
    probes: usize,
    probe_duration: f64,
) -> Vec<EstimatedDescriptor> {
    assert!(probes >= 2, "at least two probe rates are needed");
    let g = app.graph();
    let cs = app.configs();
    let np = g.num_pes();
    let k = placement.k();

    // Single-replica strategy, controller off, generous quantum.
    let mut strategy = ActivationStrategy::all_inactive(np, cs.num_configs(), k);
    for pe in 0..np {
        for c in cs.configs() {
            strategy.set_active(pe, c, 0, true);
        }
    }
    let sim_cfg = SimConfig {
        controller_enabled: false,
        ..SimConfig::default()
    };

    // One run per probe level: every source at min + t·(max−min).
    let mut port_counts: Vec<Vec<Vec<f64>>> = vec![Vec::new(); np]; // [pe][run][port]
    let mut emitted: Vec<Vec<f64>> = vec![Vec::new(); np];
    let mut cycles: Vec<Vec<f64>> = vec![Vec::new(); np];
    for probe in 0..probes {
        let base = probe as f64 / (probes - 1) as f64;
        let rates: Vec<f64> = (0..cs.num_sources())
            .map(|s| {
                // Offset each source's sweep position by a golden-ratio
                // stride so multi-source probes are affinely independent
                // (identical sweeps would make fan-in systems singular).
                let frac = (base + s as f64 * 0.381_966).fract();
                let set = cs.rate_set(s);
                let lo = set.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = set.iter().copied().fold(0.0f64, f64::max);
                // Stay below the declared maximum so the probe never
                // saturates (saturation would bias cost estimates).
                let hi = lo.max(hi * 0.6);
                lo + frac * (hi - lo)
            })
            .collect();
        let trace = InputTrace::constant(&rates, probe_duration);
        let metrics = Simulation::new(
            app,
            placement,
            strategy.clone(),
            &trace,
            FailurePlan::None,
            sim_cfg.clone(),
        )
        .run();
        for pe in 0..np {
            let idx = pe * k; // replica 0
            port_counts[pe].push(
                metrics.replica_port_processed[idx]
                    .iter()
                    .map(|&x| x as f64)
                    .collect(),
            );
            emitted[pe].push(metrics.replica_emitted[idx] as f64);
            cycles[pe].push(metrics.replica_cycles[idx]);
        }
    }

    (0..np)
        .map(|pe| {
            let n_ports = g.in_degree(g.pes()[pe]);
            let a = &port_counts[pe];
            let sel = least_squares(a, &emitted[pe]);
            let cost = least_squares(a, &cycles[pe]);
            let identifiable = sel.is_some() && cost.is_some();
            // Fallback for unidentifiable fan-in: effective aggregate ratios.
            let effective = |b: &[f64]| -> Vec<f64> {
                let total_in: f64 = a.iter().map(|run| run.iter().sum::<f64>()).sum();
                let total_out: f64 = b.iter().sum();
                vec![total_out / total_in.max(1e-12); n_ports]
            };
            EstimatedDescriptor {
                pe_dense: pe,
                pe: g.pes()[pe],
                selectivity: sel.unwrap_or_else(|| effective(&emitted[pe])),
                cpu_cost: cost.unwrap_or_else(|| effective(&cycles[pe])),
                identifiable,
            }
        })
        .collect()
}

/// Compare an estimated descriptor against the contract's declared values;
/// returns the worst relative error over all ports and both attributes
/// (`NaN` estimates count as infinite error).
pub fn descriptor_error(app: &Application, est: &EstimatedDescriptor) -> f64 {
    let g = app.graph();
    let mut worst = 0.0f64;
    for (port, e) in g.in_edges(est.pe).enumerate() {
        let sel_err = (est.selectivity[port] - e.selectivity).abs() / e.selectivity.max(1e-12);
        let cost_err = (est.cpu_cost[port] - e.cpu_cost).abs() / e.cpu_cost.max(1e-12);
        worst = worst.max(if sel_err.is_nan() {
            f64::INFINITY
        } else {
            sel_err
        });
        worst = worst.max(if cost_err.is_nan() {
            f64::INFINITY
        } else {
            cost_err
        });
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_core::testutil::fig2_problem;
    use laar_model::{Application, ConfigSpace, GraphBuilder, HostId, Placement};

    #[test]
    fn least_squares_recovers_exact_solutions() {
        // 2 unknowns, 3 equations: y = 2 x0 + 3 x1.
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let b = vec![2.0, 3.0, 5.0];
        let x = least_squares(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn least_squares_rejects_underdetermined() {
        assert!(least_squares(&[vec![1.0, 2.0]], &[3.0]).is_none());
        // Rank-deficient: identical columns.
        let a = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]];
        assert!(least_squares(&a, &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn profiles_the_fig2_pipeline() {
        let p = fig2_problem(0.5);
        let est = profile_application(&p.app, &p.placement, 3, 40.0);
        assert_eq!(est.len(), 2);
        for e in &est {
            let err = descriptor_error(&p.app, e);
            assert!(
                err < 0.08,
                "pe {} estimated sel {:?} cost {:?} (err {err})",
                e.pe_dense,
                e.selectivity,
                e.cpu_cost
            );
        }
    }

    #[test]
    fn profiles_a_fan_in_pe() {
        // Two sources with different selectivities and costs into one PE:
        // needs the multi-rate probes to disentangle the ports.
        let mut b = GraphBuilder::new();
        let s1 = b.add_source("s1");
        let s2 = b.add_source("s2");
        let pe = b.add_pe("join");
        let k = b.add_sink("k");
        b.connect(s1, pe, 0.5, 40.0).unwrap();
        b.connect(s2, pe, 1.25, 90.0).unwrap();
        b.connect_sink(pe, k).unwrap();
        let g = b.build().unwrap();
        let cs =
            ConfigSpace::new(&g, vec![vec![4.0, 12.0], vec![2.0, 9.0]], vec![0.25; 4]).unwrap();
        let app = Application::new("fanin", g, cs, 60.0).unwrap();
        let placement = Placement::new(
            app.graph(),
            2,
            Placement::uniform_hosts(2, 5000.0),
            vec![HostId(0), HostId(1)],
        )
        .unwrap();
        let est = profile_application(&app, &placement, 4, 60.0);
        let e = &est[0];
        assert!((e.selectivity[0] - 0.5).abs() < 0.12, "{:?}", e.selectivity);
        assert!(
            (e.selectivity[1] - 1.25).abs() < 0.12,
            "{:?}",
            e.selectivity
        );
        assert!((e.cpu_cost[0] - 40.0).abs() < 8.0, "{:?}", e.cpu_cost);
        assert!((e.cpu_cost[1] - 90.0).abs() < 8.0, "{:?}", e.cpu_cost);
    }
}

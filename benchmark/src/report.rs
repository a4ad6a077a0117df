//! The benchmark's vocabulary — workloads, end-to-end and per-layer metrics
//! with unit, direction and bound — and the result line and `compare` built
//! on it. `BENCHMARK.json` at the root of the repository states the same
//! tables; `tests/contract.rs` holds the two together.

use crate::stats::{median, quartiles};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

use Better::{Higher, Lower};

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// The six workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "plan-proofs",
        "Solver does all the work: 13 calibrated FT-Search optimality/infeasibility proofs, the operator's wait before anything deploys (paper Figs. 4-6).",
    ),
    (
        "sim-dense",
        "Per-tuple scheduling path of the simulator: 192 PEs saturated with millions of queued tuples per quantum; construction and control plane are noise.",
    ),
    (
        "sim-sweep",
        "The traffic the figure experiments run: 72 short 24-PE simulations across strategies and failure plans, where construction, control loop and fail-over count.",
    ),
    (
        "sim-wide",
        "Per-replica bookkeeping and arena footprint: 20 000 replicas with few tuples each; the only workload where generation time and peak RSS are visible.",
    ),
    (
        "live-overdrive",
        "Capacity of the live data plane (SPSC rings, worker loop, clock): open loop offered above what two CPU-bound threads can carry.",
    ),
    (
        "adapt-drift",
        "The control loop end to end: drift detection, a node-budgeted warm-started CP re-plan and a hot-swap, on the simulator and on the live engine.",
    ),
];

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen before a change is a regression. Every workload reports all
/// four: `work_per_s` counts proofs on `plan-proofs` and tuple completions
/// elsewhere; `op_ms` is the median wall time of a proof, a simulation, a
/// live run, or (on `adapt-drift`) a drift re-plan.
///
/// The bounds are what the builder's 2-core box can resolve. Run to run the
/// quartile spread of `work_per_s` is 1–2 %, but the box has minutes when a
/// neighbour slows the memory-bound `sim-wide` by 8 % and `sim-sweep` by
/// 4 % (two back-to-back sets of one commit, `results/`); 15 % is twice
/// that.
pub const END_TO_END: [(Metric, f64); 4] = [
    (m("setup_s", "s", Lower), 0.25),
    (m("work_per_s", "1/s", Higher), 0.15),
    (m("op_ms", "ms", Lower), 0.15),
    (m("peak_rss_mb", "MB", Lower), 0.15),
];

/// Per-layer metrics, from the traced run. A workload that does not
/// exercise a layer reports that layer's metrics as 0.
pub const PER_LAYER: [Metric; 79] = [
    m("gen.generate_s", "s", Lower),
    m("gen.pes_per_s", "1/s", Higher),
    m("model.rates_compute_us", "us", Lower),
    m("core.problem_build_s", "s", Lower),
    m("core.variants_s", "s", Lower),
    m("core.check_us", "us", Lower),
    m("core.ic_eval_us", "us", Lower),
    m("core.cost_eval_us", "us", Lower),
    m("core.controller_decide_ns", "ns", Lower),
    m("core.monitor_record_ns", "ns", Lower),
    m("ftsearch.plan_s", "s", Lower),
    m("ftsearch.solve_ms.p50", "ms", Lower),
    m("ftsearch.solve_ms.max", "ms", Lower),
    m("ftsearch.nodes", "count", Lower),
    m("ftsearch.nodes_per_s", "1/s", Higher),
    m("ftsearch.proved", "count", Higher),
    m("ftsearch.prune_cpu", "count", Higher),
    m("ftsearch.prune_compl", "count", Higher),
    m("ftsearch.prune_cost", "count", Higher),
    m("ftsearch.prune_dom", "count", Higher),
    m("ftsearch.prune_nogood", "count", Higher),
    m("ftsearch.time_to_first_ms", "ms", Lower),
    m("ftsearch.time_to_best_ms", "ms", Lower),
    m("ftsearch.restarts", "count", Lower),
    m("ftsearch.lns_rounds", "count", Lower),
    m("ftsearch.nogoods_learned", "count", Lower),
    m("exec.replica_offer_process_ns", "ns", Lower),
    m("exec.swap_plan_us", "us", Lower),
    m("exec.failovers", "count", Lower),
    m("exec.commands_applied", "count", Lower),
    m("exec.config_switches", "count", Lower),
    m("dsps.sim_tuples_per_s", "1/s", Higher),
    m("dsps.sim_new_s", "s", Lower),
    m("dsps.sim_run_s", "s", Lower),
    m("dsps.sim_new_share", "ratio", Lower),
    m("dsps.run_ms.p50", "ms", Lower),
    m("dsps.run_ms.tail", "ms", Lower),
    m("dsps.run_ms.tail_pct", "%", Higher),
    m("dsps.run_ms.samples", "count", Higher),
    m("dsps.quanta_per_s", "1/s", Higher),
    m("dsps.queue_drop_share", "ratio", Lower),
    m("dsps.host_busy_share", "ratio", Higher),
    m("dsps.latency_p50_s", "s", Lower),
    m("dsps.latency_p99_s", "s", Lower),
    m("dsps.digest", "count", Lower),
    m("runtime.live_tuples_per_s", "1/s", Higher),
    m("runtime.live_new_s", "s", Lower),
    m("runtime.cpu_s", "s", Lower),
    m("runtime.cpu_s_per_mtuple", "s", Lower),
    m("runtime.loop_passes_per_s", "1/s", Lower),
    m("runtime.transport_drop_share", "ratio", Lower),
    m("runtime.queue_drop_share", "ratio", Lower),
    m("runtime.hottest_edge_drop_share", "ratio", Lower),
    m("runtime.latency_p99_s", "s", Lower),
    m("runtime.live_fidelity", "ratio", Higher),
    m("runtime.spsc_slice_ns_per_tuple", "ns", Lower),
    m("runtime.spsc_scalar_ns_per_tuple", "ns", Lower),
    m("adapt.recovery_s", "s", Lower),
    m("adapt.drop_ratio", "ratio", Lower),
    m("adapt.detect_s", "s", Lower),
    m("adapt.checks", "count", Lower),
    m("adapt.replan_nodes", "count", Lower),
    m("adapt.replan_ms.p50", "ms", Lower),
    m("adapt.replan_ms.tail", "ms", Lower),
    m("adapt.replan_ms.tail_pct", "%", Higher),
    m("adapt.replan_ms.samples", "count", Higher),
    m("adapt.replan_time_to_best_ms", "ms", Lower),
    m("adapt.planned_cost", "cycles", Lower),
    m("adapt.stale_cost", "cycles", Lower),
    m("adapt.swaps", "count", Lower),
    m("adapt.detector_observe_ns", "ns", Lower),
    m("bench.setup_self_s", "s", Lower),
    m("bench.op_self_s", "s", Lower),
    m("bench.check_s", "s", Lower),
    m("bench.spans", "count", Lower),
    m("bench.span_ns", "ns", Lower),
    m("bench.trace_overhead_share", "ratio", Lower),
    m("bench.nproc", "count", Higher),
    m("bench.oversubscribed", "count", Lower),
];

/// The metrics a run prints: every per-layer metric when traced, every
/// end-to-end metric otherwise.
pub fn declared(traced: bool) -> Vec<Metric> {
    if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(m, _)| *m).collect()
    }
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 10;

/// The text of `BENCHMARK.json`: the command the driver runs and the tables
/// above, in the contract's schema.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--bin",
        "laar-benchmark",
        "--",
        "run",
    ];
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|(name, why)| json!({ "name": name, "why": why }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|(m, bound)| {
            json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": bound })
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str() }))
        .collect();
    let doc = json!({
        "command": command.to_vec(),
        "paths": ["benchmark"].to_vec(),
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    });
    serde_json::to_string_pretty(&doc).expect("a value tree serializes")
}

/// Per-layer counts that must repeat exactly between two runs of one
/// commit on one `(workload, seed)`; `compare` lists where they moved.
pub const EXACT: [&str; 6] = [
    "ftsearch.nodes",
    "dsps.digest",
    "adapt.recovery_s",
    "adapt.drop_ratio",
    "adapt.replan_nodes",
    "adapt.planned_cost",
];

/// Metric values of one run, by declared name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Hardware threads of the machine.
    pub nproc: usize,
    /// Fewer cores than the workload's busy threads: its wall-clock
    /// metrics measure time-slicing, not the engine.
    pub oversubscribed: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// What went wrong, one line per failed operation.
    pub failures: Vec<String>,
    /// Every end-to-end metric (untraced) or every per-layer metric (traced).
    pub values: Values,
}

impl RunResult {
    fn metrics_json(&self) -> Value {
        let mut metrics = Map::new();
        for d in declared(self.traced) {
            // A layer the workload does not exercise reports 0; an
            // end-to-end metric is never missing (checked by the caller).
            let value = self.values.get(d.name).copied().unwrap_or(0.0);
            metrics.insert(d.name, json!({ "value": value, "unit": d.unit }));
        }
        Value::Object(metrics)
    }

    /// The contract's result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        json!({
            "correct": self.failures.is_empty(),
            "attempted": self.attempted,
            "failed": self.failures.len(),
            "metrics": self.metrics_json(),
        })
        .to_string()
    }

    /// The result with what `compare` needs to pair runs up.
    pub fn report_line(&self) -> String {
        json!({
            "workload": self.workload,
            "seed": self.seed.to_string(),
            "traced": self.traced,
            "nproc": self.nproc,
            "oversubscribed": self.oversubscribed,
            "attempted": self.attempted,
            "failed": self.failures.len(),
            "metrics": self.metrics_json(),
        })
        .to_string()
    }
}

/// One parsed line of a report file.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportLine {
    workload: String,
    seed: String,
    traced: bool,
    oversubscribed: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Parse a report file: one [`RunResult::report_line`] per line.
pub fn parse_report(text: &str) -> Result<Vec<ReportLine>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let field = |k: &str| v.get(k).ok_or(format!("line {}: no {k:?}", i + 1));
            let metrics = field("metrics")?
                .as_object()
                .ok_or(format!("line {}: metrics is not an object", i + 1))?
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect();
            Ok(ReportLine {
                workload: field("workload")?.as_str().unwrap_or_default().to_owned(),
                seed: field("seed")?.as_str().unwrap_or_default().to_owned(),
                traced: field("traced")?.as_bool().unwrap_or(false),
                oversubscribed: field("oversubscribed")?.as_bool().unwrap_or(false),
                attempted: field("attempted")?.as_u64().unwrap_or(0),
                failed: field("failed")?.as_u64().unwrap_or(0),
                metrics,
            })
        })
        .collect()
}

/// Verdict on one `(metric, workload)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A's own quartile spread exceeds the bound (or the workload ran
    /// oversubscribed): the pair cannot tell a regression from noise.
    Unresolved,
    /// One of the sets has no run of the workload.
    Missing,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: &'static str,
    /// Metric.
    pub metric: Metric,
    /// Bound as a share of A's median.
    pub bound: f64,
    /// A's quartiles (q1, median, q3); empty set → `None`.
    pub a: Option<[f64; 3]>,
    /// B's quartiles.
    pub b: Option<[f64; 3]>,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// One row per (end-to-end metric, workload).
    pub rows: Vec<Row>,
    /// Workloads whose `failed / attempted` is larger in B than in A.
    pub more_failures: Vec<String>,
    /// `(workload, seed, metric)` of exact counts that differ between the
    /// traced runs of A and B.
    pub moved_counts: Vec<String>,
}

impl Comparison {
    /// Whether `compare` exits 0.
    pub fn passes(&self) -> bool {
        self.more_failures.is_empty()
            && self
                .rows
                .iter()
                .all(|r| matches!(r.verdict, Verdict::Ok | Verdict::Unresolved))
    }
}

/// Apply the bounds per `(metric, workload)` to two sets of runs.
pub fn compare(a: &[ReportLine], b: &[ReportLine]) -> Comparison {
    let untraced = |set: &[ReportLine], w: &str| -> Vec<ReportLine> {
        set.iter()
            .filter(|l| l.workload == w && !l.traced)
            .cloned()
            .collect()
    };
    let mut rows = Vec::new();
    let mut more_failures = Vec::new();
    for (workload, _) in WORKLOADS {
        let (ra, rb) = (untraced(a, workload), untraced(b, workload));
        let failure_share = |runs: &[ReportLine]| {
            let attempted: u64 = runs.iter().map(|l| l.attempted).sum();
            let failed: u64 = runs.iter().map(|l| l.failed).sum();
            failed as f64 / (attempted as f64).max(1.0)
        };
        if failure_share(&rb) > failure_share(&ra) {
            more_failures.push(workload.to_owned());
        }
        let oversubscribed = ra.iter().chain(&rb).any(|l| l.oversubscribed);
        for (metric, bound) in END_TO_END {
            let values = |runs: &[ReportLine]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|l| l.metrics.get(metric.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            let verdict = if va.is_empty() || vb.is_empty() {
                Verdict::Missing
            } else {
                let [q1, med, q3] = quartiles(&va);
                let worse_by = match metric.better {
                    Lower => median(&vb) - med,
                    Higher => med - median(&vb),
                };
                // Peak RSS is the one metric that does not read the clock.
                let wall_clock = metric.name != "peak_rss_mb";
                if (q3 - q1) > bound * med || (oversubscribed && wall_clock) {
                    Verdict::Unresolved
                } else if worse_by > bound * med {
                    Verdict::Regression
                } else {
                    Verdict::Ok
                }
            };
            rows.push(Row {
                workload,
                metric,
                bound,
                a: (!va.is_empty()).then(|| quartiles(&va)),
                b: (!vb.is_empty()).then(|| quartiles(&vb)),
                verdict,
            });
        }
    }

    let mut moved_counts = Vec::new();
    for la in a.iter().filter(|l| l.traced) {
        let twin = b
            .iter()
            .find(|lb| lb.traced && lb.workload == la.workload && lb.seed == la.seed);
        let Some(lb) = twin else { continue };
        for name in EXACT {
            if la.metrics.get(name) != lb.metrics.get(name) {
                moved_counts.push(format!("{} seed {} {name}", la.workload, la.seed));
            }
        }
    }
    Comparison {
        rows,
        more_failures,
        moved_counts,
    }
}

/// Render the comparison as the table `compare` prints.
pub fn render(c: &Comparison) -> String {
    let mut out = format!(
        "{:<15} {:<12} {:>6}  {:>38}  {:>38}  verdict\n",
        "workload", "metric", "bound", "A q1 / median / q3", "B q1 / median / q3"
    );
    let quart = |q: Option<[f64; 3]>| {
        q.map_or("-".to_owned(), |[a, b, c]| {
            format!("{a:.5e} / {b:.5e} / {c:.5e}")
        })
    };
    for r in &c.rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "MISSING",
        };
        out += &format!(
            "{:<15} {:<12} {:>5.0}%  {:>38}  {:>38}  {verdict}\n",
            r.workload,
            r.metric.name,
            r.bound * 100.0,
            quart(r.a),
            quart(r.b),
        );
    }
    for w in &c.more_failures {
        out += &format!("{w}: more operations failed in B than in A\n");
    }
    for moved in &c.moved_counts {
        out += &format!("exact count moved: {moved}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, seed: u64, work_per_s: f64, failed: u64) -> ReportLine {
        let result = RunResult {
            workload: WORKLOADS
                .iter()
                .find(|(w, _)| *w == workload)
                .map(|(w, _)| *w)
                .unwrap(),
            seed,
            traced: false,
            nproc: 2,
            oversubscribed: false,
            attempted: 10,
            failures: vec!["x".to_owned(); failed as usize],
            values: Values::from([
                ("setup_s", 0.5),
                ("work_per_s", work_per_s),
                ("op_ms", 20.0),
                ("peak_rss_mb", 8.0),
            ]),
        };
        parse_report(&result.report_line()).unwrap().remove(0)
    }

    fn set(workload: &str, values: &[f64]) -> Vec<ReportLine> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| line(workload, i as u64, v, 0))
            .collect()
    }

    fn verdict(c: &Comparison, workload: &str, metric: &str) -> Verdict {
        c.rows
            .iter()
            .find(|r| r.workload == workload && r.metric.name == metric)
            .unwrap()
            .verdict
    }

    #[test]
    fn report_lines_round_trip() {
        let l = line("sim-dense", u64::MAX, 5.1e7, 0);
        assert_eq!(l.seed, u64::MAX.to_string());
        assert_eq!(l.metrics["work_per_s"], 5.1e7);
        assert_eq!((l.attempted, l.failed), (10, 0));
    }

    #[test]
    fn a_drop_beyond_the_bound_is_a_regression() {
        let a = set("sim-dense", &[100.0, 101.0, 99.0, 100.5, 99.5]);
        let within = set("sim-dense", &[90.0, 91.0, 89.0, 90.5, 89.5]);
        let beyond = set("sim-dense", &[80.0, 81.0, 79.0, 80.5, 79.5]);
        assert_eq!(
            verdict(&compare(&a, &within), "sim-dense", "work_per_s"),
            Verdict::Ok
        );
        let c = compare(&a, &beyond);
        assert_eq!(verdict(&c, "sim-dense", "work_per_s"), Verdict::Regression);
        assert!(!c.passes());
        // Faster is never a regression for a higher-is-better metric.
        let faster = set("sim-dense", &[120.0, 121.0, 119.0]);
        assert_eq!(
            verdict(&compare(&a, &faster), "sim-dense", "work_per_s"),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = set("sim-dense", &[100.0, 80.0, 120.0, 90.0, 110.0]);
        let b = set("sim-dense", &[50.0, 50.0, 50.0]);
        assert_eq!(
            verdict(&compare(&a, &b), "sim-dense", "work_per_s"),
            Verdict::Unresolved
        );
    }

    #[test]
    fn more_failures_fail_the_comparison() {
        let a = set("adapt-drift", &[100.0, 100.0]);
        let mut b = a.clone();
        b[0].failed = 1;
        let c = compare(&a, &b);
        assert_eq!(c.more_failures, vec!["adapt-drift".to_owned()]);
        assert!(!c.passes());
        assert!(compare(&a, &a).more_failures.is_empty());
    }

    #[test]
    fn a_workload_missing_from_a_set_fails_the_comparison() {
        let a = set("sim-dense", &[100.0, 100.0]);
        let c = compare(&a, &a);
        assert_eq!(verdict(&c, "sim-dense", "work_per_s"), Verdict::Ok);
        assert_eq!(verdict(&c, "sim-wide", "work_per_s"), Verdict::Missing);
        assert!(!c.passes());
    }

    #[test]
    fn moved_exact_counts_are_listed() {
        let traced = |digest: f64| {
            let result = RunResult {
                workload: "sim-dense",
                seed: 3,
                traced: true,
                nproc: 2,
                oversubscribed: false,
                attempted: 1,
                failures: Vec::new(),
                values: Values::from([("dsps.digest", digest)]),
            };
            parse_report(&result.report_line()).unwrap()
        };
        let c = compare(&traced(11.0), &traced(12.0));
        assert_eq!(
            c.moved_counts,
            vec!["sim-dense seed 3 dsps.digest".to_owned()]
        );
        assert!(compare(&traced(11.0), &traced(11.0))
            .moved_counts
            .is_empty());
    }

    #[test]
    fn every_name_is_declared_once_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(m, _)| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|(w, _)| *w))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.name == name));
        }
    }
}

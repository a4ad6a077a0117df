//! The benchmark against its own contract: `BENCHMARK.json` states the
//! tables of `report.rs`, and a smoke run of every workload prints every
//! declared metric exactly once.

use laar_benchmark::report::{self, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn checked_in() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_states_the_tables() {
    let generated: Value = serde_json::from_str(&report::benchmark_json()).unwrap();
    assert_eq!(
        checked_in(),
        generated,
        "regenerate with `laar-benchmark describe > BENCHMARK.json`"
    );
}

#[test]
fn benchmark_json_is_within_the_contract_limits() {
    let doc = checked_in();
    let keys: Vec<&String> = doc.as_object().unwrap().iter().map(|(k, _)| k).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for (_, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    for (metric, bound) in END_TO_END {
        assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
    }
    let units = END_TO_END
        .iter()
        .map(|(m, _)| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        assert!(!unit.is_empty() && unit.len() <= 16);
        assert!(unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
    let (setup, bound) = END_TO_END
        .iter()
        .find(|(m, _)| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|(_, b)| b <= bound));
    let command = doc["command"].as_array().unwrap();
    assert!(command.len() <= 32);
    assert!(command.iter().all(|c| c
        .as_str()
        .is_some_and(|c| c.len() <= 200 && !c.starts_with('/'))));
    let runs = 4 + 22 * WORKLOADS.len() as u32;
    assert!(
        runs * (report::RUN_SECONDS + 4) < 3420 - 2 * 120,
        "the driver's runs and two builds must fit 3420 s"
    );
}

/// Run one workload in its own process; return the parsed last line.
fn smoke(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_laar-benchmark"))
        .args(["run", "--smoke", "--seconds", "0.3", "--seed", "5"])
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    let keys: Vec<&String> = result.as_object().unwrap().iter().map(|(k, _)| k).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result["correct"].as_bool(),
        Some(true),
        "{workload}: {stdout}"
    );
    assert_eq!(result["failed"].as_u64(), Some(0));
    assert!(result["attempted"].as_u64().unwrap() >= 1);

    let declared = report::declared(trace);
    let metrics = result["metrics"].as_object().unwrap();
    assert_eq!(metrics.len(), declared.len(), "{workload}");
    for report::Metric { name, unit, .. } in declared {
        assert_eq!(
            last.matches(&format!("\"{name}\":{{")).count(),
            1,
            "{workload}: {name} must appear exactly once"
        );
        let value = metrics.get(name).unwrap()["value"].as_f64().unwrap();
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(trace || value > 0.0, "{workload}: {name} = {value}");
        assert_eq!(metrics.get(name).unwrap()["unit"].as_str(), Some(unit));
    }
    result
}

#[test]
fn smoke_run_prints_every_declared_metric_once() {
    let started = Instant::now();
    for (workload, _) in WORKLOADS {
        smoke(workload, false);
        let traced = smoke(workload, true);
        let value = |name: &str| traced["metrics"][name]["value"].as_f64().unwrap();
        assert!(value("bench.trace_overhead_share") <= 0.03, "{workload}");
        assert!(value("bench.spans") >= 3.0, "{workload}");
        assert!(
            value("core.controller_decide_ns") > 0.0,
            "probes run on {workload}"
        );
    }
    // The simulator's construction and run are separate numbers.
    let sweep = smoke("sim-sweep", true);
    let value = |name: &str| sweep["metrics"][name]["value"].as_f64().unwrap();
    assert!(value("dsps.sim_new_s") > 0.0 && value("dsps.sim_run_s") > 0.0);
    let share = value("dsps.sim_new_s") / (value("dsps.sim_new_s") + value("dsps.sim_run_s"));
    assert!((value("dsps.sim_new_share") - share).abs() < 1e-12);
    assert!(
        started.elapsed().as_secs() < 20,
        "the smoke suite took {:?}",
        started.elapsed()
    );
}

#[test]
fn unknown_workloads_and_options_are_refused_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--workload", "sim-dense", "--seconds", "0"],
        &["run", "--workload", "sim-dense", "--bogus", "1"],
        &["frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_laar-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// ROADMAP items 1 and 3 delete engines and entry points; the benchmark
/// must keep compiling when they do, so only the adapter may name an engine
/// item, and it may not name one of those.
#[test]
fn only_the_adapter_names_the_engines_and_only_their_lasting_surface() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let code = text
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect::<Vec<_>>()
            .join("\n");
        if path.file_name().unwrap() == "api.rs" {
            for doomed in [
                "ReplicaLayout",
                "TimeAdvance",
                "DataPlane",
                "run_profiled",
                "solve_parallel",
                "solve_decomposed",
                "solve_soft",
                "solve_best_effort",
                "solve_with_warm_start",
                "budgeted_cost_rate",
            ] {
                assert!(!code.contains(doomed), "api.rs names {doomed}");
            }
        } else {
            let named = code.replace("laar_benchmark", "");
            assert!(
                !named.contains("laar_"),
                "{} names an engine",
                path.display()
            );
        }
    }
}

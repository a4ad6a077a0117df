//! The `laar` command-line tool: the deployment workflow of the paper's
//! Fig. 7 as JSON-file plumbing. Run `laar help` for usage.

use laar_adapt::{AdaptConfig, AdaptReport};
use laar_cli::{
    cmd_bench_adapt, cmd_bench_runtime, cmd_bench_sim, cmd_bench_solver, cmd_generate, cmd_profile,
    cmd_run_live, cmd_simulate, cmd_solve, cmd_variants, parse_failure, CliError,
};
use laar_dsps::InputTrace;
use laar_model::{ActivationStrategy, Application, Placement};
use std::collections::HashMap;
use std::time::Duration;

const USAGE: &str = "\
laar — Load-Adaptive Active Replication pipeline (EDBT 2014 reproduction)

USAGE:
  laar generate --pes N --hosts N [--seed N] [--scale X] --contract OUT --placement OUT --trace OUT
  laar solve    --contract F --placement F --ic X [--time-limit SECS] [--soft LAMBDA] --strategy OUT
  laar simulate --contract F --placement F --strategy F --trace F [--failure none|worst|host:<id>@<secs>] [--threads N] [--adapt --ic X] [--metrics OUT]
  laar run-live --contract F --placement F --strategy F --trace F [--failure ...] [--speed X] [--adapt --ic X] [--metrics OUT]
  laar variants --contract F --placement F --trace F [--time-limit SECS]
  laar profile  --contract F --placement F [--probes N]
  laar bench-sim [--iters N] [--threads N,M,..] [--baseline F] [--test]
                 [--out BENCH_sim.json]
  laar bench-solver [--instances N] [--seed N] [--ic X] [--threads N]
                    [--time-limit SECS] [--modes sequential,parallel,cp,portfolio]
                    [--large] [--baseline F] [--test] [--out BENCH_solver.json]
  laar bench-runtime [--scales X,Y,..] [--baseline F] [--test]
                     [--out BENCH_runtime.json]
  laar bench-adapt [--test] [--out BENCH_adapt.json]

Artifacts are JSON: the contract (application graph + descriptor + billing
period), the replicated placement, the input trace, the HAController
strategy document (§5.1), and simulation metrics.";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, CliError> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| CliError::Message(format!("expected --flag, got {:?}", args[i])))?;
        // A flag followed by another flag (or nothing) is a boolean switch.
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                map.insert(key.to_owned(), v.clone());
                i += 2;
            }
            _ => {
                map.insert(key.to_owned(), "true".to_owned());
                i += 1;
            }
        }
    }
    Ok(map)
}

fn need<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, CliError> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| CliError::Message(format!("missing required flag --{key}")))
}

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, CliError> {
    Ok(serde_json::from_slice(&std::fs::read(path)?)?)
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), CliError> {
    std::fs::write(path, serde_json::to_string_pretty(value)?)?;
    Ok(())
}

/// `--adapt [--ic X]` → an [`AdaptConfig`] (None without `--adapt`).
fn parse_adapt(flags: &HashMap<String, String>) -> Result<Option<AdaptConfig>, CliError> {
    if flags.get("adapt").map(String::as_str) != Some("true") {
        return Ok(None);
    }
    let ic: f64 = flags
        .get("ic")
        .ok_or_else(|| {
            CliError::Message("--adapt needs --ic (the IC requirement to re-plan for)".to_owned())
        })?
        .parse()
        .map_err(|e| CliError::Message(format!("bad --ic: {e}")))?;
    if !(0.0..1.0).contains(&ic) {
        return Err(CliError::Message(format!(
            "bad --ic {ic}: must be in [0, 1)"
        )));
    }
    Ok(Some(AdaptConfig::new(ic)))
}

/// One summary line of an adaptation report.
fn print_adapt_report(r: &AdaptReport) {
    println!(
        "adaptation: {} checks, {} re-plans, {} swaps{}{}{}",
        r.checks,
        r.replans,
        r.swaps,
        r.detected_at
            .map(|t| format!(", drift detected at {t:.1}s"))
            .unwrap_or_default(),
        r.last_swap_at
            .map(|t| format!(", last swap at {t:.1}s"))
            .unwrap_or_default(),
        if r.soft_fallbacks > 0 {
            format!(" ({} soft fallbacks)", r.soft_fallbacks)
        } else {
            String::new()
        },
    );
}

fn run() -> Result<(), CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let flags = parse_flags(&argv[1..])?;
    let time_limit = flags
        .get("time-limit")
        .map(|v| v.parse::<f64>().map(Duration::from_secs_f64))
        .transpose()
        .map_err(|e| CliError::Message(format!("bad --time-limit: {e}")))?
        .unwrap_or(Duration::from_secs(10));

    match cmd.as_str() {
        "generate" => {
            let pes: usize = need(&flags, "pes")?
                .parse()
                .map_err(|e| CliError::Message(format!("bad --pes: {e}")))?;
            let hosts: usize = need(&flags, "hosts")?
                .parse()
                .map_err(|e| CliError::Message(format!("bad --hosts: {e}")))?;
            let seed: u64 = flags
                .get("seed")
                .map(|v| v.parse())
                .transpose()
                .map_err(|e| CliError::Message(format!("bad --seed: {e}")))?
                .unwrap_or(1);
            let scale: f64 = flags
                .get("scale")
                .map(|v| v.parse())
                .transpose()
                .map_err(|e| CliError::Message(format!("bad --scale: {e}")))?
                .unwrap_or(1.0);
            let (app, placement, trace) = cmd_generate(pes, hosts, seed, scale)?;
            println!(
                "generated {} PEs on {} hosts (seed {seed}, scale {scale}); \
                 contract, placement, and trace written",
                app.graph().num_pes(),
                placement.num_hosts(),
            );
            write_json(need(&flags, "contract")?, &app)?;
            write_json(need(&flags, "placement")?, &placement)?;
            write_json(need(&flags, "trace")?, &trace)?;
        }
        "solve" => {
            let app: Application = read_json(need(&flags, "contract")?)?;
            let placement: Placement = read_json(need(&flags, "placement")?)?;
            let ic: f64 = need(&flags, "ic")?
                .parse()
                .map_err(|e| CliError::Message(format!("bad --ic: {e}")))?;
            let soft = flags
                .get("soft")
                .map(|v| v.parse::<f64>())
                .transpose()
                .map_err(|e| CliError::Message(format!("bad --soft: {e}")))?;
            let out = cmd_solve(&app, &placement, ic, time_limit, soft)?;
            let doc = out.strategy.to_controller_json(app.graph());
            std::fs::write(
                need(&flags, "strategy")?,
                serde_json::to_string_pretty(&doc)?,
            )?;
            println!(
                "{}: guaranteed IC {:.4}, expected cost {:.1} cycle-units{}",
                out.label,
                out.ic,
                out.cost_cycles,
                out.ic_shortfall
                    .map(|s| format!(", IC shortfall {s:.3} tuples/s"))
                    .unwrap_or_default()
            );
        }
        "simulate" => {
            let app: Application = read_json(need(&flags, "contract")?)?;
            let placement: Placement = read_json(need(&flags, "placement")?)?;
            let trace: InputTrace = read_json(need(&flags, "trace")?)?;
            let doc: serde_json::Value = read_json(need(&flags, "strategy")?)?;
            let strategy = ActivationStrategy::from_controller_json(app.graph(), &doc)
                .map_err(|e| CliError::Message(e.to_string()))?;
            let failure = flags.get("failure").map(String::as_str).unwrap_or("none");
            let plan = parse_failure(failure, &app, &strategy)?;
            let threads: usize = flags
                .get("threads")
                .map(|v| v.parse())
                .transpose()
                .map_err(|e| CliError::Message(format!("bad --threads: {e}")))?
                .unwrap_or(1);
            let adapt = parse_adapt(&flags)?;
            let (metrics, adapt_report) =
                cmd_simulate(&app, &placement, strategy, &trace, plan, threads, adapt)?;
            println!(
                "processed {} tuples, {} sink outputs, {} drops, {:.1} CPU-s, \
                 mean latency {:.0} ms (p99 {:.0} ms), {} fail-overs",
                metrics.total_processed(),
                metrics.total_sink_output(),
                metrics.queue_drops,
                metrics.total_cpu_seconds(),
                1e3 * metrics.latency.mean(),
                1e3 * metrics.latency.quantile(0.99),
                metrics.failovers,
            );
            if let Some(r) = &adapt_report {
                print_adapt_report(r);
            }
            if let Some(path) = flags.get("metrics") {
                write_json(path, &metrics)?;
                println!("metrics written to {path}");
            }
        }
        "run-live" => {
            let app: Application = read_json(need(&flags, "contract")?)?;
            let placement: Placement = read_json(need(&flags, "placement")?)?;
            let trace: InputTrace = read_json(need(&flags, "trace")?)?;
            let doc: serde_json::Value = read_json(need(&flags, "strategy")?)?;
            let strategy = ActivationStrategy::from_controller_json(app.graph(), &doc)
                .map_err(|e| CliError::Message(e.to_string()))?;
            let failure = flags.get("failure").map(String::as_str).unwrap_or("none");
            let plan = parse_failure(failure, &app, &strategy)?;
            let speed: f64 = flags
                .get("speed")
                .map(|v| v.parse())
                .transpose()
                .map_err(|e| CliError::Message(format!("bad --speed: {e}")))?
                .unwrap_or(1.0);
            let adapt = parse_adapt(&flags)?;
            let report = cmd_run_live(&app, &placement, strategy, &trace, plan, speed, adapt)?;
            let metrics = &report.metrics;
            println!(
                "live run at {speed}x: processed {} tuples, {} sink outputs, {} drops, \
                 {:.1} CPU-s, mean latency {:.0} ms (p99 {:.0} ms), {} fail-overs, \
                 conservation {}",
                metrics.total_processed(),
                metrics.total_sink_output(),
                metrics.queue_drops,
                metrics.total_cpu_seconds(),
                1e3 * metrics.latency.mean(),
                1e3 * metrics.latency.quantile(0.99),
                metrics.failovers,
                if report.conservation.is_balanced() {
                    "balanced"
                } else {
                    "UNBALANCED"
                },
            );
            if let Some(r) = &report.adapt {
                print_adapt_report(r);
            }
            if let Some(path) = flags.get("metrics") {
                write_json(path, metrics)?;
                println!("metrics written to {path}");
            }
        }
        "variants" => {
            let app: Application = read_json(need(&flags, "contract")?)?;
            let placement: Placement = read_json(need(&flags, "placement")?)?;
            let trace: InputTrace = read_json(need(&flags, "trace")?)?;
            let rows = cmd_variants(&app, &placement, &trace, time_limit)?;
            println!(
                "{:<5} {:>9} {:>14} {:>12} {:>8}",
                "var", "IC bound", "expected cost", "CPU-s", "drops"
            );
            for r in rows {
                println!(
                    "{:<5} {:>9.3} {:>14.1} {:>12.1} {:>8}",
                    r.label, r.guaranteed_ic, r.expected_cost, r.measured_cpu, r.drops
                );
            }
        }
        "profile" => {
            let app: Application = read_json(need(&flags, "contract")?)?;
            let placement: Placement = read_json(need(&flags, "placement")?)?;
            let probes: usize = flags
                .get("probes")
                .map(|v| v.parse())
                .transpose()
                .map_err(|e| CliError::Message(format!("bad --probes: {e}")))?
                .unwrap_or(3);
            let rows = cmd_profile(&app, &placement, probes)?;
            println!(
                "{:<12} {:>32} {:>32} {:>8}",
                "pe", "selectivity", "cost", "err"
            );
            for (name, sel, cost, err) in rows {
                println!(
                    "{name:<12} {:>32} {:>32} {:>7.1}%",
                    format!("{sel:.3?}"),
                    format!("{cost:.3?}"),
                    100.0 * err
                );
            }
        }
        "bench-sim" => {
            let smoke = flags.get("test").map(String::as_str) == Some("true");
            let iters: u32 = flags
                .get("iters")
                .map(|v| v.parse())
                .transpose()
                .map_err(|e| CliError::Message(format!("bad --iters: {e}")))?
                .unwrap_or(if smoke { 1 } else { 3 });
            let threads: Vec<usize> = match flags.get("threads") {
                Some(list) => list
                    .split(',')
                    .map(|v| {
                        v.trim().parse().map_err(|e| {
                            CliError::Message(format!("bad --threads entry {v:?}: {e}"))
                        })
                    })
                    .collect::<Result<_, _>>()?,
                None if smoke => vec![1],
                None => vec![1, 2, 4],
            };
            let baseline: Vec<laar_cli::BenchSimBaselineRow> = match flags.get("baseline") {
                Some(path) => {
                    let data = std::fs::read_to_string(path).map_err(|e| {
                        CliError::Message(format!("cannot read --baseline {path}: {e}"))
                    })?;
                    serde_json::from_str(&data).map_err(|e| {
                        CliError::Message(format!("cannot parse --baseline {path}: {e}"))
                    })?
                }
                None => Vec::new(),
            };
            let rows = cmd_bench_sim(iters, &threads, smoke, &baseline)?;
            println!(
                "{:<36} {:>4} {:>10} {:>12} {:>8} {:>9} {:>9}",
                "fixture", "thr", "wall (s)", "quanta/s", "vs 1thr", "B/PE", "vs prePR"
            );
            for r in &rows {
                println!(
                    "{:<36} {:>3}{} {:>10.3} {:>12.0} {:>7.2}x {:>9.0} {}",
                    r.name,
                    r.threads,
                    if r.oversubscribed { "*" } else { " " },
                    r.event_driven_wall_secs,
                    r.event_driven_quanta_per_sec,
                    r.speedup_vs_single_thread,
                    r.bytes_per_pe,
                    if r.speedup_vs_pre_pr > 0.0 {
                        format!("{:>8.2}x", r.speedup_vs_pre_pr)
                    } else {
                        format!("{:>9}", "-")
                    },
                );
            }
            if rows.iter().any(|r| r.oversubscribed) {
                println!(
                    "  * threads exceed this machine's {} hardware thread(s): the row \
                     measures oversubscription, not parallel speedup",
                    rows[0].host_cores
                );
            }
            let out = flags
                .get("out")
                .map(String::as_str)
                .unwrap_or("BENCH_sim.json");
            write_json(out, &rows)?;
            println!("simulator throughput report written to {out}");
        }
        "bench-solver" => {
            let parse_usize = |key: &str, default: usize| -> Result<usize, CliError> {
                flags
                    .get(key)
                    .map(|v| v.parse())
                    .transpose()
                    .map_err(|e| CliError::Message(format!("bad --{key}: {e}")))
                    .map(|v| v.unwrap_or(default))
            };
            let instances = parse_usize("instances", 8)?;
            let threads = parse_usize("threads", 4)?;
            let seed: u64 = flags
                .get("seed")
                .map(|v| v.parse())
                .transpose()
                .map_err(|e| CliError::Message(format!("bad --seed: {e}")))?
                .unwrap_or(0xF7_5EA7C4);
            let ic: f64 = flags
                .get("ic")
                .map(|v| v.parse())
                .transpose()
                .map_err(|e| CliError::Message(format!("bad --ic: {e}")))?
                .unwrap_or(0.7);
            let limit = flags
                .get("time-limit")
                .map(|v| v.parse::<f64>().map(Duration::from_secs_f64))
                .transpose()
                .map_err(|e| CliError::Message(format!("bad --time-limit: {e}")))?
                .unwrap_or(Duration::from_secs(30));
            let smoke = flags.get("test").map(String::as_str) == Some("true");
            let large = flags.get("large").map(String::as_str) == Some("true");
            let modes: Vec<laar_cli::SolverBenchMode> = match flags.get("modes") {
                Some(list) => list
                    .split(',')
                    .map(|v| {
                        laar_cli::SolverBenchMode::parse(v.trim()).ok_or_else(|| {
                            CliError::Message(format!(
                                "bad --modes entry {v:?}: expected sequential|parallel|cp|portfolio"
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?,
                None => laar_cli::SolverBenchMode::ALL.to_vec(),
            };
            let baseline: Vec<laar_cli::SolverBenchBaselineRow> = match flags.get("baseline") {
                Some(path) => {
                    let data = std::fs::read_to_string(path).map_err(|e| {
                        CliError::Message(format!("cannot read --baseline {path}: {e}"))
                    })?;
                    serde_json::from_str(&data).map_err(|e| {
                        CliError::Message(format!("cannot parse --baseline {path}: {e}"))
                    })?
                }
                None => Vec::new(),
            };
            // CI smoke: a couple of easy instances, tight limit, the two
            // headline engines — exercises the full path in seconds.
            let (instances, limit, modes) = if smoke {
                (
                    instances.min(3),
                    limit.min(Duration::from_secs(2)),
                    vec![
                        laar_cli::SolverBenchMode::Sequential,
                        laar_cli::SolverBenchMode::Cp,
                    ],
                )
            } else {
                (instances, limit, modes)
            };
            let rows = cmd_bench_solver(
                instances, seed, ic, limit, threads, &modes, large, &baseline,
            )?;
            println!(
                "{:<8} {:>6} {:>4} {:<10} {:>3} {:>5} {:>12} {:>10} {:>10} {:>10} {:>12} {:>8}",
                "inst",
                "hosts",
                "pph",
                "mode",
                "thr",
                "label",
                "nodes",
                "first(ms)",
                "best(ms)",
                "wall(ms)",
                "cost",
                "vs-pre"
            );
            for r in &rows {
                let opt = |v: Option<f64>| v.map_or("-".to_owned(), |x| format!("{x:.1}"));
                let speedup = if r.speedup_vs_pre_pr > 0.0 {
                    format!("{:.1}x", r.speedup_vs_pre_pr)
                } else {
                    "-".to_owned()
                };
                println!(
                    "{:<8} {:>6} {:>4} {:<10} {:>3} {:>5} {:>12} {:>10} {:>10} {:>10.1} {:>12} {:>8}",
                    r.instance,
                    r.num_hosts,
                    r.pes_per_host,
                    r.mode,
                    r.threads,
                    r.label,
                    r.nodes,
                    opt(r.time_to_first_ms),
                    opt(r.time_to_best_ms),
                    r.elapsed_ms,
                    opt(r.best_cost),
                    speedup,
                );
            }
            let out = flags
                .get("out")
                .map(String::as_str)
                .unwrap_or("BENCH_solver.json");
            write_json(out, &rows)?;
            println!("solver benchmark report written to {out}");
        }
        "bench-runtime" => {
            let smoke = flags.get("test").map(String::as_str) == Some("true");
            let scales: Vec<f64> = match flags.get("scales") {
                Some(list) => list
                    .split(',')
                    .map(|v| {
                        v.trim().parse().map_err(|e| {
                            CliError::Message(format!("bad --scales entry {v:?}: {e}"))
                        })
                    })
                    .collect::<Result<_, _>>()?,
                None if smoke => vec![100.0],
                None => vec![200.0, 2000.0, 8000.0, 20000.0, 40000.0],
            };
            let baseline: Vec<laar_cli::BaselineRow> = match flags.get("baseline") {
                Some(path) => {
                    let text = std::fs::read_to_string(path).map_err(|e| {
                        CliError::Message(format!("cannot read --baseline {path}: {e}"))
                    })?;
                    serde_json::from_str(&text).map_err(|e| {
                        CliError::Message(format!("cannot parse --baseline {path}: {e}"))
                    })?
                }
                None => Vec::new(),
            };
            let rows = cmd_bench_runtime(&scales, smoke, &baseline)?;
            println!(
                "{:<28} {:>8} {:>11} {:>8} {:>9} {:>9} {:>11} {:>8}",
                "fixture",
                "scale",
                "tuples/s",
                "sim Δ",
                "wakeups",
                "cpu (s)",
                "pre-PR t/s",
                "vs pre"
            );
            for r in &rows {
                println!(
                    "{:<28} {:>8.0} {:>11.0} {:>7.2}% {:>9} {:>9.2} {:>11.0} {:>7.2}x",
                    r.name,
                    r.time_scale,
                    r.batched_tuples_per_sec,
                    100.0 * r.batched_sim_delta,
                    r.batched_loop_passes,
                    r.batched_cpu_secs,
                    r.pre_pr_tuples_per_sec,
                    r.speedup_vs_pre_pr,
                );
            }
            let out = flags
                .get("out")
                .map(String::as_str)
                .unwrap_or("BENCH_runtime.json");
            write_json(out, &rows)?;
            println!("runtime data-plane report written to {out}");
        }
        "bench-adapt" => {
            let smoke = flags.get("test").map(String::as_str) == Some("true");
            let rows = cmd_bench_adapt(smoke)?;
            println!(
                "{:<24} {:>9} {:>8} {:>10} {:>9} {:>6} {:>9} {:>11} {:>11} {:>8}",
                "fixture",
                "detect(s)",
                "swap(s)",
                "replan(ms)",
                "nodes",
                "swaps",
                "down(q/t)",
                "stale drops",
                "adapt drops",
                "live Δ"
            );
            for r in &rows {
                println!(
                    "{:<24} {:>9.1} {:>8.1} {:>10.1} {:>9} {:>6} {:>5}/{:<3} {:>11} {:>11} {:>7.2}%",
                    r.name,
                    r.time_to_detect_secs,
                    r.swap_at,
                    r.replan_wall_ms,
                    r.replan_nodes,
                    r.swaps,
                    r.swap_downtime_quanta,
                    r.swap_downtime_tuples,
                    r.stale_drops,
                    r.adapted_drops,
                    100.0 * r.live_sim_delta,
                );
            }
            let out = flags
                .get("out")
                .map(String::as_str)
                .unwrap_or("BENCH_adapt.json");
            write_json(out, &rows)?;
            println!("adaptation loop report written to {out}");
        }
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => {
            eprintln!("unknown command {other:?}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

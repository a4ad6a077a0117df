//! The `laar` command-line tool: the deployment workflow of the paper's
//! Fig. 7 as JSON-file plumbing. Run `laar help` for usage.

use laar_adapt::{AdaptConfig, AdaptReport};
use laar_cli::{
    cmd_generate, cmd_profile, cmd_run_live, cmd_simulate, cmd_solve, cmd_variants, parse_failure,
    CliError,
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

/// `--time-limit SECS` → the FT-Search wall-clock limit (10 s without the
/// flag). Negative, non-finite and overflowing values are errors, not the
/// panic `Duration::from_secs_f64` answers them with.
fn parse_time_limit(flags: &HashMap<String, String>) -> Result<Duration, CliError> {
    let Some(v) = flags.get("time-limit") else {
        return Ok(Duration::from_secs(10));
    };
    let bad = |e: &dyn std::fmt::Display| CliError::Message(format!("bad --time-limit {v}: {e}"));
    let secs: f64 = v.parse().map_err(|e| bad(&e))?;
    Duration::try_from_secs_f64(secs).map_err(|e| bad(&e))
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
    let time_limit = parse_time_limit(&flags)?;

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
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|e| CliError::Message(format!("bad --soft {v}: {e}")))
                })
                .transpose()?;
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
            let plan = parse_failure(failure, &app, &placement, &strategy)?;
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
            let plan = parse_failure(failure, &app, &placement, &strategy)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_limit_is_parsed_not_trusted() {
        let flags = |v: &str| parse_flags(&["--time-limit".to_owned(), v.to_owned()]).unwrap();
        assert_eq!(
            parse_time_limit(&HashMap::new()).unwrap(),
            Duration::from_secs(10)
        );
        assert_eq!(
            parse_time_limit(&flags("2.5")).unwrap(),
            Duration::from_millis(2500)
        );
        // Each of these panicked in `Duration::from_secs_f64`.
        for bad in ["-1", "nan", "1e30", "inf", "soon"] {
            let err = parse_time_limit(&flags(bad)).unwrap_err().to_string();
            assert!(err.starts_with("bad --time-limit"), "{bad}: {err}");
        }
    }
}

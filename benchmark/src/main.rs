//! `laar-benchmark`: the one benchmark of this repository.
//!
//! ```text
//! laar-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--smoke] [--out <file>] [--spans <file>]
//! laar-benchmark calibrate [--corpus-seed <n>] [--app-seed <n>]
//! laar-benchmark compare <A.jsonl> <B.jsonl>
//! laar-benchmark describe          # prints BENCHMARK.json from the tables
//! ```
//!
//! `run` prints every metric by name with its unit and, as the last line of
//! standard output, the result object the contract in `BENCHMARK.json`
//! asks for. See `README.md` next to this package.

use laar_benchmark::{report, workloads};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("calibrate") => calibrate(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("describe") => {
            println!("{}", report::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(
            "usage: laar-benchmark run|calibrate|compare|describe ... (see benchmark/README.md)"
                .to_owned(),
        ),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("laar-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parse `--key value` pairs and bare `--flag`s named in `flags`.
fn options(args: &[String], flags: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {a:?}"))?;
        let value = if flags.contains(&key) {
            "1".to_owned()
        } else {
            it.next().ok_or(format!("--{key} needs a value"))?.clone()
        };
        out.push((key.to_owned(), value));
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad --{key} {value:?}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut a = workloads::Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let (mut out, mut spans): (Option<PathBuf>, Option<PathBuf>) = (None, None);
    for (key, value) in options(args, &["smoke"])? {
        match key.as_str() {
            "workload" => a.workload = value,
            "seed" => a.seed = parsed(&key, &value)?,
            "seconds" => a.seconds = parsed(&key, &value)?,
            "trace" => a.trace = parsed::<u8>(&key, &value)? != 0,
            "smoke" => a.smoke = true,
            "out" => out = Some(value.into()),
            "spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown option --{key}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err(format!("bad --seconds {}", a.seconds));
    }

    let (result, tracer) = workloads::run(&a)?;
    if a.trace {
        // Next to the executable, so inside the build directory of whichever
        // checkout this runs in.
        let path = spans.unwrap_or_else(|| {
            let dir = std::env::current_exe()
                .ok()
                .and_then(|p| p.parent().map(Path::to_path_buf));
            dir.unwrap_or_default()
                .join(format!("{}.spans.jsonl", result.workload))
        });
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        tracer
            .write_jsonl(std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    if let Some(path) = out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", result.report_line())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    println!(
        "{} seed {} on {} cores: {} operations, {} failed",
        result.workload,
        result.seed,
        result.nproc,
        result.attempted,
        result.failures.len()
    );
    for f in &result.failures {
        println!("FAILED {f}");
    }
    if result.oversubscribed {
        println!(
            "OVERSUBSCRIBED: fewer cores than this workload's busy threads; \
             its wall-clock metrics measure time-slicing and `compare` leaves them unresolved"
        );
    }
    for m in report::declared(a.trace) {
        match result.values.get(m.name) {
            Some(v) => println!("{:<34} {v:>18.6} {}", m.name, m.unit),
            None if a.trace => {}
            None => return Err(format!("{} did not measure {}", result.workload, m.name)),
        }
    }
    println!("{}", result.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn calibrate(args: &[String]) -> Result<ExitCode, String> {
    let mut corpus_seed = workloads::DEFAULT_CORPUS_SEED;
    let mut app_seed = workloads::DEFAULT_APP_SEED;
    for (key, value) in options(args, &[])? {
        match key.as_str() {
            "corpus-seed" => corpus_seed = parsed(&key, &value)?,
            "app-seed" => app_seed = parsed(&key, &value)?,
            _ => return Err(format!("unknown option --{key}")),
        }
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads");
    workloads::calibrate(corpus_seed, app_seed, &dir)?;
    println!(
        "manifests written to {}; rebuild to use them",
        dir.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: laar-benchmark compare <A.jsonl> <B.jsonl>".to_owned());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report::parse_report(&text).map_err(|e| format!("{path}: {e}"))
    };
    let comparison = report::compare(&load(a)?, &load(b)?);
    print!("{}", report::render(&comparison));
    Ok(if comparison.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

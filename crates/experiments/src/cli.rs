//! Minimal argument parsing shared by the figure binaries (no external CLI
//! dependency needed for `--key value` flags).

use std::time::Duration;

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// `--apps N` (runtime corpus size) or `--instances N` (solver corpus).
    pub count: Option<usize>,
    /// `--time-limit SECS` for FT-Search.
    pub time_limit: Option<Duration>,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--paper`: use the paper-scale population sizes.
    pub paper: bool,
}

impl CommonArgs {
    /// Parse `std::env::args()`-style flags. Unknown flags abort with a
    /// usage message.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut out = Self {
            count: None,
            time_limit: None,
            seed: None,
            paper: false,
        };
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--apps" | "--instances" | "--count" => {
                    i += 1;
                    out.count = Some(
                        args.get(i)
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage(&args[i - 1])),
                    );
                }
                "--time-limit" => {
                    i += 1;
                    let v = args.get(i).map_or("", String::as_str);
                    out.time_limit = Some(parse_time_limit(v).unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }));
                }
                "--seed" => {
                    i += 1;
                    out.seed = Some(
                        args.get(i)
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--seed")),
                    );
                }
                "--paper" => out.paper = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --apps/--instances N   population size\n\
                         \x20      --time-limit SECS     FT-Search limit per run\n\
                         \x20      --seed N              master seed\n\
                         \x20      --paper               paper-scale population"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        out
    }

    /// Parse the process arguments (skipping argv\[0\]).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Resolve the population size: explicit `--count`, else paper scale or
    /// the quick default.
    pub fn count_or(&self, quick: usize, paper: usize) -> usize {
        self.count.unwrap_or(if self.paper { paper } else { quick })
    }

    /// Resolve the FT-Search limit similarly.
    pub fn time_limit_or(&self, quick: Duration, paper: Duration) -> Duration {
        self.time_limit
            .unwrap_or(if self.paper { paper } else { quick })
    }
}

fn usage(flag: &str) -> ! {
    eprintln!("flag {flag} needs a numeric value");
    std::process::exit(2);
}

/// `--time-limit SECS` → the FT-Search limit. Negative, non-finite and
/// overflowing values are errors naming the value, not the panic
/// `Duration::from_secs_f64` answers them with.
fn parse_time_limit(v: &str) -> Result<Duration, String> {
    let bad = |e: &dyn std::fmt::Display| format!("bad --time-limit {v:?}: {e}");
    let secs: f64 = v.parse().map_err(|e| bad(&e))?;
    Duration::try_from_secs_f64(secs).map_err(|e| bad(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> CommonArgs {
        CommonArgs::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags() {
        let a = parse(&["--apps", "12", "--time-limit", "2.5", "--seed", "9"]);
        assert_eq!(a.count, Some(12));
        assert_eq!(a.time_limit, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(a.seed, Some(9));
        assert!(!a.paper);
    }

    #[test]
    fn time_limit_is_parsed_not_trusted() {
        assert_eq!(parse_time_limit("2.5"), Ok(Duration::from_millis(2500)));
        // Each of these panicked in `Duration::from_secs_f64`.
        for bad in ["-1", "nan", "1e30"] {
            let err = parse_time_limit(bad).unwrap_err();
            assert!(
                err.starts_with(&format!("bad --time-limit \"{bad}\"")),
                "{err}"
            );
        }
        assert!(parse_time_limit("").is_err());
    }

    #[test]
    fn paper_flag_switches_defaults() {
        let a = parse(&["--paper"]);
        assert_eq!(a.count_or(10, 100), 100);
        let b = parse(&[]);
        assert_eq!(b.count_or(10, 100), 10);
        assert_eq!(
            b.time_limit_or(Duration::from_secs(2), Duration::from_secs(600)),
            Duration::from_secs(2)
        );
    }
}

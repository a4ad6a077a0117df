//! On-disk caching of corpus evaluations.
//!
//! The four runtime figures (9, 10, 11, 12) all derive from the same corpus
//! evaluation; on a single-core machine re-running it per binary would
//! multiply wall-clock time by four. The cache keys a JSON snapshot of the
//! evaluation by every parameter that affects it, so figure binaries share
//! one computation transparently (delete `target/laar-cache/` to force a
//! re-run).

use crate::evaluation::{AppEvaluation, CorpusEvaluation, EvalConfig, VariantEval};
use crate::variants::VariantEntry;
use laar_core::variants::VariantKind;
use laar_dsps::SimMetrics;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Serializable mirror of [`AppEvaluation`].
#[derive(Debug, Serialize, Deserialize)]
struct CachedApp {
    seed: u64,
    high_window: (f64, f64),
    runs: Vec<(VariantKind, VariantEntry, SimMetrics, Option<SimMetrics>)>,
}

/// Serializable mirror of [`CorpusEvaluation`].
#[derive(Debug, Serialize, Deserialize)]
struct CachedCorpus {
    apps: Vec<CachedApp>,
    skipped: Vec<(u64, String)>,
}

impl From<&CorpusEvaluation> for CachedCorpus {
    fn from(eval: &CorpusEvaluation) -> Self {
        CachedCorpus {
            apps: eval
                .apps
                .iter()
                .map(|a| CachedApp {
                    seed: a.seed,
                    high_window: a.high_window,
                    runs: a
                        .runs
                        .iter()
                        .map(|(&k, v)| (k, v.entry.clone(), v.best.clone(), v.worst.clone()))
                        .collect(),
                })
                .collect(),
            skipped: eval.skipped.clone(),
        }
    }
}

impl From<CachedCorpus> for CorpusEvaluation {
    fn from(c: CachedCorpus) -> Self {
        CorpusEvaluation {
            apps: c
                .apps
                .into_iter()
                .map(|a| AppEvaluation {
                    seed: a.seed,
                    high_window: a.high_window,
                    runs: a
                        .runs
                        .into_iter()
                        .map(|(k, entry, best, worst)| (k, VariantEval { entry, best, worst }))
                        .collect::<BTreeMap<_, _>>(),
                })
                .collect(),
            skipped: c.skipped,
        }
    }
}

/// A stable key describing everything that affects an evaluation's result.
fn cache_key(cfg: &EvalConfig) -> String {
    // Bump when generator/simulator semantics change: parameters alone do
    // not capture code-level behaviour changes. Solver changes count too:
    // the L.5–L.7 strategies are solved under a wall-clock limit, so a new
    // search order changes what a time-limited solve returns.
    const CACHE_VERSION: u32 = 3;
    // FNV-1a over a canonical parameter string.
    let desc = format!(
        "v={CACHE_VERSION} apps={} seed={} limit={:?} worst={} gen=({},{},{},{:?},{:?},{:?},{},{},{},{},{}) sim=({},{},{},{},{},{},{},{})",
        cfg.num_apps,
        cfg.seed,
        cfg.solver_time_limit,
        cfg.run_worst_case,
        cfg.gen.num_pes,
        cfg.gen.num_hosts,
        cfg.gen.host_capacity,
        cfg.gen.out_degree,
        cfg.gen.selectivity,
        cfg.gen.rate_range,
        cfg.gen.p_high,
        cfg.gen.min_rate_ratio,
        cfg.gen.low_util_target,
        cfg.gen.high_util_target,
        cfg.gen.duration,
        cfg.sim.quantum,
        cfg.sim.monitor_interval,
        cfg.sim.command_latency,
        cfg.sim.sync_delay,
        cfg.sim.detection_delay,
        cfg.sim.queue_capacity_secs,
        cfg.sim.monitor_bucket,
        cfg.sim.monitor_buckets,
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in desc.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    format!("{h:016x}")
}

fn cache_path(cfg: &EvalConfig) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    dir.join("laar-cache")
        .join(format!("eval-{}.json", cache_key(cfg)))
}

/// Load a cached evaluation for `cfg` or compute and cache it.
pub fn load_or_evaluate(cfg: &EvalConfig) -> CorpusEvaluation {
    let path = cache_path(cfg);
    if let Ok(bytes) = std::fs::read(&path) {
        if let Ok(cached) = serde_json::from_slice::<CachedCorpus>(&bytes) {
            eprintln!("using cached evaluation {}", path.display());
            return cached.into();
        }
    }
    let eval = crate::evaluation::evaluate_corpus(cfg);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match serde_json::to_vec(&CachedCorpus::from(&eval)) {
        Ok(bytes) => {
            if let Err(e) = std::fs::write(&path, bytes) {
                eprintln!("warning: could not write cache {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize cache: {e}"),
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_gen::GenParams;
    use std::time::Duration;

    fn cfg(n: usize) -> EvalConfig {
        EvalConfig {
            num_apps: n,
            seed: 4242,
            solver_time_limit: Duration::from_secs(3),
            gen: GenParams {
                num_pes: 5,
                num_hosts: 2,
                duration: 30.0,
                ..GenParams::default()
            },
            ..EvalConfig::default()
        }
    }

    #[test]
    fn cache_round_trip_preserves_results() {
        let c = cfg(2);
        let path = cache_path(&c);
        let _ = std::fs::remove_file(&path);
        let first = load_or_evaluate(&c);
        assert!(path.exists());
        let second = load_or_evaluate(&c);
        assert_eq!(first.apps.len(), second.apps.len());
        for (a, b) in first.apps.iter().zip(&second.apps) {
            assert_eq!(a.seed, b.seed);
            for (k, v) in &a.runs {
                let w = &b.runs[k];
                assert_eq!(v.best.total_processed(), w.best.total_processed());
                assert_eq!(v.best.queue_drops, w.best.queue_drops);
            }
        }
    }

    #[test]
    fn key_changes_with_parameters() {
        let a = cache_key(&cfg(2));
        let b = cache_key(&cfg(3));
        assert_ne!(a, b);
    }
}

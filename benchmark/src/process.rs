//! What the harness reads about its own process from procfs.

/// Process CPU seconds (user + system, all threads) from `/proc/self/stat`;
/// 0 where procfs is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // After the parenthesized comm, utime and stime are the 12th and 13th
    // fields, in 100 Hz ticks.
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; `None` where procfs
/// is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

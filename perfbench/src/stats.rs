//! Order statistics over host measurements.

/// Nearest-rank percentile of `v` (`q` in `[0, 1]`); sorts a copy.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of `v` without its lowest and highest tenth (at least one
/// value each side once there are three).
pub fn trimmed_mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of no samples");
    let mut s = v.to_vec();
    s.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let cut = if s.len() >= 3 {
        (s.len() / 10).max(1)
    } else {
        0
    };
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

//! Order statistics for latency samples.

/// Median with linear interpolation between the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile (0..=1) with linear interpolation.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Percentiles the tail is chosen from, highest first. A run's op count
/// depends on `--seconds` alone, so a workload's tail is the same
/// percentile on every run and every host. The ladder stops at p90: on a
/// shared 2-vCPU host, bursts of contention moved the p95 of process and
/// request latency by about a third between runs (the p99 by more), more
/// than any usable regression bound.
const TAIL_LADDER: [f64; 4] = [90.0, 75.0, 60.0, 50.0];

/// The tail of a latency sample: the highest percentile of the ladder that
/// leaves at least ten samples beyond it. Returns `(value, percentile,
/// samples beyond)`; below twenty samples none qualifies and the maximum
/// is reported as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    for p in TAIL_LADDER {
        let beyond = n - (p / 100.0 * n as f64).ceil() as usize;
        if beyond >= 10 {
            return (quantile(values, p / 100.0), p, beyond);
        }
    }
    let max = values.iter().copied().fold(f64::NAN, f64::max);
    (max, 100.0, 0)
}

//! Order statistics for timings: a median plus the highest percentile
//! that still has at least ten samples beyond it.

/// Percentiles tried for the tail, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_SUPPORT: f64 = 10.0;

/// Linear-interpolated quantile `q` in `[0, 1]` of `sorted` (non-empty).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(values), 0.5)
}

/// A timing distribution summarised for reporting.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Label of the tail statistic: `p99`, `p95`, ... or `max` when no
    /// percentile above the median has ten samples beyond it.
    pub tail_label: String,
    /// Value of the tail statistic.
    pub tail: f64,
}

/// Summarise `values` (may be empty: every field is then 0).
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary { n: 0, p50: 0.0, tail_label: "max".into(), tail: 0.0 };
    }
    let s = sorted(values);
    let n = s.len() as f64;
    let (tail_label, tail) =
        TAIL_PERCENTILES.iter().find(|&&p| n * (1.0 - p / 100.0) >= TAIL_SUPPORT).map_or_else(
            || ("max".to_string(), s[s.len() - 1]),
            |&p| (format!("p{p}"), quantile_sorted(&s, p / 100.0)),
        );
    Summary { n: s.len(), p50: quantile_sorted(&s, 0.5), tail_label, tail }
}

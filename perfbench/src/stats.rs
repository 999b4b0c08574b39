//! Statistics over benchmark samples.
//!
//! Two scopes use these helpers: *within a run* (per-job latencies, per-rep
//! throughputs) and *across runs* (the medians and quartiles a later change
//! is judged by). Quartiles follow Python's `statistics.quantiles(values,
//! n=4)` default ("exclusive") method exactly, so figures computed here and
//! figures computed by a Python harness over the same values agree.

/// Median of `values`; `None` when empty. The mean of the two middle
/// values for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First, second and third quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` computes them (method
/// `"exclusive"`). `None` for fewer than two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// a benchmark bound is compared against. `None` when the median is 0 or
/// quartiles are undefined.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// Quantile `q` (0 to 1) of whole-number samples, each read as spread
/// evenly over `[v, v + 1)`: the quantile of grouped data. Samples counted
/// in whole microseconds tie often, and this keeps the tie's share of the
/// quantile instead of reporting the bare whole number. `None` when empty.
pub fn grouped_quantile(values: &[u64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let target = q.clamp(0.0, 1.0) * sorted.len() as f64;
    let mut below = 0usize;
    for group in sorted.chunk_by(|a, b| a == b) {
        if (below + group.len()) as f64 >= target {
            return Some(group[0] as f64 + (target - below as f64) / group.len() as f64);
        }
        below += group.len();
    }
    None
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
    /// Samples in the run.
    pub samples: usize,
}

/// Percentiles [`highest_supported_tail`] chooses from, highest first.
pub const TAIL_CANDIDATES: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile in [`TAIL_CANDIDATES`] that has at least
/// [`MIN_BEYOND`] samples beyond it. `None` when even the median lacks that
/// support (fewer than 20 samples).
pub fn highest_supported_tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let rank = nearest_rank(n, p)?;
        let beyond = n - rank;
        (beyond >= MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: sorted[rank - 1],
            beyond,
            samples: n,
        })
    })
}

/// A count of failed operations reported against its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureShare {
    /// Operations that failed.
    pub failed: u64,
    /// Operations attempted (the base).
    pub attempted: u64,
}

impl FailureShare {
    /// Failed share in percent; 0 when nothing was attempted.
    pub fn percent(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            100.0 * self.failed as f64 / self.attempted as f64
        }
    }
}

impl std::fmt::Display for FailureShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4}% ({} of {})",
            self.percent(),
            self.failed,
            self.attempted
        )
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // Round before the ceiling so 99% of 1000 is rank 990, not 991 from
    // floating-point residue.
    let exact = (p / 100.0 * n as f64 * 1e6).round() / 1e6;
    Some((exact.ceil() as usize).clamp(1, n))
}

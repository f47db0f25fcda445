//! Latency summaries and failure accounting.

/// A tail percentile needs at least this many samples beyond it; with
/// fewer, the highest percentile that still has them is reported instead.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile: the value, the percentile it actually is, and
/// the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub pct: f64,
    pub samples: usize,
}

/// Nearest-rank percentile of `sorted` (ascending): the value at 1-based
/// rank `ceil(p / 100 * n)`. Returns `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(sorted[rank - 1])
}

/// The `p`-th percentile under the tail rule: if fewer than
/// [`MIN_BEYOND`] samples lie beyond the nearest rank of `p`, report the
/// highest percentile that has [`MIN_BEYOND`] samples beyond it (rank
/// `n - MIN_BEYOND`). With `MIN_BEYOND` samples or fewer no percentile
/// qualifies and the median is reported. `sorted` must be ascending.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let wanted = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    let rank = if n - wanted >= MIN_BEYOND {
        wanted
    } else if n > MIN_BEYOND {
        n - MIN_BEYOND
    } else {
        n.div_ceil(2)
    };
    Some(Percentile {
        value: sorted[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (the nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 50.0).unwrap_or(f64::NAN)
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it as failed too.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` failures found after the fact (a correctness mismatch,
    /// a delta the serving tier rejected) against operations already
    /// attempted. Failures never exceed attempts.
    pub fn fail_after(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted);
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let v = ramp(100);
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn p99_is_exact_with_enough_samples() {
        // 2000 samples: rank 1980 leaves 20 beyond, so p99 stands.
        let p = tail_percentile(&ramp(2000), 99.0).unwrap();
        assert_eq!(p.value, 1980.0);
        assert_eq!(p.pct, 99.0);
        assert_eq!(p.samples, 2000);
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        let p = tail_percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.pct, 99.0);
    }

    #[test]
    fn p99_falls_back_to_highest_percentile_with_ten_beyond() {
        // 200 samples: p99 would be rank 198 with 2 beyond; the rule
        // reports rank 190 (p95), which has 10 beyond.
        let p = tail_percentile(&ramp(200), 99.0).unwrap();
        assert_eq!(p.value, 190.0);
        assert_eq!(p.pct, 95.0);
        let beyond = ramp(200).iter().filter(|&&x| x > p.value).count();
        assert_eq!(beyond, MIN_BEYOND);
        // 60 samples: rank 50.
        let p = tail_percentile(&ramp(60), 99.0).unwrap();
        assert_eq!(p.value, 50.0);
        assert!((p.pct - 100.0 * 50.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_samples_report_the_median() {
        let p = tail_percentile(&ramp(7), 99.0).unwrap();
        assert_eq!(p.value, 4.0);
        assert_eq!(tail_percentile(&[], 99.0), None);
    }

    #[test]
    fn p50_is_unaffected_by_the_tail_rule() {
        let p = tail_percentile(&ramp(100), 50.0).unwrap();
        assert_eq!(p.value, 50.0);
        assert_eq!(p.pct, 50.0);
    }

    #[test]
    fn failed_ratio_counts_errors_and_late_failures() {
        let mut t = Tally::default();
        assert_eq!(t.ratio(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.ratio(), 0.25);
        // A correctness mismatch found after the window adds a failure.
        t.fail_after(1);
        assert_eq!(t.ratio(), 0.5);
        // Failures are capped at the attempts.
        t.fail_after(100);
        assert_eq!(t.failed, 4);
        assert_eq!(t.ratio(), 1.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }
}

//! Order statistics over timing samples.

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending,
/// non-empty): the smallest sample with at least `p`% of the samples
/// at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float noise in `p·n/100` (99.9 has no exact
    // binary form) from bumping an exact rank up by one.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Median (nearest rank); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A latency distribution summary that obeys the tail rule: the tail
/// is the highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] samples beyond it. With too few samples for even
/// the median to qualify, `tail_pct` is 0 and `tail` the maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            count: 0,
            p50: 0.0,
            tail_pct: 0.0,
            tail: 0.0,
        };
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (tail_pct, tail) = TAIL_LADDER
        .iter()
        .find(|&&p| n - 1 - rank(n, p) >= TAIL_BEYOND)
        .map_or((0.0, v[n - 1]), |&p| (p, percentile(&v, p)));
    Summary {
        count: n,
        p50: percentile(&v, 50.0),
        tail_pct,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        let s = summarize(&ramp(1_000));
        assert_eq!((s.tail_pct, s.tail, s.count), (99.0, 990.0, 1_000));
        // 999 samples: p99 would leave only 9 beyond; p98 leaves 19.
        assert_eq!(summarize(&ramp(999)).tail_pct, 98.0);
        // 10_000 samples reach p99.9.
        assert_eq!(summarize(&ramp(10_000)).tail_pct, 99.9);
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(summarize(&ramp(100)).tail_pct, 90.0);
        // 20 samples: only the median qualifies.
        assert_eq!(summarize(&ramp(21)).tail_pct, 50.0);
        // Too few for any percentile: the maximum, flagged with 0.
        let s = summarize(&ramp(5));
        assert_eq!((s.tail_pct, s.tail, s.p50), (0.0, 5.0, 3.0));
        assert_eq!(summarize(&[]).count, 0);
    }
}

//! Sample summaries: a log-linear histogram (exact below 256, ≤ 1/128
//! relative bucket width above) for latencies in ns and unreclaimed-block
//! counts, its percentile estimator, and a median.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (2 * SUB + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

/// Bucket of `v`: values below `2·SUB` have their own bucket; above, each
/// power of two is split into `SUB` equal buckets.
fn bucket(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (2 * SUB + u64::from(shift - 1) * SUB + (v >> shift) - SUB) as usize
}

/// Lowest value of bucket `b` and its width.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < 2 * SUB {
        return (b, 1);
    }
    let shift = (b - 2 * SUB) / SUB + 1;
    ((SUB + (b - 2 * SUB) % SUB) << shift, 1 << shift)
}

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: f64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0.0,
            max: 0,
        }
    }
}

impl Hist {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
        self.sum += v as f64;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.sum / self.n.max(1) as f64
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether quantile `q` has at least ten samples beyond it.
    fn supports(&self, q: f64) -> bool {
        self.n as f64 * (1.0 - q) >= 10.0
    }

    /// The `q`-quantile, or `None` when fewer than ten samples lie beyond it.
    ///
    /// The integers of a bucket `[lo, lo + width)` stand for the interval
    /// `[lo − ½, lo + width − ½)`, and the quantile is interpolated inside
    /// the bucket holding rank `q·n` (the grouped-data median formula).
    /// Nanosecond samples of a fast op pile onto a few integers;
    /// interpolation resolves the shift between runs that the plain order
    /// statistic rounds away.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if !self.supports(q) {
            return None;
        }
        let target = q * self.n as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            if (below + c) as f64 >= target {
                let (lo, width) = bucket_range(b);
                let within = (target - below as f64) / c as f64;
                return Some((lo as f64 - 0.5 + within * width as f64).max(0.0));
            }
            below += c;
        }
        Some(self.max as f64)
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: impl IntoIterator<Item = u64>) -> Hist {
        let mut h = Hist::default();
        values.into_iter().for_each(|v| h.record(v));
        h
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 needs n·0.01 >= 10, i.e. n >= 1000.
        assert_eq!(hist(1..=999).percentile(0.99), None);
        assert!(hist(1..=1000).percentile(0.99).is_some());
        // p50 needs 20 samples.
        assert_eq!(hist(1..=19).percentile(0.5), None);
        assert!(hist(1..=20).percentile(0.5).is_some());
        assert_eq!(hist(1..=1000).count(), 1000);
    }

    #[test]
    fn percentile_of_known_sequences() {
        // 1..=999: rank 499.5 lies halfway through the value 500.
        assert_eq!(hist(1..=999).percentile(0.5), Some(500.0));
        // 1..=100: rank 50 is the top edge of the value 50.
        assert_eq!(hist(1..=100).percentile(0.5), Some(50.5));
        assert_eq!(hist(1..=10_000).percentile(0.99), Some(9900.5));
        // 40 samples of 7 and 60 of 8: rank 50 is 10/60 into the 8s.
        let h = hist(std::iter::repeat_n(7, 40).chain(std::iter::repeat_n(8, 60)));
        assert_eq!(h.percentile(0.5), Some(7.5 + 10.0 / 60.0));
    }

    #[test]
    fn buckets_cover_every_value_once_and_in_order() {
        let mut prev = (0, 0);
        for b in 0..BUCKETS {
            let (lo, width) = bucket_range(b);
            assert!(b == 0 || lo == prev.0 + prev.1, "bucket {b} leaves a gap");
            assert_eq!((bucket(lo), bucket(lo + (width - 1))), (b, b));
            assert!(
                lo < 2 * SUB || width * SUB <= lo,
                "bucket {b} wider than 1/128"
            );
            prev = (lo, width);
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentile_interpolates_inside_wide_buckets() {
        // 100_000..=100_050 share the bucket [99_840, 100_352).
        let h = hist((0..50).chain((0..51).map(|i| 100_000 + i)));
        assert_eq!(h.percentile(0.5), Some(99_839.5 + 0.5 / 51.0 * 512.0));
        assert_eq!(h.max(), 100_050);
        let mut merged = hist(0..50);
        merged.merge(&hist((0..51).map(|i| 100_000 + i)));
        assert_eq!(merged.percentile(0.5), h.percentile(0.5));
        assert_eq!(merged.mean(), h.mean());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

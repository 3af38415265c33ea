//! Latency histogram with the benchmark's percentile rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Sub-buckets per power of two: bucket width is 1/64 of its value.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: u64 = 10;

/// The percentiles the benchmark names, lowest first.
pub const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// While a histogram holds at most this many samples it also keeps them
/// as measured, and percentiles are exact; past it they are read from
/// the buckets (the writer's few thousand batch latencies stay exact,
/// the millions of per-call latencies do not need to).
const EXACT_MAX: usize = 1 << 14;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    /// Every sample, while there are at most [`EXACT_MAX`] of them.
    exact: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            exact: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hist(n={}, max={})", self.count, self.max)
    }
}

#[inline]
fn bucket_of(v: u64) -> usize {
    let msb = 63 - (v | 1).leading_zeros();
    let shift = msb.saturating_sub(SUB_BITS);
    shift as usize * SUB + (v >> shift) as usize
}

/// Lowest value and width of bucket `i`.
fn bucket_span(i: usize) -> (u64, u64) {
    if i < 2 * SUB {
        return (i as u64, 1);
    }
    let shift = (i / SUB - 1) as u32;
    (((i % SUB + SUB) as u64) << shift, 1 << shift)
}

impl Hist {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        if self.exact.len() < EXACT_MAX {
            self.exact.push(v);
        }
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        if self.is_exact() && other.is_exact() {
            self.exact.extend_from_slice(&other.exact);
            self.exact.truncate(EXACT_MAX);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    fn is_exact(&self) -> bool {
        self.exact.len() as u64 == self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether at least [`MIN_BEYOND`] samples lie beyond percentile `p`.
    pub fn supports(&self, p: f64) -> bool {
        self.count >= rank_of(self.count, p) + MIN_BEYOND
    }

    /// The highest percentile of [`LADDER`] this sample supports.
    pub fn highest_supported(&self) -> Option<f64> {
        LADDER.iter().rev().copied().find(|&p| self.supports(p))
    }

    /// Percentile `p`, or `None` when fewer than [`MIN_BEYOND`] samples
    /// lie beyond it. Interpolated inside the bucket by rank, so the
    /// value is not quantised to bucket edges.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        self.supports(p)
            .then(|| self.at_rank(rank_of(self.count, p)))
    }

    /// Percentile `p` if supported, else the highest supported one (0 on
    /// an empty or tiny sample), with the percentile actually used.
    pub fn percentile_or_highest(&self, p: f64) -> (f64, f64) {
        match self.percentile(p) {
            Some(v) => (v, p),
            None => match self.highest_supported() {
                Some(q) => (self.at_rank(rank_of(self.count, q)), q),
                None => (0.0, 0.0),
            },
        }
    }

    fn at_rank(&self, rank: u64) -> f64 {
        if self.is_exact() && self.count > 0 {
            let mut sorted = self.exact.clone();
            sorted.sort_unstable();
            return sorted[rank as usize - 1] as f64;
        }
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && before + c >= rank {
                let (lo, width) = bucket_span(i);
                let within = (rank - before) as f64 - 0.5;
                return lo as f64 + width as f64 * within / c as f64;
            }
            before += c;
        }
        self.max as f64
    }
}

/// 1-based rank of percentile `p` among `count` samples.
fn rank_of(count: u64, p: f64) -> u64 {
    ((count as f64 * p - 1e-9).ceil() as u64).clamp(1, count.max(1))
}

/// Median of a non-empty slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// How far apart the quarter points of the samples lie, as a share of
/// their median: the spread recorded beside a median of rounds. (The
/// first round of a run is usually the slowest — cold files, untouched
/// memory — so the full range says more about that than about the rest.)
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = median(&v);
    if m == 0.0 {
        return 0.0;
    }
    (v[v.len() * 3 / 4] - v[v.len() / 4]) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut last = 0;
        for v in (0..100_000u64).chain([1 << 40, u64::MAX - 1]) {
            let b = bucket_of(v);
            assert!(b >= last || v == 0);
            last = b;
            let (lo, w) = bucket_span(b);
            assert!(lo <= v && v - lo < w, "{v} in [{lo}, +{w})");
            assert!(b < BUCKETS);
        }
    }

    #[test]
    fn percentile_rule_refuses_thin_tails() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p99 of 1000 samples has exactly 10 beyond it; p999 has 1.
        assert!(h.percentile(0.99).is_some());
        assert!(h.percentile(0.999).is_none());
        assert_eq!(h.highest_supported(), Some(0.99));
        let mut small = Hist::default();
        for v in 0..19u64 {
            small.record(v);
        }
        assert!(
            small.percentile(0.5).is_none(),
            "19 samples: 9 beyond the median"
        );
        small.record(19);
        assert!(small.percentile(0.5).is_some());
        assert_eq!(small.percentile_or_highest(0.99).1, 0.5);
        assert_eq!(Hist::default().percentile_or_highest(0.5), (0.0, 0.0));
    }

    #[test]
    fn percentiles_land_within_a_bucket_width() {
        let mut h = Hist::default();
        for v in 0..100_000u64 {
            h.record(v * 10);
        }
        for (p, want) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
            let got = h.percentile(p).unwrap();
            assert!(
                (got - want).abs() / want < 1.0 / 64.0,
                "{p}: {got} vs {want}"
            );
        }
        assert_eq!(h.max(), 999_990);
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn small_samples_are_exact_and_large_ones_fall_back_to_buckets() {
        let mut h = Hist::default();
        for v in (1..=2000u64).rev() {
            h.record(v * 1000 + 7);
        }
        assert_eq!(h.percentile(0.5), Some(1_000_007.0));
        assert_eq!(h.percentile(0.99), Some(1_980_007.0));
        let mut other = Hist::default();
        other.record(5);
        h.merge(&other);
        assert_eq!(
            h.percentile(0.5),
            Some(1_000_007.0),
            "2001 samples: rank 1001"
        );
        let mut big = Hist::default();
        for v in 0..(EXACT_MAX as u64 + 10) {
            big.record(v);
        }
        assert!(!big.is_exact());
        let p50 = big.percentile(0.5).unwrap();
        assert!((p50 - 8_197.0).abs() < 8_197.0 / 64.0, "{p50}");
        // Merging an exact sample into an inexact one stays inexact.
        big.merge(&other);
        assert!(!big.is_exact());
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(spread(&[30.0, 10.0, 10.0, 12.0, 8.0]), 0.2);
    }
}

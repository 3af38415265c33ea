//! Deterministic randomized-testing helpers.
//!
//! The workspace builds offline with zero external dependencies, so this
//! crate stands in for `rand` (a seedable PRNG) and for the shape of the
//! property suites that would otherwise use `proptest`: run a closure over
//! many independently seeded random cases and report the failing seed so a
//! counterexample can be replayed by hand.
//!
//! The generator is SplitMix64 — tiny, fast, and passes BigCrush for the
//! purposes of workload generation. It is *not* cryptographic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(cosbt_model)]
pub mod model;
pub mod sync;

/// A seedable SplitMix64 pseudorandom generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed; equal seeds give equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: seed.wrapping_add(0x9E3779B97F4A7C15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Multiply-shift rejection-free mapping (slight bias is irrelevant
        // for test workloads; bound is far below 2^64).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform usize in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Bernoulli draw with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Random bool.
    pub fn flag(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A vector of `n` raw 64-bit values.
    pub fn vec_u64(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_u64()).collect()
    }

    /// A vector with a random length in `[min_len, max_len)` of values in
    /// `[0, key_bound)`.
    pub fn vec_below(&mut self, min_len: usize, max_len: usize, key_bound: u64) -> Vec<u64> {
        let n = min_len + self.index(max_len - min_len);
        (0..n).map(|_| self.below(key_bound)).collect()
    }
}

/// A zipfian rank sampler over `[0, n)`: rank `r` is drawn with
/// probability proportional to `1/(r+1)^theta`, the skewed access
/// pattern of YCSB-style benchmark workloads (a small set of hot keys
/// absorbs most of the traffic).
///
/// Uses the constant-time inversion method of Gray et al., *Quickly
/// generating billion-record synthetic databases* (SIGMOD '94): an `O(n)`
/// harmonic-sum precomputation at construction, then `O(1)` per sample.
/// Ranks are returned in popularity order — rank 0 is the hottest — so
/// callers that want hot keys scattered across the keyspace should map
/// ranks through a hash (see `cosbt-bench`'s workload layer).
///
/// ```
/// use cosbt_testkit::{Rng, Zipf};
///
/// let zipf = Zipf::new(1000, 0.99);
/// let mut rng = Rng::new(7);
/// let mut hits0 = 0;
/// for _ in 0..10_000 {
///     let r = zipf.sample(&mut rng);
///     assert!(r < 1000);
///     if r == 0 {
///         hits0 += 1;
///     }
/// }
/// // Rank 0 gets far more than the uniform 1/1000 share.
/// assert!(hits0 > 500);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// A sampler over ranks `[0, n)` with skew `theta` in `(0, 1)`
    /// (YCSB's default is 0.99; larger is more skewed). Panics on an
    /// empty domain or a `theta` outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty domain");
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipf skew must lie in (0, 1), got {theta}"
        );
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Number of ranks in the domain.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// The probability of rank `r` under this distribution.
    pub fn rank_probability(&self, r: u64) -> f64 {
        assert!(r < self.n, "rank outside the domain");
        1.0 / ((r + 1) as f64).powf(self.theta) / self.zetan
    }

    /// Draws one rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        // Map a u64 to a uniform in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Runs `case` for `cases` independently seeded random inputs. On panic the
/// failing case index and derived seed are printed so the case can be
/// replayed with `Rng::new(seed)`.
pub fn check_cases(name: &str, cases: u64, mut case: impl FnMut(&mut Rng)) {
    // Mix the suite name into the seed so different properties explore
    // different input streams (while staying replayable).
    let name_hash = name.bytes().fold(0xCBF29CE484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001B3)
    });
    for i in 0..cases {
        // Decorrelate consecutive case seeds.
        let seed = (i + 1).wrapping_mul(0x9E3779B97F4A7C15) ^ name_hash;
        let mut rng = Rng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        if let Err(e) = result {
            eprintln!("property '{name}' failed on case {i} (replay seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

/// A path for a test's scratch file, store or directory that no other
/// test — in this process, in a parallel test process, or in an earlier
/// run — shares, removed with everything beside it when the value drops.
///
/// `cargo test` runs tests on parallel threads and test binaries in
/// parallel processes, so two tests that build the same
/// `temp_dir().join("…")` path race on it. Each `TempPath` is
/// `<tmp>/cosbt-<pid>-<counter>-<nanos>/<name>`: the directory is
/// created, nothing is created at the path itself, and the drop removes
/// the directory — so the files a store derives from its base path
/// (`<name>.shard0`, `<name>.shard1`, …) go with it. It derefs to
/// [`Path`](std::path::Path), so `&tmp` goes wherever `&Path` does.
#[derive(Debug)]
pub struct TempPath {
    /// The directory this value created and removes — kept, not derived
    /// from `path`, so no `name` can make the drop remove anything else.
    dir: std::path::PathBuf,
    path: std::path::PathBuf,
}

impl TempPath {
    /// A fresh path ending in `name`.
    pub fn new(name: &str) -> TempPath {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        // ordering: a uniqueness counter; no other memory is published.
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("cosbt-{pid}-{n}-{nanos}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            panic!("cannot create {}: {e}", dir.display());
        }
        let path = dir.join(name);
        TempPath { dir, path }
    }
}

impl std::ops::Deref for TempPath {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.path
    }
}

impl AsRef<std::path::Path> for TempPath {
    fn as_ref(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        // Best effort: a leftover directory must not fail a test.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn bounds_respected() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
            assert!(r.index(3) < 3);
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = Rng::new(2);
        let hits = (0..10_000).filter(|_| r.chance(1, 4)).count();
        assert!((2000..3000).contains(&hits), "1/4 chance hit {hits}/10000");
    }

    #[test]
    fn temp_paths_are_distinct_and_removed_with_their_siblings() {
        let (a, b) = (TempPath::new("t.db"), TempPath::new("t.db"));
        assert_ne!(*a, *b);
        assert!(!a.exists() && a.parent().unwrap().is_dir());
        std::fs::write(&a, b"x").unwrap();
        std::fs::write(a.with_extension("db.shard0"), b"y").unwrap();
        std::fs::create_dir(&*b).unwrap();
        let (pa, pb) = (a.parent().unwrap().to_path_buf(), b.to_path_buf());
        drop((a, b));
        assert!(!pa.exists() && !pb.exists());
    }

    #[test]
    fn check_cases_runs_all() {
        let mut n = 0u64;
        check_cases("count", 16, |_| n += 1);
        assert_eq!(n, 16);
    }

    #[test]
    fn zipf_matches_rank_frequency_law() {
        // Empirical rank frequencies must track 1/(r+1)^theta / zeta(n)
        // within a loose statistical tolerance.
        let n = 100u64;
        let theta = 0.99;
        let zipf = Zipf::new(n, theta);
        let mut rng = Rng::new(0xC0FFEE);
        let samples = 200_000u64;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..samples {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for r in [0u64, 1, 2, 5, 10, 50] {
            let want = zipf.rank_probability(r);
            let got = counts[r as usize] as f64 / samples as f64;
            assert!(
                (got - want).abs() < 0.15 * want + 0.002,
                "rank {r}: empirical {got:.5} vs theoretical {want:.5}"
            );
        }
        // Popularity must be (statistically) monotone at the head.
        assert!(counts[0] > counts[5]);
        assert!(counts[1] > counts[20]);
    }

    #[test]
    fn zipf_stays_in_domain_and_is_deterministic() {
        let zipf = Zipf::new(17, 0.5);
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        for _ in 0..10_000 {
            let ra = zipf.sample(&mut a);
            assert!(ra < 17);
            assert_eq!(ra, zipf.sample(&mut b));
        }
        assert_eq!(zipf.domain(), 17);
    }
}

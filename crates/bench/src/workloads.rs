//! Workload generators: the paper's key streams plus the composable
//! scenario layer (key distributions × operation mixes).
//!
//! The paper inserts 64-bit keys in three orders: uniformly random,
//! ascending `[0, …, N−1]`, and descending `[N−1, …, 0]`; search probes
//! are uniformly random existing keys. Those generators are kept
//! unchanged for the figure benches. On top of them, the scenario
//! harness composes a [`KeyDist`] (which keys) with an [`OpMix`] (which
//! operations) into one deterministic, seeded [`OpStream`] — the same
//! seed always yields the same operation sequence, so a run can be
//! replayed against a model for correctness or against a baseline for
//! performance.

use cosbt::testkit::{Rng, Zipf};

/// `n` pseudorandom 64-bit keys (duplicates possible, as in the paper's
/// "N random elements").
pub fn random_keys(n: u64, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Keys `0, 1, …, n−1`.
pub fn ascending(n: u64) -> Vec<u64> {
    (0..n).collect()
}

/// Keys `n−1, …, 1, 0` — the B-tree's best case (Figure 3 inserts the
/// keys in descending order).
pub fn descending(n: u64) -> Vec<u64> {
    (0..n).rev().collect()
}

/// `count` random probes drawn from `keys` (with replacement), as in the
/// paper's 2^15 random searches.
pub fn search_probes(keys: &[u64], count: u64, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| rng.index(keys.len()))
        .map(|i| keys[i])
        .collect()
}

/// Which keys a scenario touches.
///
/// For the random distributions, key *identities* are drawn from a
/// bounded logical space of `space` distinct keys (so reads actually
/// hit earlier writes), then spread across the full `u64` range
/// order-preservingly — a sharded database with default even splitters
/// sees balanced partitions instead of every key landing in shard 0.
/// The append distributions ([`KeyDist::Ascending`],
/// [`KeyDist::TimeSeriesAppend`]) deliberately emit raw small
/// sequential keys: an append workload is *inherently* tail-heavy, and
/// under even splitters it will hammer shard 0 — measuring exactly the
/// hotspot a sharded deployment must solve with custom
/// `shard_splitters`, not a generator artifact to paper over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key in the space equally likely.
    Uniform {
        /// Number of distinct logical keys.
        space: u64,
    },
    /// YCSB-style zipfian popularity: a small hot set absorbs most
    /// operations. Hot ranks are scattered over the key space by a
    /// hash, so "popular" does not mean "adjacent" (or "same shard").
    Zipfian {
        /// Number of distinct logical keys.
        space: u64,
        /// Skew in `(0, 1)`; YCSB's default is 0.99.
        theta: f64,
    },
    /// Strictly ascending sequence — bulk-load / log-append pattern,
    /// the B-tree's best case and the COLA's carry-heavy case.
    Ascending,
    /// Time-series append: monotone timestamps with bounded out-of-order
    /// arrival (each key may land up to `jitter` behind the newest), the
    /// standard ingest pattern of metrics pipelines.
    TimeSeriesAppend {
        /// Maximum backward displacement of a key.
        jitter: u64,
    },
    /// Zipfian popularity whose hot set *migrates*: every `period` draws
    /// the rank→key mapping is re-scattered, so yesterday's hot keys go
    /// cold and a fresh set heats up — the cache-invalidation pattern of
    /// trending content, rotating dashboards, and diurnal traffic. A
    /// stationary zipfian rewards whoever happens to cache the hot set
    /// once; a shifting one measures how fast a structure re-warms.
    ShiftingHotspot {
        /// Number of distinct logical keys.
        space: u64,
        /// Skew in `(0, 1)`; YCSB's default is 0.99.
        theta: f64,
        /// Draws between hot-set migrations.
        period: u64,
    },
}

impl KeyDist {
    /// Parses the CLI spelling: `uniform`, `zipfian`, `ascending`,
    /// `timeseries`, `shifting_hotspot`.
    pub fn by_name(name: &str, space: u64) -> Option<KeyDist> {
        Some(match name {
            "uniform" => KeyDist::Uniform { space },
            "zipfian" => KeyDist::Zipfian { space, theta: 0.99 },
            "ascending" => KeyDist::Ascending,
            "timeseries" => KeyDist::TimeSeriesAppend { jitter: 64 },
            "shifting_hotspot" => KeyDist::ShiftingHotspot {
                space,
                theta: 0.99,
                period: (space / 2).max(16),
            },
            _ => return None,
        })
    }

    /// The CLI spelling of this distribution.
    pub fn name(&self) -> &'static str {
        match self {
            KeyDist::Uniform { .. } => "uniform",
            KeyDist::Zipfian { .. } => "zipfian",
            KeyDist::Ascending => "ascending",
            KeyDist::TimeSeriesAppend { .. } => "timeseries",
            KeyDist::ShiftingHotspot { .. } => "shifting_hotspot",
        }
    }
}

/// Spreads logical key `k` of a `space`-sized domain across the full
/// `u64` range, preserving order (so range scans and shard splitters
/// still see the logical ordering).
fn spread(k: u64, space: u64) -> u64 {
    k.saturating_mul(u64::MAX / space.max(1))
}

/// SplitMix64 finalizer: scatters zipfian ranks so the hot set is not a
/// contiguous key range.
fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Stateful key generator for one [`KeyDist`].
#[derive(Debug, Clone)]
pub struct KeyGen {
    dist: KeyDist,
    zipf: Option<Zipf>,
    next_seq: u64,
}

impl KeyGen {
    /// A generator at the start of the distribution's sequence.
    pub fn new(dist: KeyDist) -> KeyGen {
        let zipf = match dist {
            KeyDist::Zipfian { space, theta } | KeyDist::ShiftingHotspot { space, theta, .. } => {
                Some(Zipf::new(space.max(1), theta))
            }
            _ => None,
        };
        KeyGen {
            dist,
            zipf,
            next_seq: 0,
        }
    }

    /// Draws a key guaranteed **absent** from anything `next_key` (or
    /// [`prefill_run`]) ever produced, while following the same
    /// popularity skew. The spread distributions only ever emit
    /// multiples of the spread step, so the mid-gap point beside a
    /// distribution-typical key is never written; the append
    /// distributions stay far below `2^63` for any realistic run, so a
    /// high-bit key is never written. This is what a negative-lookup
    /// workload probes: keys that fall *inside* the populated key range
    /// (fence checks can't reject them) but match no stored key.
    pub fn next_miss_key(&mut self, rng: &mut Rng) -> u64 {
        match self.dist {
            KeyDist::Uniform { space }
            | KeyDist::Zipfian { space, .. }
            | KeyDist::ShiftingHotspot { space, .. } => {
                self.next_key(rng) + u64::MAX / space.max(1) / 2
            }
            KeyDist::Ascending | KeyDist::TimeSeriesAppend { .. } => 1 << 63 | self.next_key(rng),
        }
    }

    /// The high-water mark of an append distribution: one past the
    /// newest key the generator has emitted (always 0 for the random
    /// distributions, which have no notion of "newest"). A retention
    /// trim expires everything more than a window behind this mark.
    pub fn watermark(&self) -> u64 {
        match self.dist {
            KeyDist::Ascending | KeyDist::TimeSeriesAppend { .. } => self.next_seq,
            _ => 0,
        }
    }

    /// Draws the next key (deterministic given the `rng` stream and the
    /// number of previous draws).
    pub fn next_key(&mut self, rng: &mut Rng) -> u64 {
        match self.dist {
            KeyDist::Uniform { space } => spread(rng.below(space.max(1)), space),
            KeyDist::Zipfian { space, .. } => {
                let rank = self.zipf.as_ref().expect("zipf built").sample(rng);
                spread(scramble(rank) % space.max(1), space)
            }
            KeyDist::Ascending => {
                let k = self.next_seq;
                self.next_seq += 1;
                k
            }
            KeyDist::TimeSeriesAppend { jitter } => {
                let base = self.next_seq;
                self.next_seq += 1;
                base.saturating_sub(if jitter == 0 {
                    0
                } else {
                    rng.below(jitter + 1)
                })
            }
            KeyDist::ShiftingHotspot { space, period, .. } => {
                // `next_seq` counts draws; every `period` draws the
                // epoch increments and the rank→key scatter changes, so
                // the whole hot set jumps to fresh (still scattered)
                // identities while the popularity *shape* stays zipfian.
                let epoch = self.next_seq / period.max(1);
                self.next_seq += 1;
                let rank = self.zipf.as_ref().expect("zipf built").sample(rng);
                let id = scramble(rank.wrapping_add(epoch.wrapping_mul(0x9E3779B9)));
                spread(id % space.max(1), space)
            }
        }
    }
}

/// One benchmark operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup.
    Get(u64),
    /// Upsert.
    Insert(u64, u64),
    /// Delete (tombstone for the log-structured structures).
    Delete(u64),
    /// Range scan: stream up to the given number of entries from the key.
    Scan(u64, usize),
    /// Retention trim: delete every live key strictly below the cutoff —
    /// the expiry pass of a time-series store dropping data older than
    /// its retention window.
    Trim(u64),
}

/// Relative operation weights of a stationary mixed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Point-lookup weight.
    pub get: u32,
    /// Negative point-lookup weight: gets against keys guaranteed absent
    /// (see [`KeyGen::next_miss_key`]) — the workload class per-level
    /// filters exist for.
    pub neg_get: u32,
    /// Upsert weight.
    pub insert: u32,
    /// Delete weight.
    pub delete: u32,
    /// Range-scan weight.
    pub scan: u32,
    /// Entries streamed per scan.
    pub scan_len: usize,
    /// Retention-trim weight: each trim op deletes everything more than
    /// `retention` keys behind the append watermark (a no-op for
    /// non-append distributions, whose watermark stays 0).
    pub trim: u32,
    /// Retention window in keys for trim ops.
    pub retention: u64,
}

impl OpMix {
    /// 95% reads / 5% writes — the serving-path mix where the B-tree
    /// should shine.
    pub const READ_HEAVY: OpMix = OpMix {
        get: 95,
        neg_get: 0,
        insert: 5,
        delete: 0,
        scan: 0,
        scan_len: 0,
        trim: 0,
        retention: 0,
    };
    /// 50% reads / 50% writes.
    pub const BALANCED: OpMix = OpMix {
        get: 50,
        neg_get: 0,
        insert: 45,
        delete: 5,
        scan: 0,
        scan_len: 0,
        trim: 0,
        retention: 0,
    };
    /// 5% reads / 95% writes — the streaming-ingest mix the COLA family
    /// is built for.
    pub const WRITE_HEAVY: OpMix = OpMix {
        get: 5,
        neg_get: 0,
        insert: 90,
        delete: 5,
        scan: 0,
        scan_len: 0,
        trim: 0,
        retention: 0,
    };
    /// Mostly range scans over a trickle of writes (analytics over a
    /// slowly changing table).
    pub const SCAN_HEAVY: OpMix = OpMix {
        get: 10,
        neg_get: 0,
        insert: 10,
        delete: 0,
        scan: 80,
        scan_len: 100,
        trim: 0,
        retention: 0,
    };
    /// Pure insertion — the drain phase of insert-then-range-drain is
    /// generated by the scenario runner, not by the mix.
    pub const INSERT_ONLY: OpMix = OpMix {
        get: 0,
        neg_get: 0,
        insert: 100,
        delete: 0,
        scan: 0,
        scan_len: 0,
        trim: 0,
        retention: 0,
    };
    /// 90% negative lookups over a trickle of hits and writes — the
    /// existence-check mix (dedup, cache-fill, join probes) where a read
    /// path that rejects misses without touching data wins outright.
    pub const MISS_HEAVY: OpMix = OpMix {
        get: 5,
        neg_get: 90,
        insert: 5,
        delete: 0,
        scan: 0,
        scan_len: 0,
        trim: 0,
        retention: 0,
    };
    /// Metrics-pipeline retention: heavy append, a few recent-window
    /// reads and scans, and periodic trims that expire everything more
    /// than `retention` keys behind the newest timestamp — the
    /// steady-state shape of a time-series store whose live set is
    /// bounded while its write volume is not.
    pub const TIMESERIES_RETENTION: OpMix = OpMix {
        get: 4,
        neg_get: 0,
        insert: 90,
        delete: 0,
        scan: 4,
        scan_len: 100,
        trim: 2,
        retention: 4096,
    };

    fn total(&self) -> u32 {
        self.get + self.neg_get + self.insert + self.delete + self.scan + self.trim
    }
}

/// A deterministic operation stream: `mix` × `dist`, seeded. Equal
/// parameters yield equal streams, which is what lets a scenario run be
/// replayed against a `BTreeMap` model or compared across structures.
#[derive(Debug, Clone)]
pub struct OpStream {
    mix: OpMix,
    keys: KeyGen,
    rng: Rng,
    produced: u64,
}

impl OpStream {
    /// A stream at its start.
    pub fn new(mix: OpMix, dist: KeyDist, seed: u64) -> OpStream {
        assert!(mix.total() > 0, "an op mix needs at least one weight");
        OpStream {
            mix,
            keys: KeyGen::new(dist),
            rng: Rng::new(seed),
            produced: 0,
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let roll = self.rng.below(self.mix.total() as u64) as u32;
        self.produced += 1;
        // One key draw per op, after the roll, so mixes without a
        // `neg_get` band replay the exact streams they always produced.
        let m = self.mix;
        Some(if roll < m.get {
            Op::Get(self.keys.next_key(&mut self.rng))
        } else if roll < m.get + m.neg_get {
            Op::Get(self.keys.next_miss_key(&mut self.rng))
        } else if roll < m.get + m.neg_get + m.insert {
            // Values encode the op index, so replay divergence is visible.
            Op::Insert(self.keys.next_key(&mut self.rng), self.produced)
        } else if roll < m.get + m.neg_get + m.insert + m.delete {
            Op::Delete(self.keys.next_key(&mut self.rng))
        } else if roll < m.get + m.neg_get + m.insert + m.delete + m.scan {
            Op::Scan(self.keys.next_key(&mut self.rng), m.scan_len.max(1))
        } else {
            // A trim consumes no rng draw: its cutoff is a function of
            // the generator's watermark, so the key stream around it is
            // unchanged whether or not the trim band exists.
            Op::Trim(self.keys.watermark().saturating_sub(m.retention))
        })
    }
}

/// A key-sorted unique run of `n` prefill pairs drawn from `dist`
/// (values are the draw index; later draws win on duplicate keys, as
/// `insert_batch` requires sorted-stable runs).
pub fn prefill_run(dist: KeyDist, n: u64, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed);
    let mut keys = KeyGen::new(dist);
    let mut run: Vec<(u64, u64)> = (0..n).map(|i| (keys.next_key(&mut rng), i)).collect();
    run.sort_by_key(|&(k, _)| k); // stable: later draws stay later
    run.dedup_by(|later, earlier| {
        if later.0 == earlier.0 {
            earlier.1 = later.1; // keep the newest value per key
            true
        } else {
            false
        }
    });
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_deterministic_and_sized() {
        assert_eq!(random_keys(100, 1), random_keys(100, 1));
        assert_ne!(random_keys(100, 1), random_keys(100, 2));
        assert_eq!(ascending(5), vec![0, 1, 2, 3, 4]);
        assert_eq!(descending(5), vec![4, 3, 2, 1, 0]);
        let keys = random_keys(50, 3);
        let probes = search_probes(&keys, 200, 4);
        assert_eq!(probes.len(), 200);
        assert!(probes.iter().all(|p| keys.contains(p)));
    }

    #[test]
    fn op_streams_replay_exactly() {
        for dist in [
            KeyDist::Uniform { space: 1000 },
            KeyDist::Zipfian {
                space: 1000,
                theta: 0.99,
            },
            KeyDist::Ascending,
            KeyDist::TimeSeriesAppend { jitter: 16 },
        ] {
            let a: Vec<Op> = OpStream::new(OpMix::BALANCED, dist, 42)
                .take(2000)
                .collect();
            let b: Vec<Op> = OpStream::new(OpMix::BALANCED, dist, 42)
                .take(2000)
                .collect();
            assert_eq!(a, b, "{dist:?} must replay");
            let c: Vec<Op> = OpStream::new(OpMix::BALANCED, dist, 43)
                .take(2000)
                .collect();
            assert_ne!(a, c, "{dist:?} must vary with the seed");
        }
    }

    #[test]
    fn mixes_are_roughly_calibrated() {
        let ops: Vec<Op> = OpStream::new(OpMix::READ_HEAVY, KeyDist::Uniform { space: 100 }, 7)
            .take(10_000)
            .collect();
        let gets = ops.iter().filter(|o| matches!(o, Op::Get(_))).count();
        assert!(
            (9_000..10_000).contains(&gets),
            "95/5 mix produced {gets} gets"
        );
        let ops: Vec<Op> = OpStream::new(OpMix::SCAN_HEAVY, KeyDist::Uniform { space: 100 }, 7)
            .take(10_000)
            .collect();
        let scans = ops.iter().filter(|o| matches!(o, Op::Scan(..))).count();
        assert!((7_000..9_000).contains(&scans), "{scans} scans");
    }

    #[test]
    fn ascending_and_timeseries_stay_monotoneish() {
        let mut rng = Rng::new(1);
        let mut g = KeyGen::new(KeyDist::Ascending);
        let keys: Vec<u64> = (0..100).map(|_| g.next_key(&mut rng)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));

        let mut g = KeyGen::new(KeyDist::TimeSeriesAppend { jitter: 8 });
        let mut hi = 0u64;
        for i in 0..10_000u64 {
            let k = g.next_key(&mut rng);
            assert!(k + 8 >= i, "key {k} fell more than jitter behind {i}");
            hi = hi.max(k);
        }
        assert!(hi >= 10_000 - 9, "the sequence advances");
    }

    #[test]
    fn zipfian_keys_are_skewed_but_spread() {
        let mut rng = Rng::new(5);
        let mut g = KeyGen::new(KeyDist::Zipfian {
            space: 10_000,
            theta: 0.99,
        });
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(g.next_key(&mut rng)).or_insert(0u64) += 1;
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        assert!(freq[0] > 1000, "hottest key absorbs >5% of traffic");
        // Hot keys are scattered: the two hottest are not adjacent ranks
        // of the spread domain.
        let mut hot: Vec<u64> = counts
            .iter()
            .filter(|(_, &c)| c >= freq[1])
            .map(|(&k, _)| k)
            .collect();
        hot.sort_unstable();
        assert!(hot.len() >= 2);
        assert!(
            hot[1] - hot[0] > u64::MAX / 10_000,
            "hot set not contiguous"
        );
    }

    #[test]
    fn prefill_runs_are_sorted_unique_newest_wins() {
        let run = prefill_run(KeyDist::Uniform { space: 500 }, 2000, 11);
        assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "sorted unique");
        assert!(run.len() <= 500);
        // Replay by hand: the kept value per key is the latest draw.
        let mut rng = Rng::new(11);
        let mut keys = KeyGen::new(KeyDist::Uniform { space: 500 });
        let mut model = std::collections::BTreeMap::new();
        for i in 0..2000u64 {
            model.insert(keys.next_key(&mut rng), i);
        }
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(run, want);
    }

    #[test]
    fn miss_keys_never_collide_with_generated_keys() {
        for dist in [
            KeyDist::Uniform { space: 1000 },
            KeyDist::Zipfian {
                space: 1000,
                theta: 0.99,
            },
            KeyDist::Ascending,
            KeyDist::TimeSeriesAppend { jitter: 16 },
        ] {
            // Everything next_key can emit: the spread dists produce
            // multiples of the spread step only; the append dists stay
            // tiny. Misses sit mid-gap / above the high bit — provably
            // disjoint, not just improbably so.
            let mut produced = std::collections::HashSet::new();
            let mut rng = Rng::new(9);
            let mut g = KeyGen::new(dist);
            for _ in 0..20_000 {
                produced.insert(g.next_key(&mut rng));
            }
            let mut rng = Rng::new(10);
            let mut g = KeyGen::new(dist);
            for _ in 0..5_000 {
                let miss = g.next_miss_key(&mut rng);
                assert!(!produced.contains(&miss), "{dist:?}: {miss} collided");
            }
        }
    }

    #[test]
    fn miss_heavy_mix_is_mostly_negative_gets() {
        let dist = KeyDist::Zipfian {
            space: 1000,
            theta: 0.99,
        };
        let mut live = std::collections::HashSet::new();
        let mut rng = Rng::new(3);
        let mut g = KeyGen::new(dist);
        for _ in 0..100_000 {
            live.insert(g.next_key(&mut rng));
        }
        let ops: Vec<Op> = OpStream::new(OpMix::MISS_HEAVY, dist, 7)
            .take(10_000)
            .collect();
        let (mut neg, mut gets) = (0, 0);
        for op in &ops {
            if let Op::Get(k) = op {
                gets += 1;
                if !live.contains(k) {
                    neg += 1;
                }
            }
        }
        assert!(
            (9_200..10_000).contains(&gets),
            "95% gets expected, got {gets}"
        );
        assert!(
            neg as f64 >= gets as f64 * 0.9,
            "negative lookups should dominate: {neg}/{gets}"
        );
    }

    #[test]
    fn dist_names_roundtrip() {
        for name in [
            "uniform",
            "zipfian",
            "ascending",
            "timeseries",
            "shifting_hotspot",
        ] {
            assert_eq!(KeyDist::by_name(name, 10).unwrap().name(), name);
        }
        assert!(KeyDist::by_name("nope", 10).is_none());
    }

    #[test]
    fn new_workload_streams_replay_exactly() {
        // The determinism contract extends to the heavy-traffic tier:
        // same (mix, dist, seed) → byte-identical op stream.
        let cases = [
            (
                OpMix::READ_HEAVY,
                KeyDist::ShiftingHotspot {
                    space: 1000,
                    theta: 0.99,
                    period: 500,
                },
            ),
            (
                OpMix::TIMESERIES_RETENTION,
                KeyDist::TimeSeriesAppend { jitter: 16 },
            ),
        ];
        for (mix, dist) in cases {
            let a: Vec<Op> = OpStream::new(mix, dist, 42).take(5000).collect();
            let b: Vec<Op> = OpStream::new(mix, dist, 42).take(5000).collect();
            assert_eq!(a, b, "{dist:?} must replay");
            let c: Vec<Op> = OpStream::new(mix, dist, 43).take(5000).collect();
            assert_ne!(a, c, "{dist:?} must vary with the seed");
        }
    }

    #[test]
    fn zero_trim_weight_keeps_legacy_streams_identical() {
        // A mix that never rolls a trim must replay the exact stream the
        // pre-trim OpMix produced — `retention` must be inert at weight 0
        // and the roll/draw sequence unchanged.
        let dist = KeyDist::TimeSeriesAppend { jitter: 16 };
        let with_window = OpMix {
            retention: 12345,
            ..OpMix::BALANCED
        };
        let a: Vec<Op> = OpStream::new(OpMix::BALANCED, dist, 42)
            .take(5000)
            .collect();
        let b: Vec<Op> = OpStream::new(with_window, dist, 42).take(5000).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|op| !matches!(op, Op::Trim(_))));
    }

    #[test]
    fn shifting_hotspot_migrates_its_hot_set() {
        let dist = KeyDist::ShiftingHotspot {
            space: 10_000,
            theta: 0.99,
            period: 20_000,
        };
        let mut rng = Rng::new(5);
        let mut g = KeyGen::new(dist);
        let hot = |g: &mut KeyGen, rng: &mut Rng| -> Vec<u64> {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..20_000 {
                *counts.entry(g.next_key(rng)).or_insert(0u64) += 1;
            }
            let mut by_freq: Vec<(u64, u64)> = counts.into_iter().collect();
            by_freq.sort_unstable_by_key(|&(_, c)| std::cmp::Reverse(c));
            by_freq.truncate(10);
            by_freq.into_iter().map(|(k, _)| k).collect()
        };
        // One full period per sample: the first epoch's top-10 and the
        // second epoch's top-10 must be (almost entirely) different keys,
        // while each epoch alone is as skewed as a stationary zipfian.
        let first = hot(&mut g, &mut rng);
        let second = hot(&mut g, &mut rng);
        let overlap = first.iter().filter(|k| second.contains(k)).count();
        assert!(
            overlap <= 2,
            "hot sets should migrate between periods, {overlap}/10 overlapped"
        );
    }

    #[test]
    fn timeseries_retention_trims_behind_the_watermark() {
        let dist = KeyDist::TimeSeriesAppend { jitter: 16 };
        let ops: Vec<Op> = OpStream::new(OpMix::TIMESERIES_RETENTION, dist, 7)
            .take(50_000)
            .collect();
        let trims: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Trim(c) => Some(*c),
                _ => None,
            })
            .collect();
        assert!(
            (500..2000).contains(&trims.len()),
            "2% trim weight produced {} trims",
            trims.len()
        );
        // Cutoffs are monotone (the watermark only advances) and, once
        // the stream outgrows the window, sit exactly `retention` behind
        // the number of keys drawn so far.
        assert!(trims.windows(2).all(|w| w[0] <= w[1]));
        assert!(*trims.last().unwrap() > 0, "late trims expire data");
        let mut drawn = 0u64;
        for op in &ops {
            match op {
                Op::Trim(c) => {
                    assert_eq!(*c, drawn.saturating_sub(4096));
                }
                _ => drawn += 1,
            }
        }
        // Replaying the ops against a model keeps the live set bounded
        // by window + in-flight jitter, despite unbounded appends.
        let mut model = std::collections::BTreeMap::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    model.insert(*k, *v);
                }
                Op::Trim(c) => {
                    model = model.split_off(c);
                }
                _ => {}
            }
        }
        assert!(
            model.len() as u64 <= 4096 + 17,
            "live set must stay near the retention window, got {}",
            model.len()
        );
    }
}

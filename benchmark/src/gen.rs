//! Inputs: the benchmark's own random numbers, zipf sampler and op
//! streams. Everything here is a pure function of `--seed`; the program
//! under test receives only the generated keys, values and calls.

/// splitmix64's finalizer: a bijection on `u64`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th key of a seed's key universe. A bijection in `i`, so
/// distinct indices give distinct keys, spread uniformly over `u64`
/// (which makes every absent universe key an *in-range* miss).
#[inline]
pub fn key_of(seed: u64, i: u64) -> u64 {
    mix64(i.wrapping_add(mix64(seed)))
}

/// splitmix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`stream`) of one seed, so the keys, the
    /// op mix and the client draws do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix64(
            seed ^ mix64(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is
    /// below 2^-40).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `0..n` with exponent `theta` (Gray et al.'s
/// rejection-free sampler, as in YCSB): rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zetan: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
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

/// Maps a popularity rank to a universe index so the hot ranks are
/// scattered over the universe. `n` is a power of two and the multiplier
/// is odd, so this is a permutation of `0..n`.
#[inline]
pub fn scatter(rank: u64, n: u64) -> u64 {
    debug_assert!(n.is_power_of_two());
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x5851_F42D)
        & (n - 1)
}

/// One call of a single-client stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert {
        key: u64,
        val: u64,
    },
    Delete {
        key: u64,
    },
    Get {
        key: u64,
    },
    /// A cursor opened at `lo` that reads up to `len` entries.
    Scan {
        lo: u64,
        len: u32,
    },
    /// `Db::sync()`: the stated flush points of a workload.
    Sync,
}

/// The stream as bytes, for the determinism guard and the fingerprint
/// recorded with every result.
pub fn stream_bytes(ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ops.len() * 17);
    for op in ops {
        let (tag, a, b) = match *op {
            Op::Insert { key, val } => (0u8, key, val),
            Op::Delete { key } => (1, key, 0),
            Op::Get { key } => (2, key, 0),
            Op::Scan { lo, len } => (3, lo, len as u64),
            Op::Sync => (4, 0, 0),
        };
        out.push(tag);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
    out
}

/// FNV-1a over bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `pairs` cut into `chunks` equal parts, each sorted by key: the shape
/// `Db::insert_batch` takes.
fn sorted_chunks(pairs: Vec<(u64, u64)>, chunks: usize) -> Vec<Vec<(u64, u64)>> {
    let per = pairs.len().div_ceil(chunks.max(1)).max(1);
    pairs
        .chunks(per)
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            c
        })
        .collect()
}

/// `ingest_ooc`: 95 % inserts of fresh keys, 5 % deletes of an earlier
/// key, `Sync` after every `sync_every` calls and at the end.
pub fn ingest_ops(seed: u64, n_ops: usize, sync_every: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 1);
    let mut ops = Vec::with_capacity(n_ops + n_ops / sync_every.max(1) + 1);
    let mut inserted = 0u64;
    for i in 0..n_ops {
        if inserted > 0 && rng.below(100) < 5 {
            let key = key_of(seed, rng.below(inserted));
            ops.push(Op::Delete { key });
        } else {
            ops.push(Op::Insert {
                key: key_of(seed, inserted),
                val: i as u64,
            });
            inserted += 1;
        }
        if (i + 1) % sync_every.max(1) == 0 && i + 1 != n_ops {
            ops.push(Op::Sync);
        }
    }
    ops.push(Op::Sync);
    ops
}

/// A loaded store plus a stream over it.
#[derive(Debug, Clone)]
pub struct LoadedInputs {
    /// Sorted chunks for `Db::insert_batch`; universe indices `0..n_keys`.
    pub load: Vec<Vec<(u64, u64)>>,
    pub ops: Vec<Op>,
}

/// `read_ooc`: `n_keys` present keys; 75 % hit gets (uniform over
/// present keys), 20 % in-range miss gets, 5 % scans of `scan_len`.
pub fn read_inputs(
    seed: u64,
    n_keys: usize,
    chunks: usize,
    n_ops: usize,
    scan_len: u32,
) -> LoadedInputs {
    let pairs: Vec<(u64, u64)> = (0..n_keys as u64).map(|i| (key_of(seed, i), i)).collect();
    let mut rng = Rng::new(seed, 2);
    let n = n_keys as u64;
    let ops = (0..n_ops)
        .map(|_| match rng.below(100) {
            0..=74 => Op::Get {
                key: key_of(seed, rng.below(n)),
            },
            // Universe indices past the loaded ones are never present.
            75..=94 => Op::Get {
                key: key_of(seed, n + rng.below(n)),
            },
            _ => Op::Scan {
                lo: key_of(seed, rng.below(n)),
                len: scan_len,
            },
        })
        .collect();
    LoadedInputs {
        load: sorted_chunks(pairs, chunks),
        ops,
    }
}

/// `mixed_mem`: `prefill` present keys out of a universe twice that
/// size (a power of two); zipfian picks over the whole universe, so
/// reads hit and miss and writes overwrite and add; 50 % get, 40 %
/// insert, 5 % delete, 5 % scan of `scan_len`.
pub fn mixed_inputs(
    seed: u64,
    prefill: usize,
    chunks: usize,
    n_ops: usize,
    theta: f64,
    scan_len: u32,
) -> LoadedInputs {
    let universe = (2 * prefill as u64).next_power_of_two();
    let pairs: Vec<(u64, u64)> = (0..prefill as u64).map(|i| (key_of(seed, i), i)).collect();
    let zipf = Zipf::new(universe, theta);
    let mut rng = Rng::new(seed, 3);
    let ops = (0..n_ops)
        .map(|i| {
            let key = key_of(seed, scatter(zipf.sample(&mut rng), universe));
            match rng.below(100) {
                0..=49 => Op::Get { key },
                50..=89 => Op::Insert {
                    key,
                    val: (prefill + i) as u64,
                },
                90..=94 => Op::Delete { key },
                _ => Op::Scan {
                    lo: key,
                    len: scan_len,
                },
            }
        })
        .collect();
    LoadedInputs {
        load: sorted_chunks(pairs, chunks),
        ops,
    }
}

/// Value written by batch `seq` (0 = prefill) for `key`: the client can
/// check from the value alone that it belongs to the key it asked for
/// and which batch wrote it.
#[inline]
pub fn tagged_val(key: u64, seq: u32) -> u64 {
    ((key ^ (key >> 32)) << 32) | seq as u64
}

/// `contended_rw`: a prefilled universe (a power of two), the writer's
/// batches of universe indices (batch `b` writes `tagged_val(key, b+1)`),
/// and the client's zipfian draw.
#[derive(Debug, Clone)]
pub struct ContendedInputs {
    pub seed: u64,
    pub universe: u64,
    pub load: Vec<Vec<(u64, u64)>>,
    /// `batches[b]` = the universe indices batch `b` overwrites.
    pub batches: Vec<Vec<u32>>,
    pub zipf: Zipf,
}

pub fn contended_inputs(
    seed: u64,
    prefill: usize,
    chunks: usize,
    n_batches: usize,
    batch_len: usize,
    theta: f64,
) -> ContendedInputs {
    assert!(prefill.is_power_of_two());
    let universe = prefill as u64;
    let pairs: Vec<(u64, u64)> = (0..universe)
        .map(|i| {
            let k = key_of(seed, i);
            (k, tagged_val(k, 0))
        })
        .collect();
    let mut rng = Rng::new(seed, 4);
    let batches = (0..n_batches)
        .map(|_| (0..batch_len).map(|_| rng.below(universe) as u32).collect())
        .collect();
    ContendedInputs {
        seed,
        universe,
        load: sorted_chunks(pairs, chunks),
        batches,
        zipf: Zipf::new(universe, theta),
    }
}

/// Answers of one pass, in stream order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Answers {
    /// One per `Get`; [`NONE`] for an absent key.
    pub gets: Vec<u64>,
    /// One per `Scan`: entries returned and an order-sensitive digest.
    pub scans: Vec<(u32, u64)>,
}

/// The value recorded for a `get` that found nothing (no stream writes
/// this value).
pub const NONE: u64 = u64::MAX;

impl Answers {
    pub fn clear(&mut self) {
        self.gets.clear();
        self.scans.clear();
    }
}

/// Folds one scanned entry into a scan digest.
#[inline]
pub fn digest_step(h: u64, key: u64, val: u64) -> u64 {
    let h = (h ^ key).wrapping_mul(0x0000_0100_0000_01B3);
    (h ^ val).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The benchmark's own model: replays `load` then `ops` into a
/// `BTreeMap` and returns what every get and scan must answer plus the
/// final contents.
pub fn model_replay(load: &[Vec<(u64, u64)>], ops: &[Op]) -> (Answers, Vec<(u64, u64)>) {
    let mut map: std::collections::BTreeMap<u64, u64> = load.iter().flatten().copied().collect();
    let mut want = Answers::default();
    for op in ops {
        match *op {
            Op::Insert { key, val } => {
                map.insert(key, val);
            }
            Op::Delete { key } => {
                map.remove(&key);
            }
            Op::Get { key } => want.gets.push(map.get(&key).copied().unwrap_or(NONE)),
            Op::Scan { lo, len } => {
                let (mut n, mut h) = (0u32, 0u64);
                for (&k, &v) in map.range(lo..).take(len as usize) {
                    n += 1;
                    h = digest_step(h, k, v);
                }
                want.scans.push((n, h));
            }
            Op::Sync => {}
        }
    }
    (want, map.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = stream_bytes(&ingest_ops(7, 2000, 256));
        assert_eq!(a, stream_bytes(&ingest_ops(7, 2000, 256)));
        assert_ne!(a, stream_bytes(&ingest_ops(8, 2000, 256)));
        let r = |s| stream_bytes(&read_inputs(s, 500, 4, 1000, 16).ops);
        assert_eq!(r(1), r(1));
        assert_ne!(r(1), r(2));
        let m = |s| stream_bytes(&mixed_inputs(s, 512, 4, 1000, 0.99, 8).ops);
        assert_eq!(m(1), m(1));
        assert_ne!(m(1), m(2));
        let c = |s| contended_inputs(s, 256, 4, 10, 16, 0.99).batches;
        assert_eq!(c(1), c(1));
        assert_ne!(c(1), c(2));
    }

    #[test]
    fn ingest_mix_and_flush_points() {
        let ops = ingest_ops(3, 40_000, 5_000);
        let syncs = ops.iter().filter(|o| matches!(o, Op::Sync)).count();
        assert_eq!(syncs, 8);
        assert_eq!(ops.last(), Some(&Op::Sync));
        let deletes = ops
            .iter()
            .filter(|o| matches!(o, Op::Delete { .. }))
            .count();
        assert!(
            (1_600..2_400).contains(&deletes),
            "{deletes} deletes of 40000"
        );
    }

    #[test]
    fn load_chunks_are_sorted_and_complete() {
        let inp = read_inputs(5, 1000, 8, 10, 4);
        assert_eq!(inp.load.len(), 8);
        assert!(inp
            .load
            .iter()
            .all(|c| c.windows(2).all(|w| w[0].0 < w[1].0)));
        assert_eq!(inp.load.iter().map(Vec::len).sum::<usize>(), 1000);
    }

    #[test]
    fn zipf_rank_frequency() {
        let n = 1 << 12;
        let z = Zipf::new(n, 0.99);
        let mut rng = Rng::new(11, 0);
        let mut freq = vec![0u32; n as usize];
        let draws = 400_000;
        for _ in 0..draws {
            freq[z.sample(&mut rng) as usize] += 1;
        }
        // f(r) ∝ 1/(r+1)^θ: rank 0 about 2^0.99 times rank 1, and the
        // head carries far more than a uniform share.
        let ratio = freq[0] as f64 / freq[1] as f64;
        assert!((1.8..2.2).contains(&ratio), "f0/f1 = {ratio}");
        assert!(freq[0] > freq[9] && freq[9] > freq[99] && freq[99] > freq[999]);
        let head: u32 = freq[..(n as usize / 100)].iter().sum();
        assert!(head as f64 > 0.4 * draws as f64, "top 1 % drew {head}");
        assert!(freq.iter().filter(|&&f| f > 0).count() > n as usize / 2);
    }

    #[test]
    fn scatter_is_a_permutation() {
        let n = 1 << 10;
        let mut seen = vec![false; n as usize];
        for r in 0..n {
            let i = scatter(r, n) as usize;
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn model_answers_gets_scans_and_final_contents() {
        let load = vec![vec![(10, 1), (20, 2), (30, 3)]];
        let ops = [
            Op::Get { key: 20 },
            Op::Delete { key: 20 },
            Op::Get { key: 20 },
            Op::Insert { key: 25, val: 9 },
            Op::Scan { lo: 11, len: 2 },
            Op::Sync,
        ];
        let (want, fin) = model_replay(&load, &ops);
        assert_eq!(want.gets, vec![2, NONE]);
        assert_eq!(
            want.scans,
            vec![(2, digest_step(digest_step(0, 25, 9), 30, 3))]
        );
        assert_eq!(fin, vec![(10, 1), (25, 9), (30, 3)]);
    }
}

//! Per-level read accelerators for the COLA family: fence keys, a
//! split-block Bloom filter, and every-8th-slot lookahead (ghost)
//! samples — the fractional-cascading machinery that turns a point query
//! from one independent binary search per level into an `O(1)`-transfer
//! probe per level.
//!
//! Every structure in the family keeps one [`LevelAux`] per sorted run
//! (a level of a [`crate::GCola`], or one extent of a level under the
//! deamortized COLA's policy). The aux is rebuilt exactly when its run is
//! rebuilt — during the merge that writes the run's cells — via an
//! [`AuxBuilder`] handed each chunk the merge stages, so deamortized
//! merges can carry a partially built aux across budgeted steps at
//! `O(1)` extra work per moved cell. A carry that can drop no key keeps
//! the filter of the run it rewrites and inserts only the keys the newer
//! sources bring (`AuxBuilder::keeping`). A query consults the aux in
//! DRAM only, and each
//! of the three steps touches one cache line or a short contiguous
//! search:
//!
//! 1. **fences** — `key` outside `[fence_min, fence_max]` skips the run;
//! 2. **filter** — a negative membership answer skips the run (zero
//!    false negatives by construction, so skipping is always sound). One
//!    `splitmix64` of the key picks a 32-byte block and one bit in each
//!    of its eight words, so a probe reads one aligned block and
//!    branches once. The hash is taken once per lookup, as a [`Probe`]
//!    every level's filter tests;
//! 3. **ghosts** — one binary search over the keys of every 8th slot
//!    (the slot is the sample's position times [`GHOST_STRIDE`], so only
//!    the key is kept) brackets the run's candidate region to one
//!    stride, so the run itself is probed in `O(1)` block transfers
//!    instead of `O(log(run) / B)`.
//!
//! None of this changes the cell layout, so cursors and the on-disk
//! format are unaffected; the epoch-snapshot runs on the heap carry the
//! same [`LevelFilter`] and take the same [`Probe`]. See DESIGN.md
//! ("Fractional cascading & filters") for the sizing rationale.
//!
//! A rewritten run's aux may be built into the buffers of the aux it
//! replaces: the filter and ghost vectors keep their capacity and are
//! overwritten in place, and one that must grow is freed before it is
//! allocated anew, so the two are never held at once. What a level can
//! so retain is bounded by its own size, under 3.5 bytes per slot (a
//! filter of at most 20 bits and one 8-byte ghost key per 8 slots); the
//! g-COLA's level rewrite states which buffers it keeps.

use crate::entry::Cell;

/// Ghost-pointer density: the key of one slot in this many is sampled.
///
/// The paper's Section 4 uses lookahead-pointer spacing of a small
/// constant; 8 keeps a bracketing window within one or two 512-byte
/// blocks of 32-byte cells while costing only one byte of DRAM per
/// stored cell.
pub const GHOST_STRIDE: usize = 8;

/// Filter sizing: bits per stored key before rounding the bit-array up
/// to a power of two (at least one block). Ten bits with one bit set in
/// each word of a key's block keeps the false-positive rate under
/// [`FILTER_TARGET_FP`] even where the rounding leaves ~10.7 bits a key.
pub const FILTER_BITS_PER_KEY: usize = 10;

/// The false-positive rate the sizing above targets: the measured rate
/// is property-tested to stay at or under it at the worst rounding, and
/// within 2× of it at every size.
pub const FILTER_TARGET_FP: f64 = 0.01;

/// Words in one filter block; a key sets one bit in each.
const BLOCK_WORDS: usize = 8;

/// Bits in one filter block, the smallest filter.
const BLOCK_BITS: usize = BLOCK_WORDS * 32;

/// Odd multipliers, one per word: word `i` of a key's block gets bit
/// `(lo · SALT[i]) >> 27` of the low hash half `lo`.
const SALT: [u32; BLOCK_WORDS] = [
    0x47b6_137b,
    0x4497_4d91,
    0x8824_ad5b,
    0xa2b7_289d,
    0x7054_95c7,
    0x2df1_424b,
    0x9efc_4947,
    0x5c6b_fb31,
];

/// `BIT[i] = 1 << i`: a word's bit looked up rather than shifted by a
/// variable count, which the baseline x86-64 target does in three
/// micro-ops through `cl`.
const BIT: [u32; 32] = {
    let mut bit = [0; 32];
    let mut i = 0;
    while i < 32 {
        bit[i] = 1 << i;
        i += 1;
    }
    bit
};

/// SplitMix64 finalizer — the zero-dependency mixer used throughout the
/// workspace; here the filter's one hash per key.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One filter block: eight words, aligned so it never straddles a
/// cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(32))]
struct Block([u32; BLOCK_WORDS]);

/// A key hashed for the filters, once per lookup: the key, the high half
/// of its `splitmix64` (which a filter of any size masks to pick the
/// key's block) and the bit the low half gives it in each of a block's
/// words. A lookup that probes many filters builds one and tests it
/// against each.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    key: u64,
    block: usize,
    bits: [u32; BLOCK_WORDS],
}

impl Probe {
    /// Hashes `key`.
    #[inline]
    pub fn new(key: u64) -> Probe {
        let h = splitmix64(key);
        let lo = h as u32;
        Probe {
            key,
            block: (h >> 32) as usize,
            bits: SALT.map(|salt| BIT[(lo.wrapping_mul(salt) >> 27) as usize]),
        }
    }

    /// The key hashed.
    #[inline]
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// A split-block Bloom filter (Putze, Sanders & Singler's blocked
/// filter, one bit per word) over a power-of-two number of 32-byte
/// blocks.
///
/// Membership is approximate one-sidedly: [`LevelFilter::contains`]
/// never returns `false` for an inserted key (no false negatives), and
/// returns `true` for absent keys at under [`FILTER_TARGET_FP`]. One
/// `splitmix64` per key (a [`Probe`]): its high half picks the block,
/// its low half times each word's salt picks that word's bit, so an
/// insert or a probe touches one block and nothing else.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelFilter {
    /// Empty until sized: a filter nothing was inserted into.
    blocks: Vec<Block>,
}

impl LevelFilter {
    /// An empty filter sized for `keys` insertions at
    /// [`FILTER_BITS_PER_KEY`], rounded up to a power-of-two bit count
    /// (minimum one 256-bit block).
    pub fn with_capacity(keys: usize) -> LevelFilter {
        let mut filter = LevelFilter::default();
        filter.reset(keys);
        filter
    }

    /// Zeroes the filter and re-sizes it as [`LevelFilter::with_capacity`]
    /// would, keeping the block array's allocation.
    fn reset(&mut self, keys: usize) {
        let wanted = keys.saturating_mul(FILTER_BITS_PER_KEY).max(BLOCK_BITS);
        let blocks = wanted.next_power_of_two() / BLOCK_BITS;
        clear_for(&mut self.blocks, blocks);
        self.blocks.resize(blocks, Block::default());
    }

    /// The probed key's block index; past the end of an unsized filter.
    #[inline]
    fn block_of(&self, probe: &Probe) -> usize {
        probe.block & self.blocks.len().wrapping_sub(1)
    }

    /// Sets the key's bit in each word of its block.
    pub fn insert(&mut self, key: u64) {
        self.insert_masked(key, u32::MAX);
    }

    /// Sets the key's bits, each masked by `mask`: all of them or, at 0,
    /// none, with no branch. The filter must be sized.
    #[inline]
    fn insert_masked(&mut self, key: u64, mask: u32) {
        let probe = Probe::new(key);
        let block = self.block_of(&probe);
        for (word, bit) in self.blocks[block].0.iter_mut().zip(probe.bits) {
            *word |= bit & mask;
        }
    }

    /// Inserts the key of every real cell of `cells`, in one loop with
    /// no branch per cell: a redundant cell's bits are masked to 0. The
    /// filter must be sized.
    fn insert_reals(&mut self, cells: &[Cell]) {
        for c in cells {
            self.insert_masked(c.key, (c.is_real() as u32).wrapping_neg());
        }
    }

    /// Whether the probed key may have been inserted. `false` is
    /// definitive. All eight words are tested before the one branch on
    /// the result.
    #[inline]
    pub fn contains(&self, probe: &Probe) -> bool {
        let Some(Block(words)) = self.blocks.get(self.block_of(probe)) else {
            return false;
        };
        let mut missing = 0;
        for (word, bit) in words.iter().zip(probe.bits) {
            missing |= bit & !word;
        }
        missing == 0
    }

    /// The bit-array size (diagnostics and sizing tests).
    pub fn bit_len(&self) -> usize {
        self.blocks.len() * BLOCK_BITS
    }
}

/// Read accelerators for one sorted run, consulted entirely in DRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelAux {
    /// Smallest non-redundant key in the run (`u64::MAX` if none).
    pub fence_min: u64,
    /// Largest non-redundant key in the run (`0` if none).
    pub fence_max: u64,
    /// Membership filter over the run's non-redundant keys.
    pub filter: LevelFilter,
    /// The key of every [`GHOST_STRIDE`]-th slot: sample `i` is slot
    /// `i · GHOST_STRIDE` — the lookahead sample that brackets a query's
    /// candidate window.
    pub ghosts: Vec<u64>,
    /// Number of slots the aux was built over.
    pub len: usize,
}

impl LevelAux {
    /// Whether the run can possibly answer a lookup for the probed key:
    /// fences first, then the filter. A `false` here is definitive, so
    /// the caller may skip the run without touching any of its blocks.
    #[inline]
    pub fn may_contain(&self, probe: &Probe) -> bool {
        let key = probe.key();
        key >= self.fence_min && key <= self.fence_max && self.filter.contains(probe)
    }

    /// The `[lo, hi)` slot window (relative to the run base) that must
    /// contain every cell with the given key: from the last sampled slot
    /// whose key is strictly below it to the first sampled slot whose
    /// key is strictly above. One binary search finds the first sample
    /// not below `key`; the samples equal to it are walked. Costs zero
    /// block transfers.
    #[inline]
    pub fn window(&self, key: u64) -> (usize, usize) {
        let first = self.ghosts.partition_point(|&k| k < key);
        let equal = self.ghosts[first..].iter().take_while(|&&k| k == key);
        let past = first + equal.count();
        let lo = first.saturating_sub(1) * GHOST_STRIDE;
        let hi = if past == self.ghosts.len() {
            self.len
        } else {
            past * GHOST_STRIDE
        };
        (lo, hi)
    }

    /// Slots the aux's buffers can describe without growing, whatever
    /// run it was last built over: what it retains.
    pub(crate) fn capacity(&self) -> usize {
        self.ghosts.capacity() * GHOST_STRIDE
    }

    /// Validates internal consistency (fence ordering, sample ordering
    /// and count); used by `from_parts` and invariant checks.
    pub fn check(&self) -> Result<(), String> {
        if self.fence_min != u64::MAX && self.fence_min > self.fence_max {
            return Err(format!(
                "fence_min {} > fence_max {}",
                self.fence_min, self.fence_max
            ));
        }
        if !self.ghosts.windows(2).all(|w| w[0] <= w[1]) {
            return Err("ghost sample not sorted".into());
        }
        let samples = self.len.div_ceil(GHOST_STRIDE);
        if self.ghosts.len() > samples {
            return Err(format!(
                "{} ghost samples past the {samples} of a {}-slot run",
                self.ghosts.len(),
                self.len
            ));
        }
        Ok(())
    }
}

/// Incremental [`LevelAux`] constructor: fed the run a chunk at a time,
/// in slot order, as a merge writes it. Each [`AuxBuilder::extend`]
/// costs one filter insert per real cell and one ghost key per
/// [`GHOST_STRIDE`] cells, nothing else per cell, so deamortized merges
/// can interleave aux construction with their budgeted move steps and
/// carry the half-built state across inserts (`AuxBuilder::resume`).
#[derive(Debug, Clone)]
pub struct AuxBuilder {
    /// Sized at the first real cell, for `keys` keys: a lookahead-only
    /// run never consults its filter (the fences reject every key first).
    filter: LevelFilter,
    keys: usize,
    /// The filter is the replaced run's, kept whole: the run's keys are
    /// its keys and the ones [`AuxBuilder::add_keys`] inserts, so
    /// `extend` leaves it alone.
    kept: bool,
    fence_min: u64,
    fence_max: u64,
    any_real: bool,
    ghosts: Vec<u64>,
    pos: usize,
}

impl AuxBuilder {
    /// A builder for a run of up to `slots` cells, its filter sized for
    /// as many keys.
    pub fn new(slots: usize) -> AuxBuilder {
        AuxBuilder::recycling(slots, slots, None)
    }

    /// A builder for a run of up to `slots` cells whose filter is sized
    /// for `keys` keys, over the filter and ghost allocations of
    /// `retired`, an aux no run uses any more: both are cleared and
    /// refilled in place, growing only past their capacity. A structure
    /// that streams a run out before it knows its length sizes the filter
    /// by a bound its geometry fixes, and then so must every rebuild of
    /// that run's aux, for the two to agree.
    pub(crate) fn recycling(slots: usize, keys: usize, retired: Option<LevelAux>) -> AuxBuilder {
        let (mut filter, mut ghosts) = retired.map(|a| (a.filter, a.ghosts)).unwrap_or_default();
        filter.blocks.clear();
        clear_for(&mut ghosts, slots.div_ceil(GHOST_STRIDE));
        AuxBuilder {
            filter,
            keys,
            kept: false,
            fence_min: u64::MAX,
            fence_max: 0,
            any_real: false,
            ghosts,
            pos: 0,
        }
    }

    /// A builder for a run of up to `slots` cells that holds every key of
    /// `retired`'s run, whose filter — sized, as a build would size it —
    /// it keeps as it is: fences and ghosts are built anew, and the
    /// caller hands [`AuxBuilder::add_keys`] the keys the old run lacks.
    /// A Bloom filter over a union of key sets is the OR of their
    /// filters, so the result is bit for bit the filter a fresh build
    /// gives.
    pub(crate) fn keeping(slots: usize, keys: usize, retired: LevelAux) -> AuxBuilder {
        debug_assert!(!retired.filter.blocks.is_empty(), "an unsized filter");
        let mut ghosts = retired.ghosts;
        clear_for(&mut ghosts, slots.div_ceil(GHOST_STRIDE));
        AuxBuilder {
            filter: retired.filter,
            keys,
            kept: true,
            fence_min: u64::MAX,
            fence_max: 0,
            any_real: false,
            ghosts,
            pos: 0,
        }
    }

    /// A builder that goes on from `aux`, what [`AuxBuilder::finish`] gave
    /// for a run's first cells, its filter sized for `keys` keys as then.
    pub(crate) fn resume(aux: LevelAux, keys: usize) -> AuxBuilder {
        AuxBuilder {
            // The filter is sized at the first real cell.
            any_real: !aux.filter.blocks.is_empty(),
            filter: aux.filter,
            keys,
            kept: false,
            fence_min: aux.fence_min,
            fence_max: aux.fence_max,
            ghosts: aux.ghosts,
            pos: aux.len,
        }
    }

    /// Inserts `keys`, keys of the run the replaced run may lack, into
    /// a kept filter ([`AuxBuilder::keeping`]). A fresh build ignores
    /// them: [`AuxBuilder::extend`] inserts every real key it is handed.
    pub(crate) fn add_keys(&mut self, keys: &[u64]) {
        if self.kept {
            keys.iter().for_each(|&key| self.filter.insert(key));
        }
    }

    /// Records the run's next cells (call in slot order). Redundant
    /// (lookahead) cells participate in the ghost sample — their keys
    /// are in sorted position — but not in fences or the filter, which
    /// answer "does any item or tombstone for this key live here?". The
    /// ghosts are taken by stride, the fences off the chunk's first and
    /// last real cell, and the filter is filled in one loop.
    pub fn extend(&mut self, cells: &[Cell]) {
        let skip = (GHOST_STRIDE - self.pos % GHOST_STRIDE) % GHOST_STRIDE;
        let sampled = cells.iter().skip(skip).step_by(GHOST_STRIDE);
        self.ghosts.extend(sampled.map(|c| c.key));
        self.pos += cells.len();
        let (Some(first), Some(last)) = (
            cells.iter().position(Cell::is_real),
            cells.iter().rposition(Cell::is_real),
        ) else {
            return;
        };
        if !self.any_real {
            if !self.kept {
                self.filter.reset(self.keys);
            }
            self.fence_min = cells[first].key;
            self.any_real = true;
        }
        self.fence_max = cells[last].key;
        if !self.kept {
            self.filter.insert_reals(&cells[first..=last]);
        }
    }

    /// Number of cells recorded so far.
    pub fn pushed(&self) -> usize {
        self.pos
    }

    /// Finishes the run's aux.
    pub fn finish(self) -> LevelAux {
        LevelAux {
            fence_min: self.fence_min,
            fence_max: self.fence_max,
            filter: self.filter,
            ghosts: self.ghosts,
            len: self.pos,
        }
    }
}

/// Empties `v` and makes room for `n` elements in place if they fit. If
/// they do not, the old allocation is freed before the new one is made:
/// a grown copy would hold both at once, at the peak of the carry that
/// grows a level.
fn clear_for<T>(v: &mut Vec<T>, n: usize) {
    if v.capacity() < n {
        *v = Vec::new();
    }
    v.clear();
    v.reserve_exact(n);
}

/// Builds a run's aux over its cells.
pub fn build_aux(cells: &[Cell]) -> LevelAux {
    let mut b = AuxBuilder::new(cells.len());
    b.extend(cells);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosbt_testkit::{check_cases, Rng};

    /// The filter's answer for one key.
    fn has(f: &LevelFilter, key: u64) -> bool {
        f.contains(&Probe::new(key))
    }

    /// The aux's answer for one key.
    fn may(aux: &LevelAux, key: u64) -> bool {
        aux.may_contain(&Probe::new(key))
    }

    #[test]
    fn filter_has_zero_false_negatives() {
        // Property: across seeds and sizes, every inserted key answers
        // `true` — the soundness the level-skip optimization rests on.
        for seed in 0..10u64 {
            let mut rng = Rng::new(0xF17E + seed);
            let n = 1 + rng.below(4000) as usize;
            let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let mut f = LevelFilter::with_capacity(n);
            for &k in &keys {
                f.insert(k);
            }
            for &k in &keys {
                assert!(has(&f, k), "false negative for {k} (seed {seed})");
            }
        }
    }

    #[test]
    fn filter_has_no_false_negatives_at_the_edges() {
        // The extreme keys, and dense sequential ones whose hashes share
        // most input bits, at the smallest size and at rounded sizes.
        for n in [1usize, 25, 6_144, 98_304] {
            let keys: Vec<u64> = [0, u64::MAX, u64::MAX - 1, 1]
                .into_iter()
                .chain(2..n as u64)
                .take(n.max(2))
                .collect();
            let mut f = LevelFilter::with_capacity(keys.len());
            for &k in &keys {
                f.insert(k);
            }
            for &k in &keys {
                assert!(has(&f, k), "false negative for {k} (n {n})");
            }
        }
    }

    #[test]
    fn filter_fp_rate_within_twice_target() {
        // Measured false-positive rate across seeds stays within 2× of
        // the configured target (power-of-two rounding usually puts it
        // well below).
        for seed in 0..5u64 {
            let mut rng = Rng::new(0x0F9A7E + seed);
            let n = 2000 + rng.below(3000) as usize;
            let mut f = LevelFilter::with_capacity(n);
            let mut present = std::collections::HashSet::new();
            for _ in 0..n {
                let k = rng.next_u64();
                present.insert(k);
                f.insert(k);
            }
            let probes = 200_000u64;
            let mut fp = 0u64;
            for _ in 0..probes {
                let k = rng.next_u64();
                if !present.contains(&k) && has(&f, k) {
                    fp += 1;
                }
            }
            let rate = fp as f64 / probes as f64;
            assert!(
                rate <= 2.0 * FILTER_TARGET_FP,
                "seed {seed}: measured FP rate {rate} exceeds 2×{FILTER_TARGET_FP}"
            );
        }
    }

    #[test]
    fn filter_fp_rate_at_worst_rounding_within_target() {
        // n = 3·2^k rounds 10·n bits up by only 16/15: ~10.7 bits a key,
        // the fewest the sizing ever leaves. The target holds there.
        for n in [6_144usize, 98_304, 393_216] {
            let mut rng = Rng::new(0x5B1F + n as u64);
            let mut f = LevelFilter::with_capacity(n);
            assert!(f.bit_len() * 15 == n * FILTER_BITS_PER_KEY * 16);
            // Odd keys in, even keys probed: every probe is absent.
            for _ in 0..n {
                f.insert(rng.next_u64() | 1);
            }
            let probes = 1_000_000u64;
            let fp = (0..probes).filter(|_| has(&f, rng.next_u64() & !1)).count();
            let rate = fp as f64 / probes as f64;
            assert!(
                rate <= FILTER_TARGET_FP,
                "n {n}: measured FP rate {rate} exceeds {FILTER_TARGET_FP}"
            );
        }
    }

    #[test]
    fn filter_sizing_rounds_to_power_of_two() {
        assert_eq!(LevelFilter::with_capacity(0).bit_len(), 256);
        assert_eq!(LevelFilter::with_capacity(25).bit_len(), 256);
        assert_eq!(LevelFilter::with_capacity(26).bit_len(), 512);
        let f = LevelFilter::with_capacity(1000);
        assert!(f.bit_len() >= 1000 * FILTER_BITS_PER_KEY);
        assert!(f.bit_len().is_power_of_two());
    }

    fn sorted_cells(n: usize, seed: u64) -> Vec<Cell> {
        let mut rng = Rng::new(seed);
        let mut keys: Vec<u64> = (0..n).map(|_| rng.below(1 << 40) * 3).collect();
        keys.sort_unstable();
        keys.iter().map(|&k| Cell::item(k, k ^ 1)).collect()
    }

    #[test]
    fn window_brackets_every_key() {
        for seed in 0..8u64 {
            let cells = sorted_cells(500 + seed as usize * 97, 0xB1D + seed);
            let aux = build_aux(&cells);
            assert!(aux.check().is_ok());
            // Every present key's full equal-range falls inside its window.
            for (i, c) in cells.iter().enumerate() {
                let (lo, hi) = aux.window(c.key);
                assert!(lo <= i && i < hi, "slot {i} (key {}) outside window", c.key);
                assert!(hi - lo <= 2 * GHOST_STRIDE + cells.len().min(16));
                assert!(may(&aux, c.key));
            }
            // Absent keys: the window is still well-formed (callers may
            // probe it when the filter false-positives).
            let mut rng = Rng::new(seed);
            for _ in 0..200 {
                let k = rng.below(1 << 41);
                let (lo, hi) = aux.window(k);
                assert!(lo <= hi && hi <= cells.len());
                // No cell outside [lo, hi) can hold `k`.
                for (i, c) in cells.iter().enumerate() {
                    if c.key == k {
                        assert!(lo <= i && i < hi);
                    }
                }
            }
        }
    }

    #[test]
    fn window_spans_duplicate_runs() {
        // A long equal-key run must be bracketed whole: the leftmost
        // (newest) version precedes the sampled slot of the same key.
        let mut cells = vec![Cell::item(5, 0)];
        cells.extend((0..40).map(|i| Cell::item(7, i)));
        cells.push(Cell::item(9, 0));
        let aux = build_aux(&cells);
        let (lo, hi) = aux.window(7);
        assert!(lo <= 1, "window must start at or before the first 7");
        assert!(hi >= 41, "window must cover the last 7");
    }

    /// The window's definition before samples lost their slots: two
    /// binary searches over `(key, slot)` pairs.
    fn two_search_window(aux: &LevelAux, key: u64) -> (usize, usize) {
        let pairs: Vec<(u64, usize)> = (aux.ghosts.iter().enumerate())
            .map(|(i, &k)| (k, i * GHOST_STRIDE))
            .collect();
        let lo_idx = pairs.partition_point(|&(k, _)| k < key);
        let hi_idx = pairs.partition_point(|&(k, _)| k <= key);
        let lo = if lo_idx == 0 { 0 } else { pairs[lo_idx - 1].1 };
        let hi = if hi_idx == pairs.len() {
            aux.len
        } else {
            pairs[hi_idx].1
        };
        (lo, hi)
    }

    #[test]
    fn window_equals_the_two_search_window() {
        // Runs of long equal-key stretches — lookahead copies, versions
        // and tombstones of one key, as the COLAs store them — over
        // a narrow key space that includes 0 and u64::MAX.
        check_cases("window_equals_the_two_search_window", 200, |rng| {
            let mut keys: Vec<u64> = (0..1 + rng.index(40))
                .map(|_| match rng.below(8) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => rng.below(64) * 1_000,
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut cells = Vec::new();
            for &k in &keys {
                let stretch = if rng.chance(1, 4) {
                    1 + rng.index(3 * GHOST_STRIDE + 5)
                } else {
                    1 + rng.index(3)
                };
                let lookaheads = rng.index(stretch + 1);
                cells.extend((0..lookaheads).map(|i| Cell::lookahead(k, i as u64)));
                cells.extend((lookaheads..stretch).map(|v| match rng.chance(1, 3) {
                    true => Cell::tombstone(k),
                    false => Cell::item(k, v as u64),
                }));
            }
            let aux = build_aux(&cells);
            assert_eq!(aux.check(), Ok(()));
            assert_eq!(aux.ghosts.len(), cells.len().div_ceil(GHOST_STRIDE));
            let probes = keys
                .iter()
                .flat_map(|&k| [k, k.wrapping_sub(1), k.wrapping_add(1)]);
            for key in probes.chain([0, 1, u64::MAX - 1, u64::MAX, rng.next_u64()]) {
                assert_eq!(aux.window(key), two_search_window(&aux, key), "key {key}");
            }
            let mut extra = aux.clone();
            extra.ghosts.push(u64::MAX);
            assert!(extra.check().is_err(), "one sample more than the run has");
        });
    }

    #[test]
    fn redundant_cells_sample_but_do_not_filter() {
        let cells = [
            Cell::lookahead(10, 0),
            Cell::item(12, 1),
            Cell::tombstone(14),
        ];
        let aux = build_aux(&cells);
        assert_eq!(aux.fence_min, 12, "lookahead key is not a fence");
        assert_eq!(aux.fence_max, 14, "tombstones fence like items");
        assert!(may(&aux, 12));
        assert!(may(&aux, 14), "tombstones must be findable");
        assert!(!may(&aux, 10), "lookahead-only keys are absent");
        assert_eq!(aux.ghosts, vec![10], "slot 0 sampled regardless");
    }

    #[test]
    fn empty_and_all_redundant_runs_match_nothing() {
        let aux = build_aux(&[]);
        assert!(!may(&aux, 0));
        assert!(!may(&aux, u64::MAX));
        let cells = [Cell::lookahead(3, 0), Cell::lookahead(8, 1)];
        let aux = build_aux(&cells);
        assert!(!may(&aux, 3));
        assert_eq!(aux.window(3), (0, 2), "only slot 0 is sampled at this size");
    }

    #[test]
    fn incremental_builder_matches_one_shot() {
        let cells = sorted_cells(777, 0xD1FF);
        let one_shot = build_aux(&cells);
        // Simulate a budgeted merge: chunks split across many "steps".
        let mut b = AuxBuilder::new(cells.len());
        let mut fed = 0;
        while fed < cells.len() {
            let step = (1 + (fed % 5)).min(cells.len() - fed);
            b.extend(&cells[fed..fed + step]);
            fed += step;
        }
        assert_eq!(b.pushed(), cells.len());
        let inc = b.finish();
        assert_eq!(inc.fence_min, one_shot.fence_min);
        assert_eq!(inc.fence_max, one_shot.fence_max);
        assert_eq!(inc.ghosts, one_shot.ghosts);
        assert_eq!(inc.filter, one_shot.filter);
    }

    /// The aux by its definition, cell by cell: a ghost key at every
    /// stride-th slot, fences at the first and last real key, and a
    /// filter sized for `keys` keys at the first real cell holding
    /// every real key.
    fn cell_by_cell(cells: &[Cell], keys: usize) -> LevelAux {
        let reals: Vec<u64> = cells
            .iter()
            .filter(|c| c.is_real())
            .map(|c| c.key)
            .collect();
        let mut filter = LevelFilter::default();
        if !reals.is_empty() {
            filter = LevelFilter::with_capacity(keys);
            reals.iter().for_each(|&k| filter.insert(k));
        }
        LevelAux {
            fence_min: reals.first().copied().unwrap_or(u64::MAX),
            fence_max: reals.last().copied().unwrap_or(0),
            filter,
            ghosts: cells.iter().step_by(GHOST_STRIDE).map(|c| c.key).collect(),
            len: cells.len(),
        }
    }

    /// Chunks of any length — empty, lookahead-only, ending mid-stride —
    /// give the aux a cell-by-cell build gives, fresh or resumed.
    #[test]
    fn extend_matches_a_cell_by_cell_build() {
        check_cases("extend_matches_a_cell_by_cell_build", 200, |rng| {
            let mut keys: Vec<u64> = (0..rng.index(300)).map(|_| rng.below(1_000)).collect();
            keys.push(if rng.chance(1, 2) { 0 } else { u64::MAX });
            keys.sort_unstable();
            let cells: Vec<Cell> = keys
                .iter()
                .map(|&k| match rng.below(6) {
                    0 | 1 => Cell::lookahead(k, 0),
                    2 => Cell::tombstone(k),
                    _ => Cell::item(k, k),
                })
                .collect();
            let capacity = cells.len() + rng.index(100);
            let mut b = AuxBuilder::recycling(cells.len(), capacity, None);
            let mut fed = 0;
            while fed < cells.len() {
                let step = rng.index(2 * GHOST_STRIDE + 3).min(cells.len() - fed);
                b.extend(&cells[fed..fed + step]);
                if rng.chance(1, 4) {
                    b = AuxBuilder::resume(b.finish(), capacity);
                }
                fed += step;
            }
            assert_eq!(b.finish(), cell_by_cell(&cells, capacity));
        });
    }

    /// A builder that keeps a run's filter and is handed the keys the
    /// new run adds gives a fresh build's filter, whatever versions of
    /// the old keys the new run holds.
    #[test]
    fn a_kept_filter_equals_a_fresh_build() {
        check_cases("a_kept_filter_equals_a_fresh_build", 100, |rng| {
            let capacity = 1 + rng.index(2_000);
            let keys = |rng: &mut Rng, most: usize| {
                let n = rng.index(most);
                let mut keys: Vec<u64> = (0..n).map(|_| rng.below(4 * capacity as u64)).collect();
                keys.sort_unstable();
                keys.dedup();
                keys
            };
            let mut old: Vec<Cell> = (keys(rng, capacity / 2 + 1).into_iter())
                .map(|k| Cell::item(k, 0))
                .collect();
            if old.is_empty() {
                old.push(Cell::item(rng.next_u64(), 0));
            }
            let added = keys(rng, capacity / 2 + 1);
            let mut new: Vec<Cell> = old.iter().map(|c| Cell::tombstone(c.key)).collect();
            new.extend(added.iter().map(|&k| Cell::item(k, 1)));
            new.sort_by_key(|c| c.key);
            new.dedup_by_key(|c| c.key);
            let mut retired = AuxBuilder::recycling(old.len(), capacity, None);
            retired.extend(&old);
            let mut b = AuxBuilder::keeping(new.len(), capacity, retired.finish());
            b.add_keys(&added);
            b.extend(&new);
            assert_eq!(b.finish(), cell_by_cell(&new, capacity));
        });
    }

    /// The looked-up bits are the salted shift's, so the filters'
    /// bits are as they were.
    #[test]
    fn probe_bits_are_the_salted_shift() {
        let spread = (0..1u64 << 16).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for key in spread.chain([0, u64::MAX]) {
            let h = splitmix64(key);
            let lo = h as u32;
            let p = Probe::new(key);
            assert_eq!((p.key, p.block), (key, (h >> 32) as usize));
            for (bit, salt) in p.bits.into_iter().zip(SALT) {
                assert_eq!(bit, 1 << (lo.wrapping_mul(salt) >> 27), "key {key}");
            }
        }
    }

    #[test]
    fn aux_check_rejects_corruption() {
        let cells = sorted_cells(100, 1);
        let mut aux = build_aux(&cells);
        assert!(aux.check().is_ok());
        let good = aux.clone();
        aux.fence_min = aux.fence_max + 1;
        assert!(aux.check().is_err(), "inverted fences rejected");
        aux = good.clone();
        aux.ghosts.push(u64::MAX);
        assert!(aux.check().is_err(), "a sample past the run's end rejected");
        aux = good;
        aux.ghosts.reverse();
        if aux.ghosts.len() > 1 {
            assert!(aux.check().is_err(), "unsorted ghost sample rejected");
        }
    }
}

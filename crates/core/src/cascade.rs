//! Per-level read accelerators for the COLA family: fence keys, a
//! hand-rolled Bloom-style membership filter, and every-8th-element
//! lookahead (ghost) samples — the fractional-cascading machinery that
//! turns a point query from one independent binary search per level into
//! an `O(1)`-transfer probe per level.
//!
//! Every structure in the family keeps one [`LevelAux`] per sorted run
//! (a level of [`crate::BasicCola`]/[`crate::GCola`], or one array of
//! the deamortized variants). The aux is rebuilt exactly when its run is
//! rebuilt — during the merge that writes the run's cells — via an
//! [`AuxBuilder`] fed one cell at a time, so deamortized merges can
//! carry a partially built aux across budgeted steps at `O(1)` extra
//! work per moved cell. A query consults the aux in DRAM only:
//!
//! 1. **fences** — `key` outside `[fence_min, fence_max]` skips the run;
//! 2. **filter** — a negative membership answer skips the run (zero
//!    false negatives by construction, so skipping is always sound);
//! 3. **ghosts** — a binary search over the every-8th-slot `(key, slot)`
//!    sample brackets the run's candidate region to one stride, so the
//!    run itself is probed in `O(1)` block transfers instead of
//!    `O(log(run) / B)`.
//!
//! None of this changes the cell layout, so cursors, epoch-snapshot run
//! stacks, and the on-disk format are unaffected; see DESIGN.md
//! ("Fractional cascading & filters") for the sizing rationale.

use crate::entry::Cell;

/// Ghost-pointer density: one sampled `(key, slot)` per this many slots.
///
/// The paper's Section 4 uses lookahead-pointer spacing of a small
/// constant; 8 keeps a bracketing window within one or two 512-byte
/// blocks of 32-byte cells while costing only ~2 bytes of DRAM per
/// stored cell.
pub const GHOST_STRIDE: usize = 8;

/// Filter sizing: bits per stored key before rounding the bit-array up
/// to a power of two. Ten bits with [`FILTER_HASHES`] probes targets the
/// classic ~1% false-positive rate.
pub const FILTER_BITS_PER_KEY: usize = 10;

/// Number of filter probes per key (`k ≈ bits/key · ln 2`).
pub const FILTER_HASHES: u32 = 7;

/// The false-positive rate the sizing above targets; measured rates are
/// property-tested to stay within 2× of this.
pub const FILTER_TARGET_FP: f64 = 0.01;

/// SplitMix64 finalizer — the zero-dependency mixer used throughout the
/// workspace; here it derives the filter's double-hashing pair.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A hand-rolled Bloom-style filter over a power-of-two bit array.
///
/// Membership is approximate one-sidedly: [`LevelFilter::may_contain`]
/// never returns `false` for an inserted key (no false negatives), and
/// returns `true` for absent keys at roughly [`FILTER_TARGET_FP`].
/// Probes use double hashing — `h1 + i·h2` with both hashes derived
/// from SplitMix64 — so no per-probe rehash is needed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelFilter {
    /// Empty until sized: a filter nothing was inserted into.
    bits: Vec<u64>,
}

impl LevelFilter {
    /// An empty filter sized for `keys` insertions at
    /// [`FILTER_BITS_PER_KEY`], rounded up to a power-of-two bit count
    /// (minimum one 64-bit word).
    pub fn with_capacity(keys: usize) -> LevelFilter {
        let mut filter = LevelFilter::default();
        filter.reset(keys);
        filter
    }

    /// Zeroes the filter and re-sizes it as [`LevelFilter::with_capacity`]
    /// would, keeping the bit array's allocation.
    fn reset(&mut self, keys: usize) {
        let wanted = keys.saturating_mul(FILTER_BITS_PER_KEY).max(64);
        self.bits.clear();
        self.bits.resize(wanted.next_power_of_two() / 64, 0);
    }

    #[inline]
    fn hashes(key: u64) -> (u64, u64) {
        let h1 = splitmix64(key);
        // A distinct stream for h2; forcing it odd keeps the probe
        // sequence a full cycle over the power-of-two bit space.
        let h2 = splitmix64(key ^ 0xA5A5_A5A5_A5A5_A5A5) | 1;
        (h1, h2)
    }

    /// Sets the key's probe bits.
    pub fn insert(&mut self, key: u64) {
        let ((h1, h2), mask) = (Self::hashes(key), self.bits.len() as u64 * 64 - 1);
        for i in 0..FILTER_HASHES as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) & mask;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Whether the key may have been inserted. `false` is definitive.
    #[inline]
    pub fn may_contain(&self, key: u64) -> bool {
        if self.bits.is_empty() {
            return false;
        }
        let ((h1, h2), mask) = (Self::hashes(key), self.bits.len() as u64 * 64 - 1);
        for i in 0..FILTER_HASHES as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) & mask;
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// The bit-array size (diagnostics and sizing tests).
    pub fn bit_len(&self) -> usize {
        self.bits.len() * 64
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
    /// Every [`GHOST_STRIDE`]-th slot's `(key, slot)` — the lookahead
    /// sample that brackets a query's candidate window.
    pub ghosts: Vec<(u64, usize)>,
    /// Number of slots the aux was built over.
    pub len: usize,
}

impl LevelAux {
    /// Whether the run can possibly answer a lookup for `key`: fences
    /// first, then the filter. A `false` here is definitive, so the
    /// caller may skip the run without touching any of its blocks.
    #[inline]
    pub fn may_contain(&self, key: u64) -> bool {
        key >= self.fence_min && key <= self.fence_max && self.filter.may_contain(key)
    }

    /// The `[lo, hi)` slot window (relative to the run base) that must
    /// contain every cell with the given key: from the last sampled slot
    /// whose key is strictly below it to the first sampled slot whose
    /// key is strictly above. Costs zero block transfers.
    pub fn window(&self, key: u64) -> (usize, usize) {
        let lo_idx = self.ghosts.partition_point(|&(k, _)| k < key);
        let hi_idx = self.ghosts.partition_point(|&(k, _)| k <= key);
        let lo = if lo_idx == 0 {
            0
        } else {
            self.ghosts[lo_idx - 1].1
        };
        let hi = if hi_idx == self.ghosts.len() {
            self.len
        } else {
            self.ghosts[hi_idx].1
        };
        (lo, hi)
    }

    /// Validates internal consistency (fence ordering, sample ordering
    /// and bounds); used by `from_parts` and invariant checks.
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
        if let Some(&(_, pos)) = self.ghosts.last() {
            if pos >= self.len {
                return Err(format!("ghost slot {pos} past run length {}", self.len));
            }
        }
        Ok(())
    }
}

/// Incremental [`LevelAux`] constructor: fed one cell at a time, in slot
/// order, as a merge writes the run. Each [`AuxBuilder::push`] is `O(1)`
/// (amortized, over the filter's probe count), so deamortized merges can
/// interleave aux construction with their budgeted move steps and carry
/// the half-built state across inserts.
#[derive(Debug, Clone)]
pub struct AuxBuilder {
    /// Sized at the first real cell: a lookahead-only run never
    /// consults its filter (the fences reject every key first).
    filter: LevelFilter,
    slots: usize,
    fence_min: u64,
    fence_max: u64,
    any_real: bool,
    ghosts: Vec<(u64, usize)>,
    pos: usize,
}

impl AuxBuilder {
    /// A builder for a run of up to `slots` cells.
    pub fn new(slots: usize) -> AuxBuilder {
        AuxBuilder::recycling(slots, None)
    }

    /// [`AuxBuilder::new`] over the filter and ghost allocations of
    /// `retired`, the aux this run's rewrite is replacing.
    pub(crate) fn recycling(slots: usize, retired: Option<LevelAux>) -> AuxBuilder {
        let (mut filter, mut ghosts) = retired.map(|a| (a.filter, a.ghosts)).unwrap_or_default();
        filter.bits.clear();
        ghosts.clear();
        ghosts.reserve_exact(slots / GHOST_STRIDE + 1);
        AuxBuilder {
            filter,
            slots,
            fence_min: u64::MAX,
            fence_max: 0,
            any_real: false,
            ghosts,
            pos: 0,
        }
    }

    /// Records the next cell of the run (call in slot order). Redundant
    /// (lookahead) cells participate in the ghost sample — their keys
    /// are in sorted position — but not in fences or the filter, which
    /// answer "does any item or tombstone for this key live here?".
    pub fn push(&mut self, cell: &Cell) {
        if self.pos.is_multiple_of(GHOST_STRIDE) {
            self.ghosts.push((cell.key, self.pos));
        }
        if cell.is_real() {
            if !self.any_real {
                self.filter.reset(self.slots);
                self.fence_min = cell.key;
                self.any_real = true;
            }
            self.filter.insert(cell.key);
            self.fence_max = cell.key;
        }
        self.pos += 1;
    }

    /// Number of cells pushed so far.
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

/// Builds a run's aux in one pass over its cells.
pub fn build_aux<'a>(cells: impl ExactSizeIterator<Item = &'a Cell>) -> LevelAux {
    let mut b = AuxBuilder::new(cells.len());
    for c in cells {
        b.push(c);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosbt_testkit::Rng;

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
                assert!(f.may_contain(k), "false negative for {k} (seed {seed})");
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
                if !present.contains(&k) && f.may_contain(k) {
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
    fn filter_sizing_rounds_to_power_of_two() {
        assert_eq!(LevelFilter::with_capacity(0).bit_len(), 64);
        assert_eq!(LevelFilter::with_capacity(6).bit_len(), 64);
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
            let aux = build_aux(cells.iter());
            assert!(aux.check().is_ok());
            // Every present key's full equal-range falls inside its window.
            for (i, c) in cells.iter().enumerate() {
                let (lo, hi) = aux.window(c.key);
                assert!(lo <= i && i < hi, "slot {i} (key {}) outside window", c.key);
                assert!(hi - lo <= 2 * GHOST_STRIDE + cells.len().min(16));
                assert!(aux.may_contain(c.key));
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
        let aux = build_aux(cells.iter());
        let (lo, hi) = aux.window(7);
        assert!(lo <= 1, "window must start at or before the first 7");
        assert!(hi >= 41, "window must cover the last 7");
    }

    #[test]
    fn redundant_cells_sample_but_do_not_filter() {
        let cells = [
            Cell::lookahead(10, 0),
            Cell::item(12, 1),
            Cell::tombstone(14),
        ];
        let aux = build_aux(cells.iter());
        assert_eq!(aux.fence_min, 12, "lookahead key is not a fence");
        assert_eq!(aux.fence_max, 14, "tombstones fence like items");
        assert!(aux.may_contain(12));
        assert!(aux.may_contain(14), "tombstones must be findable");
        assert!(!aux.may_contain(10), "lookahead-only keys are absent");
        assert_eq!(aux.ghosts, vec![(10, 0)], "slot 0 sampled regardless");
    }

    #[test]
    fn empty_and_all_redundant_runs_match_nothing() {
        let aux = build_aux([].iter());
        assert!(!aux.may_contain(0));
        assert!(!aux.may_contain(u64::MAX));
        let cells = [Cell::lookahead(3, 0), Cell::lookahead(8, 1)];
        let aux = build_aux(cells.iter());
        assert!(!aux.may_contain(3));
        assert_eq!(aux.window(3), (0, 2), "only slot 0 is sampled at this size");
    }

    #[test]
    fn incremental_builder_matches_one_shot() {
        let cells = sorted_cells(777, 0xD1FF);
        let one_shot = build_aux(cells.iter());
        // Simulate a budgeted merge: pushes split across many "steps".
        let mut b = AuxBuilder::new(cells.len());
        let mut fed = 0;
        while fed < cells.len() {
            let step = 1 + (fed % 5);
            for c in cells.iter().skip(fed).take(step) {
                b.push(c);
            }
            fed += step;
        }
        assert_eq!(b.pushed(), cells.len());
        let inc = b.finish();
        assert_eq!(inc.fence_min, one_shot.fence_min);
        assert_eq!(inc.fence_max, one_shot.fence_max);
        assert_eq!(inc.ghosts, one_shot.ghosts);
        assert_eq!(inc.filter, one_shot.filter);
    }

    #[test]
    fn aux_check_rejects_corruption() {
        let cells = sorted_cells(100, 1);
        let mut aux = build_aux(cells.iter());
        assert!(aux.check().is_ok());
        let good = aux.clone();
        aux.fence_min = aux.fence_max + 1;
        assert!(aux.check().is_err(), "inverted fences rejected");
        aux = good.clone();
        if let Some(last) = aux.ghosts.last_mut() {
            last.1 = aux.len + 5;
        }
        assert!(aux.check().is_err(), "out-of-range ghost slot rejected");
        aux = good;
        aux.ghosts.reverse();
        if aux.ghosts.len() > 1 {
            assert!(aux.check().is_err(), "unsorted ghost sample rejected");
        }
    }
}

//! The carry merge kernel of the g-COLA (and so of the basic COLA, its
//! `g = 2, p = 0` case): one stable two-way merge, folded over a carry's
//! sources newest-first.
//!
//! A carry into level `t` merges the new run, levels `0..t` and the
//! target's own run. Folding them pairwise — `((run ⋈ L0) ⋈ L1) ⋈ …`,
//! the left (newer) side winning ties — emits every key's versions in
//! source order, which is what a k-way merge keyed on `(key, source
//! rank)` emits: the output is cell-for-cell the same. Levels grow
//! geometrically, so the fold copies `Σ size_j·(t−j) ≤ total·g/(g−1)`
//! cells at one compare each, against a heap's `O(log k)` sifts per cell.
//!
//! [`Step::push`] drops a source cell whose key the cell just written
//! carries — the newer run's, or the source's own in a level written
//! before this rule — so the output is cell-for-cell a k-way merge *of the
//! newest version of each key*, and [`MergeBuf::drop_tombstones`] ends a
//! fold nothing older lies beneath.
//!
//! The fold runs in place. Source sizes are known up front, so the run
//! so far sits right-justified in a buffer of their sum and each older
//! source is merged into the gap on its left as its cells stream past:
//! the write position reaches the unread run only when the source is
//! exhausted, and the rest of the run is then already in place. A step
//! that dropped cells ends short of the run and closes the gap with one
//! `copy_within`; fresh keys never pay it. No source is staged and
//! nothing ping-pongs: the fold holds the sources once and the output
//! never — half a k-way merge's peak (sources + output) — and its length
//! is known before the target's rewrite starts.
//!
//! The scratch belongs to the structure, so a steady-state carry
//! allocates nothing. Between carries each buffer keeps at most
//! [`RETAIN_CELLS`]: small carries are where an allocation is a visible
//! share of the work (15 carries in 16 of a 4-COLA merge under 32 cells);
//! a carry past the bound moves thousands of cells per allocation, sizes
//! its buffers exactly and gives them back before it returns.

use crate::entry::Cell;

/// Elements a scratch buffer may keep between carries (32 KiB of cells).
pub(crate) const RETAIN_CELLS: usize = 1024;

/// Empties `v`, giving back what it holds past the bound — by freeing,
/// not shrinking: a shrunk mapping never teaches malloc to stop mmapping
/// carry-sized blocks, and every large carry then page-faults its buffers
/// in afresh (measured: 430 → 600 ns/insert).
fn recycle<T>(v: &mut Vec<T>) {
    v.clear();
    if v.capacity() > RETAIN_CELLS {
        *v = Vec::with_capacity(RETAIN_CELLS);
    }
}

/// A structure's carry scratch. `buf[start..]` is the fold so far; `buf`
/// stays initialized to its full length, so steps index instead of push.
#[derive(Debug, Default)]
pub(crate) struct MergeBuf {
    /// Lookahead samples `(key, position)` for the level being rewritten.
    pub(crate) las: Vec<(u64, u64)>,
    /// The samples that rewrite takes of itself, for the level below.
    pub(crate) down: Vec<(u64, u64)>,
    /// Shadowed versions and spent tombstones the fold has dropped.
    pub(crate) dropped: u64,
    buf: Vec<Cell>,
    start: usize,
}

impl MergeBuf {
    /// Starts a fold at `newest`, with room for `total` cells in all.
    pub(crate) fn begin(&mut self, newest: &[Cell], total: usize) {
        if self.buf.len() < total {
            self.buf = vec![Cell::default(); total.max(RETAIN_CELLS)];
        }
        self.start = self.buf.len() - newest.len();
        self.buf[self.start..].copy_from_slice(newest);
        self.dropped = 0;
    }

    /// Merges the next-older source, of exactly `n` cells, into the run:
    /// `feed` pushes them in key order.
    pub(crate) fn step(&mut self, n: usize, feed: impl FnOnce(&mut Step<'_>)) {
        assert!(n <= self.start, "fold begun with room for fewer cells");
        let base = self.start - n;
        let mut step = Step {
            buf: &mut self.buf,
            r: self.start,
            w: base,
            base,
            left: n,
        };
        feed(&mut step);
        assert_eq!(step.left, 0, "source shorter than its item count");
        let (w, gap) = (step.w, step.r - step.w);
        if gap > 0 {
            self.buf.copy_within(base..w, base + gap);
            self.dropped += gap as u64;
        }
        self.start = base + gap;
    }

    /// Ends a fold nothing older lies beneath: its tombstones have no
    /// version left to shadow and are compacted out, right to left.
    pub(crate) fn drop_tombstones(&mut self) {
        let mut w = self.buf.len();
        for r in (self.start..self.buf.len()).rev() {
            if !self.buf[r].is_tombstone() {
                w -= 1;
                self.buf[w] = self.buf[r];
            }
        }
        self.dropped += (w - self.start) as u64;
        self.start = w;
    }

    /// The merged run.
    pub(crate) fn run(&self) -> &[Cell] {
        &self.buf[self.start..]
    }

    /// Ends a carry: gives back whatever outgrew the bound.
    pub(crate) fn release(&mut self) {
        recycle(&mut self.las);
        recycle(&mut self.down);
        if self.buf.len() > RETAIN_CELLS {
            self.buf = vec![Cell::default(); RETAIN_CELLS];
        }
    }
}

/// One source being merged in: `buf[base..w]` is the output so far,
/// `buf[r..]` the unread run and `left` the number of source cells still
/// to come; `r − w − left` cells have been dropped.
pub(crate) struct Step<'a> {
    buf: &'a mut [Cell],
    r: usize,
    w: usize,
    base: usize,
    left: usize,
}

impl Step<'_> {
    /// Moves the run's cells up to and including `key` to the output: the
    /// run is newer and wins ties.
    #[inline]
    fn advance(&mut self, key: u64) {
        assert!(self.left > 0, "source longer than its item count");
        self.left -= 1;
        while self.r < self.buf.len() && self.buf[self.r].key <= key {
            self.buf[self.w] = self.buf[self.r];
            (self.w, self.r) = (self.w + 1, self.r + 1);
        }
    }

    /// The source's next cell, dropped if the cell just written — newer
    /// than it — has its key.
    #[inline]
    pub(crate) fn push(&mut self, cell: &Cell) {
        self.advance(cell.key);
        if self.w > self.base && self.buf[self.w - 1].key == cell.key {
            return;
        }
        self.buf[self.w] = *cell;
        self.w += 1;
    }
}

#[cfg(test)]
impl MergeBuf {
    /// The largest capacity, in elements, any scratch buffer holds.
    pub(crate) fn retained(&self) -> usize {
        let caps = [
            self.las.capacity(),
            self.down.capacity(),
            self.buf.capacity(),
        ];
        caps.into_iter().max().unwrap_or(0)
    }
}

/// What the differential tests of the structures share: the k-way heap
/// merge the fold replaced, kept as their oracle, and the seeded stream.
#[cfg(test)]
pub(crate) mod oracle {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use cosbt_testkit::Rng;

    use crate::dict::{Dictionary, UpdateBatch};
    use crate::entry::Cell;

    /// The pre-kernel carry merge, verbatim: sources newest first.
    pub(crate) fn heap_merge(sources: &[Vec<Cell>]) -> Vec<Cell> {
        let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
        for (rank, src) in sources.iter().enumerate() {
            if !src.is_empty() {
                heap.push(Reverse((src[0].key, rank, 0)));
            }
        }
        let total: usize = sources.iter().map(|s| s.len()).sum();
        let mut merged = Vec::with_capacity(total);
        while let Some(Reverse((_, rank, idx))) = heap.pop() {
            merged.push(sources[rank][idx]);
            if idx + 1 < sources[rank].len() {
                heap.push(Reverse((sources[rank][idx + 1].key, rank, idx + 1)));
            }
        }
        assert_eq!(merged.len(), total);
        merged
    }

    /// The g-COLA's carry rule as a filter on [`heap_merge`]'s output: the
    /// first cell of each key, and no tombstone when nothing older lies
    /// beneath (`deepest`). Returns the number of cells dropped.
    pub(crate) fn newest_only(merged: &mut Vec<Cell>, deepest: bool) -> u64 {
        let all = merged.len();
        merged.dedup_by_key(|c| c.key);
        merged.retain(|c| !(deepest && c.is_tombstone()));
        (all - merged.len()) as u64
    }

    /// One write of the mixed stream, in the shape each entry point takes.
    pub(crate) enum Op {
        Insert(u64, u64),
        Delete(u64),
        Apply(UpdateBatch),
        Batch(Vec<(u64, u64)>),
    }

    impl Op {
        /// Applies the op through the public write path.
        pub(crate) fn apply_to(&self, d: &mut impl Dictionary) {
            match self {
                Op::Insert(k, v) => d.insert(*k, *v),
                Op::Delete(k) => d.delete(*k),
                Op::Apply(b) => d.apply(&mut b.clone()),
                Op::Batch(pairs) => d.insert_batch(pairs),
            }
        }

        /// The sorted one-cell-per-key run the op hands the merge path.
        pub(crate) fn cells(&self) -> Vec<Cell> {
            match self {
                Op::Insert(k, v) => vec![Cell::item(*k, *v)],
                Op::Delete(k) => vec![Cell::tombstone(*k)],
                Op::Apply(b) => crate::dict::batch_to_cells(b),
                Op::Batch(pairs) => crate::dict::sorted_pairs_to_cells(pairs),
            }
        }
    }

    /// `n` seeded writes over a key space small enough that versions of
    /// a key pile up within and across levels: 80 % insert, 10 % delete,
    /// 5 % `apply` of up to 300 mixed ops, 5 % sorted `insert_batch`.
    pub(crate) fn stream(seed: u64, n: usize) -> Vec<Op> {
        let mut rng = Rng::new(seed);
        let key = |rng: &mut Rng| match rng.below(50) {
            0 => u64::MAX,
            _ => rng.below(3 * n as u64),
        };
        (0..n as u64)
            .map(|i| match rng.below(20) {
                0 => {
                    let mut b = UpdateBatch::new();
                    for _ in 0..rng.below(300) {
                        if rng.chance(1, 4) {
                            b.delete(key(&mut rng));
                        } else {
                            b.put(key(&mut rng), i);
                        }
                    }
                    Op::Apply(b)
                }
                1 => {
                    let mut pairs: Vec<(u64, u64)> =
                        (0..rng.below(300)).map(|_| (key(&mut rng), i)).collect();
                    pairs.sort_by_key(|&(k, _)| k);
                    Op::Batch(pairs)
                }
                2 | 3 => Op::Delete(key(&mut rng)),
                _ => Op::Insert(key(&mut rng), i),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosbt_testkit::{check_cases, Rng};

    /// A sorted source of `len` cells with duplicate keys, tombstones and
    /// `u64::MAX`; `val` numbers every cell of a case, so equal keys
    /// stay distinguishable.
    fn source(rng: &mut Rng, len: usize, next_val: &mut u64) -> Vec<Cell> {
        let mut keys: Vec<u64> = (0..len)
            .map(|_| match rng.below(8) {
                0 => u64::MAX,
                _ => rng.below(24),
            })
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| {
                *next_val += 1;
                let mut c = if rng.chance(1, 5) {
                    Cell::tombstone(k)
                } else {
                    Cell::item(k, 0)
                };
                c.val = *next_val;
                c
            })
            .collect()
    }

    /// 1 to 7 sources, a quarter of them empty.
    fn sources(rng: &mut Rng) -> Vec<Vec<Cell>> {
        let mut next_val = 0;
        (0..1 + rng.index(7))
            .map(|_| {
                let len = if rng.chance(1, 4) { 0 } else { rng.index(40) };
                source(rng, len, &mut next_val)
            })
            .collect()
    }

    /// The oracle's merge is a stable sort of the sources, newest first;
    /// where no key repeats, the fold is that same sort and drops nothing.
    #[test]
    fn fold_is_a_stable_sort_of_the_sources_newest_first() {
        let mut buf = MergeBuf::default();
        check_cases("fold_stable", 500, |rng| {
            let mut sources = sources(rng);
            let mut want: Vec<Cell> = sources.concat();
            want.sort_by_key(|c| c.key); // stable: ties keep source order
            assert_eq!(oracle::heap_merge(&sources), want, "the oracle itself");

            // Source j's key k becomes 8k + j, so no key repeats.
            for (j, src) in sources.iter_mut().enumerate() {
                let j = j as u64;
                for c in src.iter_mut() {
                    c.key = c.key.checked_mul(8).map_or(u64::MAX - j, |k| k + j);
                }
                src.dedup_by_key(|c| c.key);
            }
            let mut want: Vec<Cell> = sources.concat();
            want.sort_by_key(|c| c.key);
            buf.begin(&sources[0], want.len());
            for src in &sources[1..] {
                buf.step(src.len(), |s| src.iter().for_each(|c| s.push(c)));
            }
            assert_eq!(buf.run(), want);
            assert_eq!(buf.dropped, 0);
            buf.release();
        });
    }

    /// The first cell of each key in that same order, also when an older
    /// source repeats a key itself (a level written before carries
    /// dropped anything), and then no tombstone.
    #[test]
    fn push_keeps_the_newest_version_of_each_key() {
        let mut buf = MergeBuf::default();
        check_cases("fold_newest", 500, |rng| {
            let mut sources = sources(rng);
            sources[0].dedup_by_key(|c| c.key); // a new run holds a key once
            let mut want = oracle::heap_merge(&sources);
            let total = want.len();
            let shadowed = oracle::newest_only(&mut want, false);

            buf.begin(&sources[0], total);
            for src in &sources[1..] {
                buf.step(src.len(), |s| src.iter().for_each(|c| s.push(c)));
            }
            assert_eq!(buf.run(), want);
            assert_eq!(buf.dropped, shadowed);

            let spent = oracle::newest_only(&mut want, true);
            buf.drop_tombstones();
            assert_eq!(buf.run(), want);
            assert_eq!(buf.dropped, shadowed + spent);
            buf.release();
        });
    }

    /// Drops at either end of a step, where the gap meets the run.
    #[test]
    fn push_drops_at_the_first_and_last_position_of_a_step() {
        let cells = |keys: &[u64], val| keys.iter().map(|&k| Cell::item(k, val)).collect();
        let fold = |run: &[u64], src: &[u64]| {
            let (run, src): (Vec<Cell>, Vec<Cell>) = (cells(run, 0), cells(src, 1));
            let mut buf = MergeBuf::default();
            buf.begin(&run, run.len() + src.len());
            buf.step(src.len(), |s| src.iter().for_each(|c| s.push(c)));
            let out: Vec<(u64, u64)> = buf.run().iter().map(|c| (c.key, c.val)).collect();
            (out, buf.dropped)
        };
        // First: the source's first cell is shadowed by the run's.
        assert_eq!(fold(&[1, 5], &[1, 3]), (vec![(1, 0), (3, 1), (5, 0)], 1));
        // Last: the source's last cell is shadowed by the run's last.
        assert_eq!(fold(&[2, 9], &[1, 9]), (vec![(1, 1), (2, 0), (9, 0)], 1));
        // Every cell, leaving nothing of the source.
        assert_eq!(fold(&[4, 6], &[4, 6]), (vec![(4, 0), (6, 0)], 2));
        // A source that repeats its own first key, which the run lacks:
        // the slot before the step's output is never consulted.
        assert_eq!(fold(&[7], &[3, 3, 7]), (vec![(3, 1), (7, 0)], 2));
        // Nothing shadowed: the step ends flush and nothing moves.
        assert_eq!(fold(&[2], &[1, 3]), (vec![(1, 1), (2, 0), (3, 1)], 0));
    }

    #[test]
    fn a_carry_past_the_bound_is_given_back() {
        let mut buf = MergeBuf::default();
        let big: Vec<Cell> = (0..3 * RETAIN_CELLS as u64)
            .map(|k| Cell::item(k, k))
            .collect();
        buf.begin(&big[..10], big.len());
        buf.step(big.len() - 10, |s| big[10..].iter().for_each(|c| s.push(c)));
        assert_eq!(buf.run().len(), big.len());
        buf.las.resize(2 * RETAIN_CELLS, (0, 0));
        buf.down.resize(2 * RETAIN_CELLS, (0, 0));
        buf.release();
        assert!(buf.retained() <= RETAIN_CELLS);
        // The retained buffer still serves a carry within the bound.
        buf.begin(&big[..3], 5);
        buf.step(2, |s| big[3..5].iter().for_each(|c| s.push(c)));
        let keys: Vec<u64> = buf.run().iter().map(|c| c.key).collect();
        assert_eq!(keys, [0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "source shorter")]
    fn a_short_source_is_caught() {
        let mut buf = MergeBuf::default();
        buf.begin(&[Cell::item(1, 1)], 3);
        buf.step(2, |s| s.push(&Cell::item(0, 0)));
    }
}

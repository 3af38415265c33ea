//! The carry merge kernel of the g-COLA (and so of the basic COLA, its
//! `g = 2, p = 0` case, and of the deamortized COLA's merges): a chain of
//! stable two-way merges that streams a carry's sources through fixed
//! chunks and fills the output chunks it is handed, so a carry holds no
//! buffer the size of its output.
//!
//! A carry into level `t` merges the new run, levels `0..t` and the
//! target's own run. [`Fold`] merges them as a chain — `((run ⋈ L0) ⋈ L1)
//! ⋈ …`, newest source innermost, the inner (newer) side winning ties —
//! so it emits every key's versions in source order, which is what a
//! k-way merge keyed on `(key, source rank)` emits: the output is cell for
//! cell the same. Each node of the chain caches the next cell of the merge
//! beneath it, so a cell from source `j` costs one compare at each node
//! from the top down to `j` and one move back up: levels grow
//! geometrically, so a carry pays `≤ g/(g−1)` compares a cell, against a
//! heap's `O(log k)` sifts. The outermost source, the target's old run,
//! is the biggest and gives a carry most of its cells: while its next
//! cell goes before the newer sources' cached one, [`Fold::fill`] copies
//! its cells straight off its chunk, a compare and a copy each, with no
//! walk of the chain and no cell handed through a cached head; the fill
//! keeps the newer sources' cached head in a local between such runs. A
//! source caches only its head's rank: the head stays in the chunk until
//! it is taken. The fill also hands back the key of every cell it took
//! from the newer sources, which is all a carry that keeps its target's
//! filter must insert (`GCola::rewrite`).
//!
//! The fold keeps only the first cell of each key — the newest, from the
//! newer run, or from the same source in a level written before this
//! rule — and, at the deepest level, where nothing older lies beneath,
//! drops tombstones. The target's lookahead cells (the only redundant
//! cells a carry keeps: it reads level `j < t`'s as it reads its items,
//! and skips them) come ahead of real cells with the same key, as a
//! level rewrite places them.
//!
//! Every older source reads its run through a [`Source`]: a chunk of at
//! most [`CHUNK`] cells the structure allocates once, with the level, and
//! refills by one run call as soon as the merge takes its last staged
//! cell. A refill stops at the next multiple of [`CHUNK`] slots, and so
//! does `RunBuf::fill` when it flushes the output, so a store page
//! dividing `CHUNK` cells is read or written by one call of each sweep,
//! never split between two calls with other sweeps' pages in between.
//! The chunks, the one output chunk, a chunk's new keys and the lookahead
//! keys of the cascade below are the whole of a carry's scratch: no carry
//! allocates, and none holds its output.

use cosbt_dam::Mem;

use crate::entry::Cell;
use crate::runbuf::CHUNK;

/// A cell in merge order: by key, a lookahead cell ahead of real cells
/// of its key, and [`Head::END`] after every cell.
#[inline]
fn rank(cell: &Cell) -> u128 {
    (cell.key as u128) << 1 | cell.is_real() as u128
}

/// A merge node's cached next cell, with its rank.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Head {
    rank: u128,
    cell: Cell,
}

impl Head {
    /// What an exhausted merge hands out.
    pub(crate) const END: Head = Head {
        rank: u128::MAX,
        cell: Cell {
            key: 0,
            val: 0,
            ptr: 0,
            meta: 0,
        },
    };

    #[inline]
    fn of(cell: Option<&Cell>) -> Head {
        cell.map_or(Head::END, |&cell| Head {
            rank: rank(&cell),
            cell,
        })
    }
}

/// One older source of a carry: `mem[next..stop]` still in the store,
/// `buf[at..end]` staged and unread, its head the cell at `at`.
#[derive(Debug)]
pub(crate) struct Source {
    buf: Box<[Cell]>,
    at: usize,
    end: usize,
    next: usize,
    stop: usize,
    /// The head's rank, `u128::MAX` once the source is spent: the head
    /// itself stays in the chunk until it is taken.
    rank: u128,
    /// Real cells the run holds and the source has not staged yet.
    left: usize,
    /// Whether redundant cells are merged (the target's) or skipped.
    keep_redundant: bool,
}

impl Source {
    /// A source staging at most `cells` cells at a time.
    pub(crate) fn new(cells: usize) -> Source {
        Source {
            buf: vec![Cell::default(); cells.clamp(1, CHUNK)].into_boxed_slice(),
            at: 0,
            end: 0,
            next: 0,
            stop: 0,
            rank: u128::MAX,
            left: 0,
            keep_redundant: false,
        }
    }

    /// Cells the source stages at a time.
    pub(crate) fn cells(&self) -> usize {
        self.buf.len()
    }

    /// Starts reading the run `mem[base..base + len]`, which holds
    /// `items` real cells, and stages its first chunk. A carry places its
    /// output by the item counts, so a run holding more real cells, or
    /// fewer, than its count is caught as it is read.
    pub(crate) fn open<M: Mem<Cell>>(
        &mut self,
        mem: &M,
        (base, len): (usize, usize),
        items: usize,
        keep_redundant: bool,
    ) {
        (self.next, self.stop) = (base, base + len);
        (self.left, self.keep_redundant) = (items, keep_redundant);
        self.refill(mem);
    }

    /// Hands out the head and moves on to the next cell.
    #[inline]
    fn take<M: Mem<Cell>>(&mut self, mem: &M) -> Head {
        let head = Head {
            rank: self.rank,
            cell: self.buf[self.at],
        };
        self.at += 1;
        match self.buf[..self.end].get(self.at) {
            Some(cell) => self.rank = rank(cell),
            None => self.refill(mem),
        }
        head
    }

    /// Takes the cells ranked below `bar`, the head first, until `out`
    /// holds as many as it can: those `at` keeps go to `out`, and the
    /// number of them is returned. The same cells [`Source::take`] would
    /// hand out one at a time, refilled at the same cells, but read
    /// straight off the staged chunk.
    #[inline]
    fn stream<M: Mem<Cell>>(
        &mut self,
        mem: &M,
        bar: u128,
        out: &mut [Cell],
        at: &mut FoldAt,
    ) -> usize {
        let mut n = 0;
        while self.rank < bar && n < out.len() {
            let staged = &self.buf[self.at..self.end];
            let mut i = 0;
            while i < staged.len() && n < out.len() {
                let cell = staged[i];
                if rank(&cell) >= bar {
                    break;
                }
                i += 1;
                out[n] = cell;
                n += at.keeps(&cell) as usize;
            }
            self.at += i;
            match self.buf[..self.end].get(self.at) {
                Some(cell) => {
                    self.rank = rank(cell);
                    break;
                }
                None => self.refill(mem),
            }
        }
        n
    }

    /// Stages the next chunk that holds a cell the merge takes: up to the
    /// next multiple of [`CHUNK`] slots, and never more than the buffer.
    fn refill<M: Mem<Cell>>(&mut self, mem: &M) {
        (self.at, self.end) = (0, 0);
        while self.end == 0 && self.next < self.stop {
            let boundary = (self.next / CHUNK + 1) * CHUNK;
            let n = (self.stop.min(boundary) - self.next).min(self.buf.len());
            let chunk = &mut self.buf[..n];
            mem.read_run(self.next, chunk);
            self.next += n;
            let reals = if self.keep_redundant {
                self.end = n;
                chunk.iter().filter(|c| c.is_real()).count()
            } else {
                let mut kept = 0;
                for r in 0..n {
                    if chunk[r].is_real() {
                        chunk[kept] = chunk[r];
                        kept += 1;
                    }
                }
                self.end = kept;
                kept
            };
            assert!(reals <= self.left, "source longer than its item count");
            self.left -= reals;
        }
        assert!(
            self.end > 0 || self.left == 0,
            "source shorter than its item count"
        );
        self.rank = self.buf[..self.end].first().map_or(u128::MAX, rank);
    }
}

/// A carry's merge in progress: `newest` (one cell per key, newer than
/// everything stored), then `older`, newest first. Resumable: each
/// [`Fold::fill`] or [`Fold::step`] goes on where the last one stopped,
/// so a caller may write, stop and go on as it likes, across calls too
/// ([`Fold::resume`]).
pub(crate) struct Fold<'a> {
    newest: &'a [Cell],
    older: &'a mut [Source],
    /// `heads[i]`: the next cell of the merge of `newest` and
    /// `older[..i]`, taken off it already.
    heads: &'a mut [Head],
    pub(crate) at: FoldAt,
}

/// Where a fold stands, besides its sources and their cached heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FoldAt {
    /// The older sources spent when the fold opened, ahead of every live
    /// one, which the chain leaves out.
    spent: usize,
    /// Cells of `newest` taken.
    taken: usize,
    last_real: Option<u64>,
    deepest: bool,
    /// Shadowed versions and spent tombstones dropped so far.
    pub(crate) dropped: u64,
}

impl<'a> Fold<'a> {
    /// A fold of `newest` and the opened `older` sources; `heads` has a
    /// slot per older source. `deepest`: nothing older than the sources
    /// is stored, so their tombstones are dropped.
    ///
    /// Sources already spent, ahead of every live one — levels 0 to `h`,
    /// which hold no item since the head took their items — are left out
    /// of the chain: their nodes would only hand the newest run's cells
    /// up a node later. Nothing but the newest run, in DRAM, lies beneath
    /// them, so leaving them out moves no store call.
    pub(crate) fn new<M: Mem<Cell>>(
        mem: &M,
        newest: &'a [Cell],
        older: &'a mut [Source],
        heads: &'a mut [Head],
        deepest: bool,
    ) -> Fold<'a> {
        let at = FoldAt {
            spent: older.iter().take_while(|s| s.rank == u128::MAX).count(),
            taken: 0,
            last_real: None,
            deepest,
            dropped: 0,
        };
        let mut fold = Fold::resume(newest, older, heads, at);
        for i in 0..fold.heads.len() {
            fold.heads[i] = fold.pop(mem, i);
        }
        fold
    }

    /// The fold that stood at `at` over `newest`, `older` and `heads`.
    pub(crate) fn resume(
        newest: &'a [Cell],
        older: &'a mut [Source],
        heads: &'a mut [Head],
        at: FoldAt,
    ) -> Fold<'a> {
        assert_eq!(older.len(), heads.len(), "one cached head per node");
        Fold {
            newest,
            older: &mut older[at.spent..],
            heads: &mut heads[at.spent..],
            at,
        }
    }

    /// The next cell of the merge of `newest` and `older[..top]`. Walks
    /// down while the cached inner (newer) head goes first — it wins ties
    /// of rank, so a key's versions leave newest first — takes the cell
    /// where a source's head goes first, and passes it up the nodes
    /// walked, each handing on the head it held.
    #[inline(always)]
    fn pop<M: Mem<Cell>>(&mut self, mem: &M, top: usize) -> Head {
        let mut i = top;
        while i > 0 && self.heads[i - 1].rank <= self.older[i - 1].rank {
            i -= 1;
        }
        let mut head = match i {
            0 => {
                let head = Head::of(self.newest.get(self.at.taken));
                self.at.taken += 1;
                head
            }
            _ => self.older[i - 1].take(mem),
        };
        for cached in &mut self.heads[i..top] {
            std::mem::swap(&mut head, cached);
        }
        head
    }

    /// Whether every source is spent.
    pub(crate) fn done(&self) -> bool {
        let spent = |rank: Option<u128>| rank.is_none_or(|r| r == u128::MAX);
        let (newer, older) = (self.heads.last(), self.older.last());
        spent(newer.map(|h| h.rank))
            && spent(older.map(|s| s.rank))
            && self.at.taken >= self.newest.len()
    }

    /// Takes one cell off the merge: `None` once every source is spent,
    /// else the cell and whether the carry writes it.
    #[inline]
    pub(crate) fn step<M: Mem<Cell>>(&mut self, mem: &M) -> Option<(Cell, bool)> {
        let Head { rank, cell } = self.pop(mem, self.heads.len());
        (rank != u128::MAX).then(|| (cell, self.at.keeps(&cell)))
    }

    /// Fills `out` with the next cells the carry writes and returns how
    /// many: fewer than `out.len()` only once every source is spent.
    /// While the outermost source — the biggest, which gives a carry most
    /// of its cells — goes first, its cells stream straight off its chunk
    /// ([`Source::stream`]); every other cell is the newer sources'
    /// merge's cached head, which the fill keeps in a local and refills
    /// by a pop of the chain beneath it. The key of each of those cells
    /// the carry writes — every key the output holds beyond the outermost
    /// source's, and some of those, at most `out.len()` — is pushed onto
    /// `new_keys`.
    #[inline]
    pub(crate) fn fill<M: Mem<Cell>>(
        &mut self,
        mem: &M,
        out: &mut [Cell],
        new_keys: &mut Vec<u64>,
    ) -> usize {
        let mut n = 0;
        let Some(i) = self.heads.len().checked_sub(1) else {
            // Every older source was spent: only the newest run is left.
            while n < out.len() {
                let Head { rank, cell } = self.pop(mem, 0);
                if rank == u128::MAX {
                    break;
                }
                n += self.write_newer(cell, &mut out[n], new_keys) as usize;
            }
            return n;
        };
        // No pop beneath node `i` touches its cached head.
        let mut bar = self.heads[i];
        while n < out.len() {
            if self.older[i].rank < bar.rank {
                n += self.older[i].stream(mem, bar.rank, &mut out[n..], &mut self.at);
                continue;
            }
            if bar.rank == u128::MAX {
                break;
            }
            let cell = bar.cell;
            bar = self.pop(mem, i);
            n += self.write_newer(cell, &mut out[n], new_keys) as usize;
        }
        self.heads[i] = bar;
        n
    }

    /// Puts a cell of the newer sources in `slot` and returns whether the
    /// carry writes it, pushing its key onto `new_keys` if so. A dropped
    /// cell's key is already there: only a newer version shadows it.
    #[inline(always)]
    fn write_newer(&mut self, cell: Cell, slot: &mut Cell, new_keys: &mut Vec<u64>) -> bool {
        *slot = cell;
        let kept = self.at.keeps(&cell);
        if kept {
            new_keys.push(cell.key);
        }
        kept
    }
}

impl FoldAt {
    /// The carry rule: whether the carry writes the merge's next cell, not
    /// an older version of the last real key or a spent tombstone.
    #[inline]
    fn keeps(&mut self, cell: &Cell) -> bool {
        if cell.is_redundant() {
            return true;
        }
        let shadowed = self.last_real == Some(cell.key);
        self.last_real = Some(cell.key);
        let dropped = shadowed || (self.deepest && cell.is_tombstone());
        self.dropped += dropped as u64;
        !dropped
    }
}

/// What the differential tests of the structures share: the k-way heap
/// merge the kernel replaced, kept as their oracle, and the seeded stream.
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
        stream_over(seed, n, 3 * n as u64, 2)
    }

    /// [`stream`] over `keys` keys, `deletes` in 20 of its single writes
    /// deletes (the rest inserts).
    pub(crate) fn stream_over(seed: u64, n: usize, keys: u64, deletes: u64) -> Vec<Op> {
        let mut rng = Rng::new(seed);
        let key = |rng: &mut Rng| match rng.below(50) {
            0 => u64::MAX,
            _ => rng.below(keys),
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
                d if d < 2 + deletes => Op::Delete(key(&mut rng)),
                _ => Op::Insert(key(&mut rng), i),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosbt_dam::PlainMem;
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

    /// 1 to 7 sources, a quarter of them empty, some longer than a chunk.
    fn sources(rng: &mut Rng) -> Vec<Vec<Cell>> {
        let mut next_val = 0;
        (0..1 + rng.index(7))
            .map(|_| {
                let len = match rng.below(8) {
                    0 | 1 => 0,
                    2 => rng.index(3 * CHUNK),
                    _ => rng.index(40),
                };
                source(rng, len, &mut next_val)
            })
            .collect()
    }

    /// Every cell `f` writes, filled a few at a time, so the fills end
    /// anywhere in a source's chunk, and the new keys the fills push:
    /// keys of cells each fill writes, no more of them than it writes.
    fn drain(f: &mut Fold, mem: &PlainMem<Cell>) -> (Vec<Cell>, Vec<u64>) {
        let (mut out, mut buf, mut keys) = (Vec::new(), [Cell::default(); 7], Vec::new());
        loop {
            let mut new = Vec::new();
            let n = f.fill(mem, &mut buf, &mut new);
            assert!(new.len() <= n, "{} new keys for {n} cells", new.len());
            assert!(new.iter().all(|k| buf[..n].iter().any(|c| c.key == *k)));
            out.extend_from_slice(&buf[..n]);
            keys.extend(new);
            if n < buf.len() {
                return (out, keys);
            }
        }
    }

    /// `sources[1..]` laid out in a store one after another, at an
    /// offset that puts the chunk boundaries anywhere in them, and
    /// folded under `sources[0]`. Each source stages `cells` at a time.
    fn fold(sources: &[Vec<Cell>], cells: usize, deepest: bool) -> (Vec<Cell>, u64) {
        let mut mem = PlainMem::with_len(7, Cell::default());
        let mut older = Vec::new();
        for src in &sources[1..] {
            let base = mem.len();
            mem.resize(base + src.len(), Cell::default());
            mem.write_run(base, src);
            let mut s = Source::new(cells);
            s.open(&mem, (base, src.len()), src.len(), false);
            older.push(s);
        }
        let mut heads = vec![Head::END; older.len()];
        let mut f = Fold::new(&mem, &sources[0], &mut older, &mut heads, deepest);
        let (out, new_keys) = drain(&mut f, &mem);
        // What a carry keeping the outermost source's filter inserts:
        // with its keys, every real key written.
        let outer = sources.last().filter(|_| sources.len() > 1);
        for c in out.iter().filter(|c| c.is_real()) {
            let old = outer.is_some_and(|src| src.iter().any(|o| o.key == c.key));
            assert!(
                old || new_keys.contains(&c.key),
                "key {} not inserted",
                c.key
            );
        }
        (out, f.at.dropped)
    }

    /// The oracle's merge is a stable sort of the sources, newest first;
    /// where no key repeats, the fold is that same sort and drops nothing.
    #[test]
    fn fold_is_a_stable_sort_of_the_sources_newest_first() {
        check_cases("fold_stable", 300, |rng| {
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
            for cells in [1, 5, CHUNK] {
                assert_eq!(fold(&sources, cells, false), (want.clone(), 0));
            }
        });
    }

    /// The first cell of each key in that same order, also when an older
    /// source repeats a key itself (a level written before carries
    /// dropped anything), and then no tombstone.
    #[test]
    fn next_keeps_the_newest_version_of_each_key() {
        check_cases("fold_newest", 300, |rng| {
            let mut sources = sources(rng);
            sources[0].dedup_by_key(|c| c.key); // a new run holds a key once
            let mut want = oracle::heap_merge(&sources);
            let shadowed = oracle::newest_only(&mut want, false);
            let cells = 1 + rng.index(CHUNK);
            assert_eq!(fold(&sources, cells, false), (want.clone(), shadowed));
            let spent = oracle::newest_only(&mut want, true);
            assert_eq!(fold(&sources, cells, true), (want, shadowed + spent));
        });
    }

    /// Drops at either end of a source, where it meets a chunk boundary
    /// or the newer run's last cell.
    #[test]
    fn next_drops_at_the_first_and_last_cell_of_a_source() {
        let cells = |keys: &[u64], val| keys.iter().map(|&k| Cell::item(k, val)).collect();
        let fold = |run: &[u64], src: &[u64]| {
            let sources: [Vec<Cell>; 2] = [cells(run, 0), cells(src, 1)];
            let (out, dropped) = fold(&sources, 1, false);
            let out: Vec<(u64, u64)> = out.iter().map(|c| (c.key, c.val)).collect();
            (out, dropped)
        };
        // First: the source's first cell is shadowed by the run's.
        assert_eq!(fold(&[1, 5], &[1, 3]), (vec![(1, 0), (3, 1), (5, 0)], 1));
        // Last: the source's last cell is shadowed by the run's last.
        assert_eq!(fold(&[2, 9], &[1, 9]), (vec![(1, 1), (2, 0), (9, 0)], 1));
        // Every cell, leaving nothing of the source.
        assert_eq!(fold(&[4, 6], &[4, 6]), (vec![(4, 0), (6, 0)], 2));
        // A source that repeats its own first key, which the run lacks.
        assert_eq!(fold(&[7], &[3, 3, 7]), (vec![(3, 1), (7, 0)], 2));
        // Nothing shadowed.
        assert_eq!(fold(&[2], &[1, 3]), (vec![(1, 1), (2, 0), (3, 1)], 0));
    }

    #[test]
    #[should_panic(expected = "one cached head per node")]
    fn a_fold_without_a_head_per_source_is_caught() {
        let mem = PlainMem::with_len(1, Cell::default());
        let mut older = [Source::new(1)];
        Fold::new(&mem, &[], &mut older, &mut [], false);
    }

    #[test]
    #[should_panic(expected = "source shorter")]
    fn a_short_source_is_caught() {
        let mem = PlainMem::with_len(3, Cell::item(1, 1));
        let mut older = [Source::new(2)];
        older[0].open(&mem, (0, 3), 4, false);
        let mut heads = [Head::END];
        let mut f = Fold::new(&mem, &[], &mut older, &mut heads, false);
        drain(&mut f, &mem);
    }

    #[test]
    #[should_panic(expected = "source longer")]
    fn a_long_source_is_caught() {
        let mem = PlainMem::with_len(3, Cell::item(1, 1));
        let mut older = [Source::new(8)];
        older[0].open(&mem, (0, 3), 2, false);
    }

    /// The outermost source keeps its lookahead cells, ahead of real
    /// cells of their key from any source; the others' are skipped.
    #[test]
    fn the_target_keeps_its_lookaheads_ahead_of_real_cells() {
        let (run, level) = (
            [Cell::item(5, 1)],
            [Cell::lookahead(5, 7), Cell::item(9, 2)],
        );
        let target = [
            Cell::lookahead(3, 0),
            Cell::lookahead(5, 4),
            Cell::item(5, 3),
        ];
        let mut mem = PlainMem::with_len(5, Cell::default());
        mem.write_run(0, &level);
        mem.write_run(2, &target);
        let (mut a, mut b) = (Source::new(4), Source::new(4));
        a.open(&mem, (0, 2), 1, false);
        b.open(&mem, (2, 3), 1, true);
        let mut older = [a, b];
        let mut heads = [Head::END; 2];
        let mut f = Fold::new(&mem, &run, &mut older, &mut heads, false);
        let (out, _) = drain(&mut f, &mem);
        assert_eq!(
            out,
            [target[0], target[1], run[0], level[1]],
            "lookaheads first, the newest 5 next, the target's 5 dropped"
        );
        assert_eq!(f.at.dropped, 1);
    }

    /// A refill stops at each multiple of `CHUNK` slots, however the run
    /// is placed, and stages no more than the source's buffer.
    #[test]
    fn refills_stop_at_chunk_boundaries() {
        let len = 3 * CHUNK;
        let cells: Vec<Cell> = (0..len as u64).map(|k| Cell::item(k, k)).collect();
        for (base, buf) in [(0, CHUNK), (CHUNK - 3, CHUNK), (5, 100)] {
            let mut mem = PlainMem::with_len(base + len, Cell::default());
            mem.write_run(base, &cells);
            let mut s = Source::new(buf);
            s.open(&mem, (base, len), len, true);
            let mut got = Vec::new();
            while s.at < s.end {
                let slot = s.next - s.end;
                assert!(s.end <= buf, "staged more than the buffer");
                let last = slot + s.end - 1;
                assert_eq!(slot / CHUNK, last / CHUNK, "a refill crossed a boundary");
                for _ in 0..s.end {
                    got.push(s.take(&mem).cell);
                }
            }
            assert_eq!(got, cells, "base {base}, buffer {buf}");
        }
    }
}

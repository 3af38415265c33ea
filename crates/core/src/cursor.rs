//! Streaming k-way merge cursors.
//!
//! Two engines live here, one per layer of the system:
//!
//! * [`RunMergeCursor`] — the cell-level engine of the COLA family. Every
//!   COLA variant stores its data as a small set of sorted, contiguous
//!   runs of [`Cell`]s in one flat [`Mem`] array (levels, or the level's
//!   arrays for the deamortized variants), ordered newest-first both
//!   across runs and — among equal keys — within a run. The cursor walks
//!   those runs directly, the way the paper's lookahead array answers a
//!   range query. A seek brackets each run's position with the run's
//!   DRAM ghost sample ([`Run::lower_bound`]) and binary-searches only
//!   those two strides: `O(1)` cell reads and `O(1)` block transfers per
//!   run; a run whose fences put no real key inside the bounds (a level
//!   holding only lookahead cells) is left out altogether. Each
//!   remaining run's head cell is then read once and cached until the
//!   merge consumes it, so a step compares `k` keys in DRAM and reloads
//!   only the runs that carried the emitted key. A scan of `r` results
//!   over `k` runs costs `O(k + r)` cell reads — `r`, plus the redundant
//!   and shadowed cells lying between the results, plus a constant per
//!   run — and `O(k + r/B)` block transfers, instead of materializing
//!   every overlapping cell up front.
//! * [`MergeCursor`] — the same merge discipline generalized to
//!   *heterogeneous sources*: any set of [`CursorOps`] engines (boxed
//!   [`crate::Cursor`]s included), not just level runs of one array. A
//!   sharded database uses it to splice per-shard cursors — each possibly
//!   a different structure over a different backend — into one stream.
//!
//! Duplicate resolution matches point lookups exactly: the newest source
//! (lowest index) containing a key supplies its value, and — for the
//! cell-level engine — tombstones suppress the key and redundant
//! (lookahead) cells are passed over in key order and never output,
//! since they are routing metadata, not data.

use cosbt_dam::Mem;

use crate::dict::CursorOps;
use crate::entry::Cell;
pub use crate::run::Run;

/// The gap position of the cursor (see [`CursorOps`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gap {
    /// Before the first live key ≥ this bound.
    Before(u64),
    /// Past the end of the interval.
    AtEnd,
}

/// State of one merge source's cached head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Head<T> {
    /// Not pulled yet (or consumed) — the source sits at the merge gap.
    Unknown,
    /// Pulled one step past the merge gap; holds the entry.
    Entry(T),
    /// Pulled and the source had nothing left in this direction.
    Exhausted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Backward,
}

impl Direction {
    /// Whether a head with key `a` comes before one with key `b` when
    /// stepping this way.
    fn reaches_first(self, a: u64, b: u64) -> bool {
        match self {
            Direction::Forward => a < b,
            Direction::Backward => a > b,
        }
    }
}

/// Streaming merge cursor over [`Run`]s of one [`Mem`] array.
#[derive(Debug)]
pub struct RunMergeCursor<'a, M: Mem<Cell>> {
    mem: &'a M,
    runs: Vec<Run<'a>>,
    lo: u64,
    hi: u64,
    gap: Gap,
    /// Per-run split index. Once positioned (`dir` is `Some`), the real
    /// cells below `idx[r]` have key < gap and those at or above it have
    /// key ≥ gap, with one exception: a step that consumes a run's head
    /// leaves the run's other cells of that key on the side they were
    /// on. They are older versions of the key just emitted: a load in
    /// the same direction skips them, and the first step in the other
    /// direction re-emits that key, which moves the gap to their side.
    /// Redundant cells the merge has passed may sit on either side.
    idx: Vec<usize>,
    /// Per-run head cache, valid for the current `dir`: the cell at
    /// `idx[r]` going forward, at `idx[r] - 1` going backward — real or
    /// redundant.
    heads: Vec<Head<Cell>>,
    /// Direction the cached heads were loaded in; `None` after
    /// construction or a seek, until the next step positions the runs.
    dir: Option<Direction>,
}

impl<'a, M: Mem<Cell>> RunMergeCursor<'a, M> {
    /// A cursor over `runs` (newest first) bounded to `[lo, hi]`.
    pub fn new(mem: &'a M, runs: impl IntoIterator<Item = Run<'a>>, lo: u64, hi: u64) -> Self {
        // A run that can yield nothing is left out rather than merged in
        // and out: an empty one, and one whose fences put no real key
        // inside the bounds (a level holding only lookahead cells has
        // inverted fences). Two steps on purpose: folding the fence test
        // into the collect shrinks this first allocation, and with it
        // what glibc keeps of the heap between the repository
        // benchmark's rounds (`mixed_mem` `setup_s` 0.056 → 0.075 s,
        // minor faults 30.6 k → 62.1 k, measured for issue 22).
        let mut runs: Vec<Run> = runs.into_iter().filter(|run| run.len > 0).collect();
        runs.retain(|run| {
            run.sample().is_none_or(|aux| {
                aux.fence_min <= aux.fence_max && aux.fence_min <= hi && aux.fence_max >= lo
            })
        });
        let k = runs.len();
        RunMergeCursor {
            mem,
            runs,
            lo,
            hi,
            gap: Gap::Before(lo),
            idx: vec![0; k],
            heads: vec![Head::Unknown; k],
            dir: None,
        }
    }

    /// Whether a cell with this key sorts before the gap.
    fn below_gap(&self, key: u64) -> bool {
        match self.gap {
            Gap::Before(g) => key < g,
            Gap::AtEnd => key <= self.hi,
        }
    }

    /// First index in `run` whose cell is not below the gap.
    fn split(&self, run: Run) -> usize {
        match self.gap {
            Gap::Before(g) => run.lower_bound(self.mem, g),
            Gap::AtEnd => run.upper_bound(self.mem, self.hi),
        }
    }

    /// Loads run `r`'s head in `dir`: the next cell on that side of
    /// `idx[r]`, moving `idx[r]` past what is left of the last emitted
    /// key's cells (shadowed older versions). The head may be a redundant
    /// cell; the merge passes it in key order without emitting it.
    fn load(&mut self, r: usize, dir: Direction) {
        let run = self.runs[r];
        self.heads[r] = Head::Exhausted;
        match dir {
            Direction::Forward => {
                while self.idx[r] < run.len {
                    let c = self.mem.get(run.base + self.idx[r]);
                    if !self.below_gap(c.key) {
                        self.heads[r] = Head::Entry(c);
                        break;
                    }
                    self.idx[r] += 1;
                }
            }
            Direction::Backward => {
                while self.idx[r] > 0 {
                    let c = self.mem.get(run.base + self.idx[r] - 1);
                    if self.below_gap(c.key) {
                        self.heads[r] = Head::Entry(c);
                        break;
                    }
                    self.idx[r] -= 1;
                }
            }
        }
    }

    /// Positions every run at the gap after a seek, and drops the heads
    /// cached for the other direction before stepping in `dir` (their
    /// cells stay where `idx` has them; nothing is re-read).
    fn face(&mut self, dir: Direction) {
        if self.dir.is_none() {
            for r in 0..self.runs.len() {
                self.idx[r] = self.split(self.runs[r]);
            }
        }
        if self.dir != Some(dir) {
            self.heads.fill(Head::Unknown);
            self.dir = Some(dir);
        }
    }

    /// Fills the head cache in `dir` (only runs whose head a previous
    /// step consumed touch the array) and picks the head furthest along:
    /// smallest key going forward, largest going backward. Ties keep the
    /// newest run's head, so a redundant cell there is passed before any
    /// older run's version of the key is considered.
    fn pick(&mut self, dir: Direction) -> Option<(Cell, usize)> {
        let mut best: Option<(Cell, usize)> = None;
        for r in 0..self.runs.len() {
            if self.heads[r] == Head::Unknown {
                self.load(r, dir);
            }
            if let Head::Entry(c) = self.heads[r] {
                if best.is_none_or(|(b, _)| dir.reaches_first(c.key, b.key)) {
                    best = Some((c, r));
                }
            }
        }
        best
    }

    /// Moves `idx[r]` over run `r`'s cached head and forgets the head.
    fn consume(&mut self, r: usize, dir: Direction) {
        self.heads[r] = Head::Unknown;
        match dir {
            Direction::Forward => self.idx[r] += 1,
            Direction::Backward => self.idx[r] -= 1,
        }
    }

    /// Consumes every cached head that carries `key`: the winner and the
    /// older runs' shadowed versions.
    fn consume_key(&mut self, key: u64, dir: Direction) {
        for r in 0..self.runs.len() {
            if matches!(self.heads[r], Head::Entry(c) if c.key == key) {
                self.consume(r, dir);
            }
        }
    }

    /// One ascending merge step: the newest real cell of the smallest key
    /// ≥ the gap (tombstones included; caller filters).
    fn step_forward(&mut self) -> Option<Cell> {
        if self.gap == Gap::AtEnd {
            return None;
        }
        self.face(Direction::Forward);
        loop {
            let (cell, r) = self
                .pick(Direction::Forward)
                .filter(|(c, _)| c.key <= self.hi)?;
            if cell.is_redundant() {
                self.consume(r, Direction::Forward);
                continue;
            }
            // The winner is its run's leftmost — newest — cell of the key.
            self.consume_key(cell.key, Direction::Forward);
            self.gap = if cell.key == u64::MAX {
                Gap::AtEnd
            } else {
                Gap::Before(cell.key + 1)
            };
            return Some(cell);
        }
    }

    /// One descending merge step: the newest real cell of the largest key
    /// below the gap.
    fn step_backward(&mut self) -> Option<Cell> {
        self.face(Direction::Backward);
        loop {
            let (mut cell, r) = self
                .pick(Direction::Backward)
                .filter(|(c, _)| c.key >= self.lo)?;
            if cell.is_redundant() {
                self.consume(r, Direction::Backward);
                continue;
            }
            let key = cell.key;
            self.consume_key(key, Direction::Backward);
            // The winner's cached head was its rightmost — oldest — cell
            // of the key; the newest version is the leftmost real one, so
            // walk down to it. The cell that ends the walk is the run's
            // next head.
            let base = self.runs[r].base;
            while self.idx[r] > 0 {
                let c = self.mem.get(base + self.idx[r] - 1);
                if c.key < key {
                    self.heads[r] = Head::Entry(c);
                    break;
                }
                self.idx[r] -= 1;
                if c.is_real() {
                    cell = c;
                }
            }
            self.gap = Gap::Before(key);
            return Some(cell);
        }
    }
}

impl<M: Mem<Cell>> CursorOps for RunMergeCursor<'_, M> {
    fn seek(&mut self, key: u64) {
        // Clamp into the bounds on both sides: seeking past `hi` places
        // the gap after the interval's last entry, so a following prev()
        // still yields only in-bounds entries.
        self.gap = if key > self.hi {
            Gap::AtEnd
        } else {
            Gap::Before(key.max(self.lo))
        };
        self.heads.fill(Head::Unknown);
        self.dir = None;
    }

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            let cell = self.step_forward()?;
            if !cell.is_tombstone() {
                return Some((cell.key, cell.val));
            }
        }
    }

    fn prev(&mut self) -> Option<(u64, u64)> {
        loop {
            let cell = self.step_backward()?;
            if !cell.is_tombstone() {
                return Some((cell.key, cell.val));
            }
        }
    }
}

/// Streaming k-way merge over arbitrary [`CursorOps`] sources.
///
/// The generalization of [`RunMergeCursor`] from level runs of one cell
/// array to any set of cursor engines: each source is itself a bounded,
/// bidirectional cursor (a [`crate::Cursor`] works directly), and the
/// merge yields their union in key order, resolving duplicate keys
/// newest-source-first — source 0 shadows source 1, and so on, mirroring
/// the newest-run-wins rule of the COLA merge.
///
/// Sources already filter their own tombstones and enforce their own
/// bounds, so the merge is purely positional. Each source's head is
/// pulled once and cached until consumed: a scan of `r` entries costs
/// `O(r + k)` source steps in total (not `O(k · r)`), so the losing
/// sources of each step are never re-read — for range-partitioned shards
/// only the one live shard advances. Cached heads are pushed back (the
/// gap contract makes a pull-then-push free) only when the direction
/// flips or a `seek` repositions everything.
///
/// ```
/// use cosbt_core::cursor::MergeCursor;
/// use cosbt_core::{CursorOps, VecCursor};
///
/// // Two disjoint sorted sources (e.g. two shards of a partitioned db).
/// let a = VecCursor::new(vec![(1, 10), (4, 40)]);
/// let b = VecCursor::new(vec![(2, 20), (3, 30)]);
/// let mut m = MergeCursor::new(vec![a, b]);
/// assert_eq!(m.next(), Some((1, 10)));
/// assert_eq!(m.next(), Some((2, 20)));
/// assert_eq!(m.next(), Some((3, 30)));
/// assert_eq!(m.prev(), Some((3, 30)), "gap semantics survive the merge");
/// m.seek(4);
/// assert_eq!(m.next(), Some((4, 40)));
/// ```
#[derive(Debug)]
pub struct MergeCursor<C> {
    sources: Vec<C>,
    /// Per-source head cache, valid for the current `dir`.
    heads: Vec<Head<(u64, u64)>>,
    /// Direction the cached heads were pulled in; `None` after
    /// construction or a seek.
    dir: Option<Direction>,
}

impl<C: CursorOps> MergeCursor<C> {
    /// A merge over `sources`, newest first: on duplicate keys the
    /// lowest-indexed source wins and the others' entries are consumed.
    pub fn new(sources: Vec<C>) -> Self {
        let heads = vec![Head::Unknown; sources.len()];
        MergeCursor {
            sources,
            heads,
            dir: None,
        }
    }

    /// Number of underlying sources.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Re-aligns every source with the merge gap before stepping in
    /// `dir`: cached heads pulled in the *other* direction are pushed
    /// back one step (the gap contract guarantees pull-then-push is a
    /// no-op), then the cache is cleared.
    fn face(&mut self, dir: Direction) {
        if self.dir == Some(dir) {
            return;
        }
        if let Some(old) = self.dir {
            for (i, head) in self.heads.iter_mut().enumerate() {
                if matches!(head, Head::Entry(_)) {
                    match old {
                        Direction::Forward => self.sources[i].prev(),
                        Direction::Backward => self.sources[i].next(),
                    };
                }
                *head = Head::Unknown;
            }
        }
        self.dir = Some(dir);
    }
}

impl<C: CursorOps> MergeCursor<C> {
    /// One merge step in `dir`: fill the head cache (only sources whose
    /// head was consumed by a previous step actually advance), yield the
    /// winning key — smallest ahead of the gap going forward, largest
    /// behind it going backward; ties go to the newest = lowest-indexed
    /// source — and consume equal-key losers as shadowed older versions.
    fn step(&mut self, dir: Direction) -> Option<(u64, u64)> {
        self.face(dir);
        let mut best: Option<(u64, usize)> = None;
        for (i, s) in self.sources.iter_mut().enumerate() {
            if self.heads[i] == Head::Unknown {
                let pulled = match dir {
                    Direction::Forward => s.next(),
                    Direction::Backward => s.prev(),
                };
                self.heads[i] = match pulled {
                    Some(kv) => Head::Entry(kv),
                    None => Head::Exhausted,
                };
            }
            if let Head::Entry((k, _)) = self.heads[i] {
                if best.is_none_or(|(bk, _)| dir.reaches_first(k, bk)) {
                    best = Some((k, i));
                }
            }
        }
        let (best_key, winner) = best?;
        let mut out = None;
        for (i, head) in self.heads.iter_mut().enumerate() {
            if let Head::Entry((k, v)) = *head {
                if k == best_key {
                    if i == winner {
                        out = Some((k, v));
                    }
                    *head = Head::Unknown;
                }
            }
        }
        out
    }
}

impl<C: CursorOps> CursorOps for MergeCursor<C> {
    fn seek(&mut self, key: u64) {
        // Seeking repositions every source outright, so cached heads are
        // simply forgotten — no push-back needed.
        self.heads.fill(Head::Unknown);
        self.dir = None;
        for s in &mut self.sources {
            s.seek(key);
        }
    }

    fn next(&mut self) -> Option<(u64, u64)> {
        self.step(Direction::Forward)
    }

    fn prev(&mut self) -> Option<(u64, u64)> {
        self.step(Direction::Backward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::{build_aux, LevelAux};
    use crate::dict::{Cursor, CursorOps, VecCursor};
    use cosbt_dam::PlainMem;
    use cosbt_testkit::{check_cases, Rng};

    /// Lays runs out in one array and returns (mem, runs).
    fn build(runs: &[Vec<Cell>]) -> (PlainMem<Cell>, Vec<Run<'static>>) {
        let mut mem = PlainMem::new();
        let mut out = Vec::new();
        let mut base = 0usize;
        for run in runs {
            mem.resize(base + run.len(), Cell::default());
            for (i, &c) in run.iter().enumerate() {
                mem.set(base + i, c);
            }
            out.push(Run {
                base,
                len: run.len(),
                aux: None,
            });
            base += run.len();
        }
        (mem, out)
    }

    #[test]
    fn merges_newest_first_and_filters_tombstones() {
        let (mem, runs) = build(&[
            vec![Cell::item(1, 10), Cell::item(5, 50)],
            vec![Cell::item(1, 11), Cell::tombstone(3), Cell::item(5, 51)],
            vec![Cell::item(3, 33), Cell::item(7, 77)],
        ]);
        let mut c = RunMergeCursor::new(&mem, runs.clone(), 0, u64::MAX);
        let mut got = Vec::new();
        while let Some(kv) = CursorOps::next(&mut c) {
            got.push(kv);
        }
        assert_eq!(got, vec![(1, 10), (5, 50), (7, 77)]);

        // Same content backward.
        let mut c = RunMergeCursor::new(&mem, runs, 0, u64::MAX);
        c.seek(u64::MAX);
        let mut back = Vec::new();
        while let Some(kv) = CursorOps::prev(&mut c) {
            back.push(kv);
        }
        back.reverse();
        assert_eq!(back, got);
    }

    #[test]
    fn skips_redundant_cells_both_directions() {
        let (mem, runs) = build(&[
            vec![
                Cell::lookahead(2, 0),
                Cell::item(2, 20),
                Cell::lookahead(4, 1),
                Cell::item(6, 60),
            ],
            vec![Cell::item(4, 40)],
        ]);
        let mut c = RunMergeCursor::new(&mem, runs, 0, u64::MAX);
        assert_eq!(CursorOps::next(&mut c), Some((2, 20)));
        assert_eq!(CursorOps::next(&mut c), Some((4, 40)));
        assert_eq!(CursorOps::prev(&mut c), Some((4, 40)));
        assert_eq!(CursorOps::prev(&mut c), Some((2, 20)));
        assert_eq!(CursorOps::prev(&mut c), None);
    }

    #[test]
    fn bounds_and_seek() {
        let (mem, runs) = build(&[vec![
            Cell::item(10, 1),
            Cell::item(20, 2),
            Cell::item(30, 3),
            Cell::item(40, 4),
        ]]);
        let mut c = Cursor::new(RunMergeCursor::new(&mem, runs, 15, 35));
        assert_eq!(c.next(), Some((20, 2)));
        assert_eq!(c.next(), Some((30, 3)));
        assert_eq!(c.next(), None, "40 is out of bounds");
        assert_eq!(c.prev(), Some((30, 3)));
        c.seek(0);
        assert_eq!(c.next(), Some((20, 2)), "seek clamps to lo");
        assert_eq!(c.prev(), Some((20, 2)));
        assert_eq!(c.prev(), None, "10 is out of bounds");
    }

    #[test]
    fn direction_switches_mid_stream() {
        let (mem, runs) = build(&[
            vec![Cell::item(1, 1), Cell::item(3, 3), Cell::item(5, 5)],
            vec![Cell::item(2, 2), Cell::item(4, 4)],
        ]);
        let mut c = RunMergeCursor::new(&mem, runs, 0, u64::MAX);
        assert_eq!(CursorOps::next(&mut c), Some((1, 1)));
        assert_eq!(CursorOps::next(&mut c), Some((2, 2)));
        assert_eq!(CursorOps::prev(&mut c), Some((2, 2)));
        assert_eq!(CursorOps::prev(&mut c), Some((1, 1)));
        assert_eq!(CursorOps::prev(&mut c), None);
        assert_eq!(CursorOps::next(&mut c), Some((1, 1)));
        assert_eq!(CursorOps::next(&mut c), Some((2, 2)));
        assert_eq!(CursorOps::next(&mut c), Some((3, 3)));
        assert_eq!(CursorOps::next(&mut c), Some((4, 4)));
        assert_eq!(CursorOps::next(&mut c), Some((5, 5)));
        assert_eq!(CursorOps::next(&mut c), None);
    }

    #[test]
    fn seek_past_hi_stays_in_bounds() {
        // Regression: seeking beyond the upper bound must clamp, so a
        // following prev() yields the last in-bounds entry — not a stored
        // key above `hi`.
        let (mem, runs) = build(&[vec![Cell::item(15, 1), Cell::item(25, 2)]]);
        let mut c = RunMergeCursor::new(&mem, runs, 10, 20);
        c.seek(30);
        assert_eq!(CursorOps::next(&mut c), None);
        assert_eq!(
            CursorOps::prev(&mut c),
            Some((15, 1)),
            "25 is out of bounds"
        );
        assert_eq!(CursorOps::prev(&mut c), None);
    }

    #[test]
    fn u64_max_key_terminates() {
        let (mem, runs) = build(&[vec![Cell::item(u64::MAX, 9)]]);
        let mut c = RunMergeCursor::new(&mem, runs, 0, u64::MAX);
        assert_eq!(CursorOps::next(&mut c), Some((u64::MAX, 9)));
        assert_eq!(CursorOps::next(&mut c), None);
        assert_eq!(CursorOps::prev(&mut c), Some((u64::MAX, 9)));
    }

    /// The same runs with each one's cascade aux attached.
    fn with_aux<'a>(runs: &[Run<'_>], auxes: &'a [LevelAux]) -> Vec<Run<'a>> {
        runs.iter()
            .zip(auxes)
            .map(|(run, aux)| Run {
                base: run.base,
                len: run.len,
                aux: Some(aux),
            })
            .collect()
    }

    /// A sorted run of `len` random cells over `0..keys` (the top key
    /// standing in for `u64::MAX`): items, tombstones and lookahead
    /// cells, with duplicates, in random order among equal keys.
    fn random_run(rng: &mut Rng, len: usize, keys: u64) -> Vec<Cell> {
        let mut run: Vec<Cell> = (0..len)
            .map(|i| {
                let key = match rng.below(keys) {
                    k if k == keys - 1 => u64::MAX,
                    k => k,
                };
                match rng.below(10) {
                    0..=5 => Cell::item(key, rng.below(1 << 20)),
                    6..=7 => Cell::tombstone(key),
                    _ => Cell::lookahead(key, i as u64),
                }
            })
            .collect();
        run.sort_by_key(|c| c.key);
        run
    }

    /// What a cursor over `runs` bounded to `[lo, hi]` may yield: every
    /// real cell in bounds sorted by key then run rank (then position),
    /// the first of each key kept, tombstones dropped.
    fn oracle(runs: &[Vec<Cell>], lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut cells: Vec<(u64, usize, usize, Cell)> = Vec::new();
        for (rank, run) in runs.iter().enumerate() {
            for (pos, c) in run.iter().enumerate() {
                if c.is_real() && (lo..=hi).contains(&c.key) {
                    cells.push((c.key, rank, pos, *c));
                }
            }
        }
        cells.sort_by_key(|&(key, rank, pos, _)| (key, rank, pos));
        cells.dedup_by_key(|&mut (key, ..)| key);
        cells
            .iter()
            .filter(|(.., c)| !c.is_tombstone())
            .map(|(.., c)| (c.key, c.val))
            .collect()
    }

    #[test]
    fn run_cursor_matches_materialized_oracle() {
        // Random next/prev/seek interleavings against the oracle, whose
        // cursor is one index into the materialized answer (the gap).
        // Every case runs on the ghost-window seek and on the full binary
        // search; runs are long enough to span several ghost strides.
        check_cases("run-cursor-oracle", 300, |rng| {
            let keys = 2 + rng.below(120);
            let cells: Vec<Vec<Cell>> = (0..rng.index(6))
                .map(|_| {
                    let len = rng.index(90);
                    random_run(rng, len, keys)
                })
                .collect();
            let pick = |rng: &mut Rng| match rng.below(keys + 2) {
                k if k >= keys - 1 => u64::MAX - (k - (keys - 1)),
                k => k,
            };
            let (a, b) = (pick(rng), pick(rng));
            // Mostly a proper interval, sometimes an empty (inverted) one.
            let (lo, hi) = if rng.chance(9, 10) {
                (a.min(b), a.max(b))
            } else {
                (a, b)
            };
            let want = oracle(&cells, lo, hi);
            let ops: Vec<(u64, u64)> = (0..200).map(|_| (rng.below(8), pick(rng))).collect();

            let (mem, plain) = build(&cells);
            let auxes: Vec<LevelAux> = cells.iter().map(|run| build_aux(run.iter())).collect();
            for runs in [with_aux(&plain, &auxes), plain.clone()] {
                let mut cur = RunMergeCursor::new(&mem, runs, lo, hi);
                let mut gap = 0usize;
                for &(op, key) in &ops {
                    match op {
                        0 => {
                            cur.seek(key);
                            gap = if key > hi {
                                want.len()
                            } else {
                                want.partition_point(|&(k, _)| k < key.max(lo))
                            };
                        }
                        1..=4 => {
                            let got = CursorOps::next(&mut cur);
                            assert_eq!(got, want.get(gap).copied(), "next at gap {gap}");
                            gap += got.is_some() as usize;
                        }
                        _ => {
                            let got = CursorOps::prev(&mut cur);
                            let expect = gap.checked_sub(1).map(|g| want[g]);
                            assert_eq!(got, expect, "prev at gap {gap}");
                            gap -= got.is_some() as usize;
                        }
                    }
                }
            }
        });
    }

    /// A [`PlainMem`] that counts `get` calls.
    struct CountingMem {
        inner: PlainMem<Cell>,
        gets: std::cell::Cell<usize>,
    }

    impl Mem<Cell> for CountingMem {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn get(&self, i: usize) -> Cell {
            self.gets.set(self.gets.get() + 1);
            self.inner.get(i)
        }
        fn set(&mut self, i: usize, v: Cell) {
            self.inner.set(i, v)
        }
        fn resize(&mut self, new_len: usize, fill: Cell) {
            self.inner.resize(new_len, fill)
        }
    }

    #[test]
    fn run_cursor_reads_each_cell_in_range_once() {
        // A forward scan of r entries over k runs reads the cells lying
        // between its first and last result once each — the r winners
        // plus the redundant and shadowed cells passed — and a constant
        // per run: at most 5 probes to split a 16-slot ghost window and
        // one head left cached beyond the last result. Re-reading the
        // k heads on every step would cost over 3·k·r.
        let mut rng = Rng::new(0xC057);
        let cells: Vec<Vec<Cell>> = (0..6).map(|_| random_run(&mut rng, 600, 4000)).collect();
        let (inner, plain) = build(&cells);
        let mem = CountingMem {
            inner,
            gets: std::cell::Cell::new(0),
        };
        let auxes: Vec<LevelAux> = cells.iter().map(|run| build_aux(run.iter())).collect();
        let (k, r, from) = (cells.len(), 150usize, 1000u64);

        let mut cur = RunMergeCursor::new(&mem, with_aux(&plain, &auxes), 0, u64::MAX);
        cur.seek(from);
        let got: Vec<(u64, u64)> = (0..r).map_while(|_| CursorOps::next(&mut cur)).collect();
        assert_eq!(got, oracle(&cells, from, u64::MAX)[..r]);
        let last = got[r - 1].0;
        let in_range = cells
            .iter()
            .flatten()
            .filter(|c| (from..=last).contains(&c.key))
            .count();
        assert!(in_range > r, "the scan passes redundant and shadowed cells");
        assert!(
            mem.gets.get() <= in_range + 6 * k,
            "{} gets for {in_range} cells in range over {k} runs",
            mem.gets.get()
        );
    }

    #[test]
    fn merge_cursor_interleaves_disjoint_sources() {
        let a = VecCursor::new(vec![(1, 1), (3, 3), (5, 5)]);
        let b = VecCursor::new(vec![(2, 2), (4, 4)]);
        let mut m = MergeCursor::new(vec![a, b]);
        let mut fwd = Vec::new();
        while let Some(kv) = m.next() {
            fwd.push(kv);
        }
        assert_eq!(fwd, vec![(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]);
        let mut bwd = Vec::new();
        while let Some(kv) = m.prev() {
            bwd.push(kv);
        }
        bwd.reverse();
        assert_eq!(bwd, fwd, "drained merge walks back over its output");
    }

    #[test]
    fn merge_cursor_newest_source_wins_duplicates() {
        let newest = VecCursor::new(vec![(2, 20), (4, 40)]);
        let older = VecCursor::new(vec![(2, 99), (3, 30)]);
        let mut m = MergeCursor::new(vec![newest, older]);
        assert_eq!(m.next(), Some((2, 20)), "source 0 shadows source 1");
        assert_eq!(m.next(), Some((3, 30)));
        assert_eq!(m.next(), Some((4, 40)));
        assert_eq!(m.next(), None);
        // Backward: same resolution.
        assert_eq!(m.prev(), Some((4, 40)));
        assert_eq!(m.prev(), Some((3, 30)));
        assert_eq!(m.prev(), Some((2, 20)));
        assert_eq!(m.prev(), None);
    }

    #[test]
    fn merge_cursor_direction_switches_and_seek() {
        let a = VecCursor::new(vec![(1, 1), (4, 4)]);
        let b = VecCursor::new(vec![(2, 2), (6, 6)]);
        let c = VecCursor::new(vec![(3, 3), (5, 5)]);
        let mut m = MergeCursor::new(vec![a, b, c]);
        assert_eq!(m.next(), Some((1, 1)));
        assert_eq!(m.next(), Some((2, 2)));
        assert_eq!(m.prev(), Some((2, 2)), "next then prev revisits");
        assert_eq!(m.prev(), Some((1, 1)));
        assert_eq!(m.prev(), None);
        m.seek(4);
        assert_eq!(m.next(), Some((4, 4)));
        assert_eq!(m.next(), Some((5, 5)));
        assert_eq!(m.prev(), Some((5, 5)));
        m.seek(0);
        assert_eq!(m.next(), Some((1, 1)));
    }

    #[test]
    fn merge_cursor_over_boxed_cursors() {
        // The heterogeneous case: type-erased Cursor sources, one a COLA
        // run merge, one a plain vector snapshot.
        let (mem, runs) = build(&[vec![Cell::item(10, 1), Cell::item(30, 3)]]);
        let run_cursor = Cursor::new(RunMergeCursor::new(&mem, runs, 0, u64::MAX));
        let vec_cursor = Cursor::new(VecCursor::new(vec![(20, 2), (40, 4)]));
        let mut m = Cursor::new(MergeCursor::new(vec![run_cursor, vec_cursor]));
        assert_eq!(m.next(), Some((10, 1)));
        assert_eq!(m.next(), Some((20, 2)));
        assert_eq!(m.next(), Some((30, 3)));
        assert_eq!(m.next(), Some((40, 4)));
        assert_eq!(m.next(), None);
        assert_eq!(m.prev(), Some((40, 4)));
    }

    /// A [`VecCursor`] that counts how many times the merge steps it.
    struct CountingCursor {
        inner: VecCursor,
        steps: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl CursorOps for CountingCursor {
        fn seek(&mut self, key: u64) {
            self.inner.seek(key)
        }
        fn next(&mut self) -> Option<(u64, u64)> {
            self.steps.set(self.steps.get() + 1);
            self.inner.next()
        }
        fn prev(&mut self) -> Option<(u64, u64)> {
            self.steps.set(self.steps.get() + 1);
            self.inner.prev()
        }
    }

    #[test]
    fn merge_cursor_does_not_repull_losing_sources() {
        // Four disjoint sources (the sharded-scan shape): a full scan of
        // r entries must cost O(r + k) source steps — each entry pulled
        // once plus one exhausted probe per source — not O(k · r) from
        // re-pulling and pushing back the losers every step.
        let steps = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let sources: Vec<CountingCursor> = (0..4u64)
            .map(|s| CountingCursor {
                inner: VecCursor::new((0..100).map(|i| (s * 100 + i, i)).collect()),
                steps: steps.clone(),
            })
            .collect();
        let mut m = MergeCursor::new(sources);
        let mut yielded = 0;
        while m.next().is_some() {
            yielded += 1;
        }
        assert_eq!(yielded, 400);
        assert!(
            steps.get() <= 400 + 2 * 4,
            "a cached merge pulls each entry once (got {} steps for 400 entries)",
            steps.get()
        );
    }

    #[test]
    fn merge_cursor_empty_and_single_source() {
        let mut empty: MergeCursor<VecCursor> = MergeCursor::new(vec![]);
        assert_eq!(empty.next(), None);
        assert_eq!(empty.prev(), None);

        let mut one = MergeCursor::new(vec![VecCursor::new(vec![(7, 70)])]);
        assert_eq!(one.num_sources(), 1);
        assert_eq!(one.next(), Some((7, 70)));
        assert_eq!(one.next(), None);
        assert_eq!(one.prev(), Some((7, 70)));
    }
}

//! The streaming k-way merge cursor of the COLA family.
//!
//! [`RunMergeCursor`] is the cell-level engine. Every COLA variant
//! stores its data as a small set of sorted, contiguous runs of
//! [`Cell`]s in one flat [`Mem`] array (levels, or a level's two extents
//! under the deamortized COLA's policy), ordered newest-first both
//! across runs and — among equal keys — within a run. The cursor walks
//! those runs directly, the way the paper's lookahead array answers a
//! range query. A seek brackets each run's position with the run's
//! DRAM ghost sample ([`Run::lower_bound`]) and binary-searches only
//! those two strides: `O(1)` cell reads and `O(1)` block transfers per
//! run; a run whose fences put no real key inside the bounds (a level
//! holding only lookahead cells) is left out altogether. Each
//! remaining run's head cell is then read once and cached until the
//! merge consumes it, beside the run's *rank*: the head's key as the
//! direction orders it, then the run's index. A step takes the least
//! rank — the head furthest along, and of equal keys the newest run's —
//! consumes only the runs whose head carries that key, and loads them
//! at the next step, in ascending run order. The ranks wait in one
//! array, least last; the run a step took its cell from goes back into
//! it only if another run's head now ranks below its own, so a streak
//! from one run costs each step one load and one compare, however many
//! runs are open. A scan of `r` results over `k` runs costs `O(k + r)`
//! cell reads — `r`, plus the redundant and shadowed cells lying
//! between the results, plus a constant per run — and `O(k + r/B)`
//! block transfers, instead of materializing every overlapping cell up
//! front. The run list and the per-run state live in the structure's
//! scratch (`RunBuf`) between scans, so opening a cursor allocates
//! nothing. Store *calls* — each a lock and a residency lookup on the
//! file store — are fewer than cell reads where the store can be
//! peeked ([`Mem::peek_run`]): after a head's charged `get` the cursor
//! copies the rest of the head's page into a window, steps through the
//! window, and pays for the cells it took with one `read_run` per
//! stretch, in the order it took them, before it calls the store for
//! anything else. Each seek probe and backward step is a call; forward,
//! a streak of `s` cells from one run is `O(1 + log s + s/B)` calls,
//! and the cells charged, their order and every counter of the store
//! are those of one `get` per cell. The two newest runs may live in
//! DRAM instead ([`RunMergeCursor::with_head`]): the g-COLA's head, its
//! front (levels 0 and 1's items) and its back (the items of the levels
//! up to `h`), merged as runs 0 and 1, read directly and never charged
//! to the store.
//!
//! The cursor has no counterpart for arbitrary sources: the shards of a
//! range-partitioned database hold disjoint key ranges, so their cursors
//! are chained end to end (`cosbt::shard`), and the heap runs of a
//! snapshot epoch have their own walk ([`crate::epoch::SnapshotCursor`]).
//!
//! Duplicate resolution matches point lookups exactly: the newest run
//! (lowest index) containing a key supplies its value, tombstones
//! suppress the key, and redundant (lookahead) cells are passed over in
//! key order and never output, since they are routing metadata, not
//! data.

use cosbt_dam::Mem;

use crate::dict::CursorOps;
use crate::entry::Cell;
pub use crate::run::Run;
use crate::runbuf::RunBuf;

/// The gap position of the cursor (see [`CursorOps`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gap {
    /// Before the first live key ≥ this bound.
    Before(u64),
    /// Past the end of the interval.
    AtEnd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Backward,
}

impl Direction {
    /// The rank of run `r`'s head with key `key` when stepping this way:
    /// the key in the high half, complemented going backward so that the
    /// least rank is always the head furthest along, and the run in the
    /// low half, so that of equal keys the newest run's ranks least.
    #[inline]
    fn rank(self, key: u64, r: usize) -> u128 {
        let key = match self {
            Direction::Forward => key,
            Direction::Backward => !key,
        };
        (key as u128) << 64 | r as u128
    }
}

/// Where the merge stands in one run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// The cached head, the cell at `idx` going forward, at `idx - 1`
    /// going backward — real or redundant. Valid from the load that read
    /// it until a step consumes it.
    head: Cell,
    /// Split index. Once positioned (`dir` is `Some`), the real cells
    /// below `idx` have key < gap and those at or above it have key ≥
    /// gap, with one exception: a step that consumes a run's head leaves
    /// the run's other cells of that key on the side they were on. They
    /// are older versions of the key just emitted: a load in the same
    /// direction skips them, and the first step in the other direction
    /// re-emits that key, which moves the gap to their side. Redundant
    /// cells the merge has passed may sit on either side.
    idx: usize,
}

impl Slot {
    /// Before the first step: not positioned, nothing cached.
    const START: Slot = Slot {
        head: Cell {
            key: 0,
            val: 0,
            ptr: 0,
            meta: 0,
        },
        idx: 0,
    };
}

/// One run's window: cells `start..start + len` of the run, peeked from
/// a head the cursor had just read with a charged `get` to the end of
/// the head's page at most. Run `r`'s window sits at `(r − dram) · cap`
/// in the lent cells ([`RunBuf::cap`], [`RunBuf::dram`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Window {
    start: usize,
    len: usize,
    /// Cells the next peek asks for, capped at `cap`: 0 until the run
    /// has given a head, then [`FIRST_FILL`], doubling. A run that gives
    /// a scan one cell costs it one store call, as it did before there
    /// were windows.
    fill: usize,
}

/// `count` cells of run `run` from index `first` on: loaded from the
/// run's window, one after the other, and owed to the store.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    run: usize,
    first: usize,
    count: usize,
}

const FIRST_FILL: usize = 4;

/// Segments the log holds before it is settled early. Settling early is
/// always allowed — the charges still arrive in load order — and a scan
/// that alternates between runs cell by cell makes a segment per cell.
pub(crate) const MAX_SEGMENTS: usize = 32;

/// Charges the store for every window cell loaded since the last call,
/// in load order: one `read_run` per segment, which is what the same
/// cells read by `get` cost (a window never crosses a page end). The
/// cells are read over their own window copy, which they equal.
fn settle<M: Mem<Cell>>(mem: &M, runs: &[Run], scratch: &mut RunBuf) {
    for seg in scratch.log.drain(..) {
        let at =
            (seg.run - scratch.dram) * scratch.cap + (seg.first - scratch.windows[seg.run].start);
        let out = &mut scratch.cells[at..at + seg.count];
        mem.read_run(runs[seg.run].base + seg.first, out);
    }
}

/// Streaming merge cursor over [`Run`]s of one [`Mem`] array.
#[derive(Debug)]
pub struct RunMergeCursor<'a, M: Mem<Cell>> {
    mem: &'a M,
    /// The runs that can yield an entry, newest first.
    runs: Vec<Run<'a>>,
    /// One per run: its cached head and split index.
    slots: Vec<Slot>,
    /// The rank ([`Direction::rank`]) of every run with a head cached,
    /// greatest first: the next step's winner is last, and the runs
    /// carrying its key right before it.
    ranks: Vec<u128>,
    /// The run the last step took its cell from, owed a load. The next
    /// step loads it first, and if its new head ranks below every other,
    /// takes it without putting it in `ranks`: a streak costs one load
    /// and one compare a step.
    won: Option<usize>,
    /// The other runs owed a load, ascending and after `won`: every run
    /// before the first step of a direction, then those whose shadowed
    /// versions a step consumed. A run with nothing left in the direction
    /// is in none of the lists.
    owed: Vec<usize>,
    lo: u64,
    hi: u64,
    gap: Gap,
    /// Direction the ranks and heads were loaded in; `None` after
    /// construction or a seek, until the next step positions the runs.
    dir: Option<Direction>,
    /// The structure's scratch, if it lent one: the cursor's lists go
    /// back to it when the cursor is dropped, and over a store that
    /// peeks it holds the windows, their cells and the log of what is
    /// owed for them.
    scratch: Option<&'a mut RunBuf>,
    /// The cells of the runs `0..ndram` that live in DRAM — the g-COLA's
    /// head, front then back — rather than in `mem`: read for free, never
    /// charged to the store, given no window.
    dram: [&'a [Cell]; 2],
    /// How many of the runs are in DRAM: 0, 1 or 2.
    ndram: usize,
}

/// A cursor's run list, slots, ranks and owed loads: what it takes from
/// the structure's scratch when it opens and gives back when it is
/// dropped, so that the next open reuses their buffers.
pub(crate) type Lists = (Vec<Run<'static>>, Vec<Slot>, Vec<u128>, Vec<usize>);

impl<'a, M: Mem<Cell>> RunMergeCursor<'a, M> {
    /// A cursor over `runs` (newest first) bounded to `[lo, hi]`.
    ///
    /// While it lives the cursor must be the only user of `mem`: it may
    /// run up a debt of uncharged reads (the peek rule of
    /// [`Mem::peek_run`]) that it pays before its next charged call and
    /// when it is dropped, and the store's counters match the per-cell
    /// path's only if nothing else touches the store in between. A
    /// cursor opened through [`crate::Dictionary::cursor`] has that for
    /// free: it borrows the structure mutably.
    pub fn new(mem: &'a M, runs: impl IntoIterator<Item = Run<'a>>, lo: u64, hi: u64) -> Self {
        Self::with_head(mem, [&[], &[]], runs, lo, hi)
    }

    /// [`RunMergeCursor::new`] with `head` — two runs, newest first, each
    /// sorted with one real cell per key, both newer than every run in
    /// the store — merged in as the two newest runs. Their cells are in
    /// DRAM: the cursor reads them directly, charges the store nothing
    /// for them and gives them no window.
    pub fn with_head(
        mem: &'a M,
        head: [&'a [Cell]; 2],
        runs: impl IntoIterator<Item = Run<'a>>,
        lo: u64,
        hi: u64,
    ) -> Self {
        Self::open(mem, head, runs, (lo, hi), Lists::default())
    }

    /// [`RunMergeCursor::with_head`] over the structure's scratch: the
    /// cursor's lists are the scratch's, which it gives back when it is
    /// dropped, so the open allocates nothing; and the cursor keeps its
    /// windows there if the store peeks ([`RunMergeCursor::windowed`]).
    pub(crate) fn lent(
        mem: &'a M,
        head: [&'a [Cell]; 2],
        runs: impl IntoIterator<Item = Run<'a>>,
        (lo, hi): (u64, u64),
        scratch: &'a mut RunBuf,
    ) -> Self {
        let lists = std::mem::take(&mut scratch.lists);
        Self::open(mem, head, runs, (lo, hi), lists).windowed(scratch)
    }

    /// The cursor over the runs that can yield an entry, kept in `lists`.
    fn open(
        mem: &'a M,
        head: [&'a [Cell]; 2],
        runs: impl IntoIterator<Item = Run<'a>>,
        (lo, hi): (u64, u64),
        (list, mut slots, ranks, owed): Lists,
    ) -> Self {
        // A run that can yield nothing is left out rather than merged in
        // and out: an empty one, and one whose fences put no real key
        // inside the bounds (a level holding only lookahead cells has
        // inverted fences). The head's runs that can ride first, each a
        // placeholder whose cells `dram` holds.
        let mut list: Vec<Run<'a>> = list;
        list.clear();
        let (mut dram, mut ndram): ([&'a [Cell]; 2], usize) = ([&[], &[]], 0);
        for cells in head {
            if let (Some(first), Some(last)) = (cells.first(), cells.last()) {
                if first.key <= hi && last.key >= lo {
                    dram[ndram] = cells;
                    ndram += 1;
                    list.push(Run {
                        base: 0,
                        len: cells.len(),
                        aux: None,
                    });
                }
            }
        }
        list.extend(runs.into_iter().filter(|run| {
            run.len > 0
                && run.sample().is_none_or(|aux| {
                    aux.fence_min <= aux.fence_max && aux.fence_min <= hi && aux.fence_max >= lo
                })
        }));
        slots.clear();
        slots.resize(list.len(), Slot::START);
        RunMergeCursor {
            mem,
            runs: list,
            slots,
            ranks,
            won: None,
            owed,
            lo,
            hi,
            gap: Gap::Before(lo),
            dir: None,
            scratch: None,
            dram,
            ndram,
        }
    }

    /// Whether run `r` is one of the runs in DRAM.
    #[inline]
    fn in_dram(&self, r: usize) -> bool {
        r < self.ndram
    }

    /// Cell `i` of run `r`: from DRAM, or a charged `get`.
    #[inline]
    fn cell(&self, r: usize, i: usize) -> Cell {
        match self.in_dram(r) {
            true => self.dram[r][i],
            false => self.mem.get(self.runs[r].base + i),
        }
    }

    /// Lends the cursor the structure's scratch, which takes back the
    /// cursor's lists when it is dropped, and which holds the cursor's
    /// windows if the store peeks. Without one every load is a charged
    /// `get`. The runs in the store share the cells; a run in DRAM takes
    /// none.
    pub(crate) fn windowed(mut self, scratch: &'a mut RunBuf) -> Self {
        scratch.log.clear();
        if self.mem.peeks() {
            scratch.dram = self.ndram;
            let k = self.runs.len() - scratch.dram;
            scratch.cap = scratch.cells.len().checked_div(k).unwrap_or(0);
            scratch.windows.clear();
            scratch.windows.resize(self.runs.len(), Window::default());
        }
        self.scratch = Some(scratch);
        self
    }

    /// Pays what the cursor owes the store (see [`settle`]). Due before
    /// every charged call.
    fn settle(&mut self) {
        if let Some(scratch) = self.scratch.as_deref_mut() {
            settle(self.mem, &self.runs, scratch);
        }
    }

    /// Cell `i` of run `r`, for a forward load from a store that peeks.
    /// Inside run `r`'s window it is the peeked copy, logged as owed.
    /// Otherwise it is a charged `get`, and the page that leaves
    /// resident is peeked from that cell on into the window, for the
    /// loads to come.
    fn read_windowed(&mut self, r: usize, i: usize) -> Cell {
        let run = self.runs[r];
        let Some(scratch) = self.scratch.as_deref_mut() else {
            return self.mem.get(run.base + i);
        };
        let (w, at) = (scratch.windows[r], (r - scratch.dram) * scratch.cap);
        if i.wrapping_sub(w.start) < w.len {
            match scratch.log.last_mut() {
                Some(seg) if seg.run == r && seg.first + seg.count == i => seg.count += 1,
                _ => {
                    if scratch.log.len() == MAX_SEGMENTS {
                        settle(self.mem, &self.runs, scratch);
                    }
                    scratch.log.push(Segment {
                        run: r,
                        first: i,
                        count: 1,
                    });
                }
            }
            return scratch.cells[at + (i - w.start)];
        }
        settle(self.mem, &self.runs, scratch);
        let cell = self.mem.get(run.base + i);
        let want = w.fill.min(scratch.cap).min(run.len - i);
        let len = match want {
            0 | 1 => 0,
            _ => self
                .mem
                .peek_run(run.base + i, &mut scratch.cells[at..at + want]),
        };
        scratch.windows[r] = Window {
            start: i,
            len,
            fill: (2 * w.fill).min(scratch.cap).max(FIRST_FILL),
        };
        cell
    }

    /// Keys below this lie before the gap.
    #[inline]
    fn gap_bound(&self) -> u128 {
        match self.gap {
            Gap::Before(g) => g as u128,
            Gap::AtEnd => self.hi as u128 + 1,
        }
    }

    /// First index in run `r` whose cell is not below the gap.
    fn split(&self, r: usize) -> usize {
        let run = self.runs[r];
        match self.gap {
            _ if self.in_dram(r) => {
                let bound = self.gap_bound();
                self.dram[r].partition_point(|c| (c.key as u128) < bound)
            }
            Gap::Before(g) => run.lower_bound(self.mem, g),
            Gap::AtEnd => run.upper_bound(self.mem, self.hi),
        }
    }

    /// Loads run `r`'s head in `dir` and returns its rank: the next cell
    /// on that side of its split index, moving the index past what is
    /// left of the last emitted key's cells (shadowed older versions),
    /// which lie on the far side of `bound` ([`RunMergeCursor::gap_bound`]).
    /// `None` if the run has nothing left in `dir`. The head may be a
    /// redundant cell; the merge passes it in key order without emitting
    /// it.
    #[inline(always)]
    fn load(&mut self, r: usize, dir: Direction, bound: u128) -> Option<u128> {
        let (run, dram) = (self.runs[r], self.in_dram(r));
        let mut i = self.slots[r].idx;
        let mut head = None;
        match dir {
            Direction::Forward => {
                // Over a store that peeks nothing this is decided at
                // compile time: the loop it was before windows. The runs in
                // DRAM take no window.
                let windowed = self.mem.peeks() && !dram;
                while i < run.len {
                    let c = match (windowed, dram) {
                        (true, _) => self.read_windowed(r, i),
                        (false, true) => self.dram[r][i],
                        (false, false) => self.mem.get(run.base + i),
                    };
                    if c.key as u128 >= bound {
                        head = Some(c);
                        break;
                    }
                    i += 1;
                }
            }
            Direction::Backward => {
                while i > 0 {
                    let c = self.cell(r, i - 1);
                    if (c.key as u128) < bound {
                        head = Some(c);
                        break;
                    }
                    i -= 1;
                }
            }
        }
        self.slots[r].idx = i;
        let c = head?;
        self.slots[r].head = c;
        Some(dir.rank(c.key, r))
    }

    /// Puts a run's rank in its place in the rank array, searched from
    /// the least end: a run that gives a scan a streak goes back where
    /// it was, last, for one compare.
    #[inline]
    fn place(&mut self, rank: u128) {
        let mut at = self.ranks.len();
        while at > 0 && self.ranks[at - 1] < rank {
            at -= 1;
        }
        self.ranks.insert(at, rank);
    }

    /// Positions every run at the gap after a seek, and drops the heads
    /// cached for the other direction before stepping in `dir` (their
    /// cells stay where `idx` has them; nothing is re-read): every run
    /// is owed a load.
    #[inline]
    fn face(&mut self, dir: Direction) {
        if self.dir != Some(dir) {
            self.turn(dir);
        }
    }

    /// [`RunMergeCursor::face`] when the cursor is not facing `dir`: once
    /// a scan, so kept out of the step's loop.
    #[cold]
    #[inline(never)]
    fn turn(&mut self, dir: Direction) {
        // A seek's bisects and every backward read are charged calls.
        self.settle();
        if self.dir.is_none() {
            for r in 0..self.runs.len() {
                self.slots[r].idx = self.split(r);
            }
        }
        self.ranks.clear();
        self.owed.clear();
        self.owed.extend(0..self.runs.len());
        (self.won, self.dir) = (None, Some(dir));
    }

    /// Moves run `r`'s split index over its cached head, whose rank the
    /// caller took off the rank array.
    #[inline]
    fn consume(&mut self, r: usize, dir: Direction) {
        let slot = &mut self.slots[r];
        match dir {
            Direction::Forward => slot.idx += 1,
            Direction::Backward => slot.idx -= 1,
        }
    }

    /// One merge step in `dir`: loads the heads the last step consumed,
    /// in ascending run order, and takes the least rank — the head
    /// furthest along, of equal keys the newest run's, so a redundant
    /// cell there is passed before any older run's version of the key is
    /// considered. Returns the newest real cell of the next key in bounds
    /// (tombstones included; callers filter) and its run, having consumed
    /// every head that carries the key: the winner's and, ranked right
    /// before it, the older runs' shadowed versions. Inlined into each
    /// direction's step, where `dir` is a constant.
    #[inline(always)]
    fn step(&mut self, dir: Direction) -> Option<(Cell, usize)> {
        self.face(dir);
        let bound = self.gap_bound();
        loop {
            let mut best = None;
            if let Some(r) = self.won.take() {
                match self.load(r, dir, bound) {
                    Some(rank)
                        if self.owed.is_empty()
                            && self.ranks.last().is_none_or(|&least| rank < least) =>
                    {
                        best = Some(rank)
                    }
                    Some(rank) => self.place(rank),
                    None => {}
                }
            }
            for o in 0..self.owed.len() {
                if let Some(rank) = self.load(self.owed[o], dir, bound) {
                    self.place(rank);
                }
            }
            self.owed.clear();
            let best = match best {
                Some(rank) => rank,
                None => self.ranks.pop()?,
            };
            let r = best as u64 as usize;
            let cell = self.slots[r].head;
            let in_bounds = match dir {
                Direction::Forward => cell.key <= self.hi,
                Direction::Backward => cell.key >= self.lo,
            };
            if !in_bounds {
                self.ranks.push(best);
                return None;
            }
            self.consume(r, dir);
            self.won = Some(r);
            if cell.is_redundant() {
                continue;
            }
            while let Some(&rank) = self.ranks.last() {
                if rank >> 64 != best >> 64 {
                    break;
                }
                self.ranks.pop();
                self.consume(rank as u64 as usize, dir);
                self.owed.push(rank as u64 as usize);
            }
            return Some((cell, r));
        }
    }

    /// One ascending merge step: the newest real cell of the smallest key
    /// ≥ the gap (tombstones included; caller filters). The winner's head
    /// is its run's leftmost — newest — cell of the key.
    fn step_forward(&mut self) -> Option<Cell> {
        if self.gap == Gap::AtEnd {
            return None;
        }
        let (cell, _) = self.step(Direction::Forward)?;
        self.gap = if cell.key == u64::MAX {
            Gap::AtEnd
        } else {
            Gap::Before(cell.key + 1)
        };
        Some(cell)
    }

    /// One descending merge step: the newest real cell of the largest key
    /// below the gap.
    fn step_backward(&mut self) -> Option<Cell> {
        let dir = Direction::Backward;
        let (mut cell, r) = self.step(dir)?;
        let key = cell.key;
        // The winner's cached head was its rightmost — oldest — cell of
        // the key; the newest version is the leftmost real one, so walk
        // down to it. The cell that ends the walk is the run's next head,
        // no longer owed.
        let mut i = self.slots[r].idx;
        while i > 0 {
            let c = self.cell(r, i - 1);
            if c.key < key {
                self.slots[r].head = c;
                self.won = None;
                self.place(dir.rank(c.key, r));
                break;
            }
            i -= 1;
            if c.is_real() {
                cell = c;
            }
        }
        self.slots[r].idx = i;
        self.gap = Gap::Before(key);
        Some(cell)
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
        // The next step positions every run afresh.
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

impl<M: Mem<Cell>> Drop for RunMergeCursor<'_, M> {
    fn drop(&mut self) {
        let Some(scratch) = self.scratch.take() else {
            return;
        };
        // What the scan used it owes, however it ended. Not while a
        // panic unwinds: a store call may panic itself.
        if !std::thread::panicking() {
            settle(self.mem, &self.runs, scratch);
        }
        // The lists go back for the next open. The run list is emptied
        // of its borrowed runs first: collecting an empty `Vec` into one
        // of a type of the same size keeps its buffer.
        let mut runs = std::mem::take(&mut self.runs);
        runs.clear();
        scratch.lists = (
            runs.into_iter().map(Run::bare).collect(),
            std::mem::take(&mut self.slots),
            std::mem::take(&mut self.ranks),
            std::mem::take(&mut self.owed),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::{build_aux, LevelAux};
    use crate::dict::{Cursor, CursorOps};
    use cosbt_dam::PlainMem;
    use cosbt_testkit::{check_cases, Rng};
    use std::cell::RefCell;

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

    /// A paged store in miniature: `per_page` cells a page, `frames`
    /// resident pages under LRU, [`Mem::peek_run`] answered the way the
    /// file store answers it. It keeps what a store's counters are made
    /// of — every cell charged, in charge order — and counts the calls
    /// that would each take the file store's lock, peeks included.
    struct PagedMem {
        inner: PlainMem<Cell>,
        per_page: usize,
        frames: usize,
        /// Resident pages, most recently used first.
        resident: RefCell<Vec<usize>>,
        charged: RefCell<Vec<usize>>,
        calls: std::cell::Cell<usize>,
    }

    impl PagedMem {
        fn new(inner: PlainMem<Cell>, per_page: usize, frames: usize) -> PagedMem {
            PagedMem {
                inner,
                per_page,
                frames,
                resident: RefCell::default(),
                charged: RefCell::default(),
                calls: std::cell::Cell::new(0),
            }
        }

        fn charge(&self, i: usize) {
            self.charged.borrow_mut().push(i);
            let mut resident = self.resident.borrow_mut();
            resident.retain(|&p| p != i / self.per_page);
            resident.insert(0, i / self.per_page);
            resident.truncate(self.frames);
        }
    }

    impl Mem<Cell> for PagedMem {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn get(&self, i: usize) -> Cell {
            self.calls.set(self.calls.get() + 1);
            self.charge(i);
            self.inner.get(i)
        }
        fn set(&mut self, i: usize, v: Cell) {
            self.inner.set(i, v)
        }
        fn resize(&mut self, new_len: usize, fill: Cell) {
            self.inner.resize(new_len, fill)
        }
        fn read_run(&self, start: usize, out: &mut [Cell]) {
            self.calls.set(self.calls.get() + 1);
            (start..start + out.len()).for_each(|i| self.charge(i));
            self.inner.read_run(start, out);
        }
        fn peek_run(&self, start: usize, out: &mut [Cell]) -> usize {
            self.calls.set(self.calls.get() + 1);
            if start >= self.len() || !self.resident.borrow().contains(&(start / self.per_page)) {
                return 0;
            }
            let n = out
                .len()
                .min(self.per_page - start % self.per_page)
                .min(self.len() - start);
            self.inner.read_run(start, &mut out[..n]);
            n
        }
        fn peeks(&self) -> bool {
            true
        }
    }

    #[test]
    fn run_cursor_matches_materialized_oracle() {
        // Random next/prev/seek interleavings against the oracle, whose
        // cursor is one index into the materialized answer (the gap).
        // Every case runs on the ghost-window seek and on the full binary
        // search; runs are long enough to span several ghost strides.
        // And every case runs per cell and through peeked windows, over
        // pages short enough and caches small enough that windows end
        // early and their pages are evicted before they are settled: the
        // two must answer alike and charge the store the same cells in
        // the same order, the windowed cursor never ahead of the other.
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
            let (per_page, frames) = (1 + rng.index(40), 1 + rng.index(4));

            let (inner, plain) = build(&cells);
            let auxes: Vec<LevelAux> = cells.iter().map(|run| build_aux(run)).collect();
            for runs in [with_aux(&plain, &auxes), plain.clone()] {
                let per_cell = PagedMem::new(inner.clone(), per_page, frames);
                let windowed = PagedMem::new(inner.clone(), per_page, frames);
                let mut scratch = RunBuf::new();
                let mut reference = RunMergeCursor::new(&per_cell, runs.clone(), lo, hi);
                let mut cur = RunMergeCursor::new(&windowed, runs, lo, hi).windowed(&mut scratch);
                let mut gap = 0usize;
                for &(op, key) in &ops {
                    match op {
                        0 => {
                            cur.seek(key);
                            reference.seek(key);
                            gap = if key > hi {
                                want.len()
                            } else {
                                want.partition_point(|&(k, _)| k < key.max(lo))
                            };
                        }
                        1..=4 => {
                            let got = CursorOps::next(&mut cur);
                            assert_eq!(got, want.get(gap).copied(), "next at gap {gap}");
                            assert_eq!(got, CursorOps::next(&mut reference));
                            gap += got.is_some() as usize;
                        }
                        _ => {
                            let got = CursorOps::prev(&mut cur);
                            let expect = gap.checked_sub(1).map(|g| want[g]);
                            assert_eq!(got, expect, "prev at gap {gap}");
                            assert_eq!(got, CursorOps::prev(&mut reference));
                            gap -= got.is_some() as usize;
                        }
                    }
                    let (owed, paid) = (per_cell.charged.borrow(), windowed.charged.borrow());
                    assert_eq!(owed[..paid.len()], paid[..], "charged out of order");
                }
                drop((cur, reference));
                assert_eq!(per_cell.charged, windowed.charged, "left unpaid at drop");
                assert_eq!(per_cell.resident, windowed.resident);
            }
        });
    }

    /// One cursor op: `Some(key)` seeks, `None` steps (`true` forward).
    type Op = (Option<u64>, bool);

    /// Runs `ops` on a cursor over a store that peeks and one over a store
    /// that is read per cell, checking both against `want` (the oracle's
    /// answer for `[lo, hi]`) and the charges of the first against the
    /// second's, in order, after every op and at drop.
    fn drive(
        want: &[(u64, u64)],
        (lo, hi): (u64, u64),
        ops: &[Op],
        mut cur: RunMergeCursor<PagedMem>,
        mut reference: RunMergeCursor<PagedMem>,
        (windowed, per_cell): (&PagedMem, &PagedMem),
    ) {
        let mut gap = 0usize;
        for (at, &op) in ops.iter().enumerate() {
            match op {
                (Some(key), _) => {
                    cur.seek(key);
                    reference.seek(key);
                    gap = if key > hi {
                        want.len()
                    } else {
                        want.partition_point(|&(k, _)| k < key.max(lo))
                    };
                }
                (None, true) => {
                    let got = CursorOps::next(&mut cur);
                    assert_eq!(got, want.get(gap).copied(), "next at gap {gap}, op {at}");
                    assert_eq!(got, CursorOps::next(&mut reference));
                    gap += got.is_some() as usize;
                }
                (None, false) => {
                    let got = CursorOps::prev(&mut cur);
                    let expect = gap.checked_sub(1).map(|g| want[g]);
                    assert_eq!(got, expect, "prev at gap {gap}, op {at}");
                    assert_eq!(got, CursorOps::prev(&mut reference));
                    gap -= got.is_some() as usize;
                }
            }
            let (owed, paid) = (per_cell.charged.borrow(), windowed.charged.borrow());
            assert_eq!(owed[..paid.len()], paid[..], "charged out of order");
        }
        drop((cur, reference));
        assert_eq!(per_cell.charged, windowed.charged, "left unpaid at drop");
        assert_eq!(per_cell.resident, windowed.resident);
    }

    #[test]
    fn run_cursor_rank_order_edge_cases() {
        // Up to 12 runs in the store and a head of two runs in DRAM
        // ranked before them, each holding one shared key; keys 0 and
        // u64::MAX; tombstones in the head and the newest run; runs that
        // begin and end with lookahead cells. Each case turns at both ends of the
        // interval and seeks before `lo` and past `hi`, then steps at
        // random, over the structure's lent scratch (reused from case to
        // case, as a structure reuses it) and over a cursor's own lists.
        let mut scratch = RunBuf::new();
        check_cases("run-cursor-rank-order", 200, |rng| {
            let keys = 2 + rng.below(60);
            let shared = rng.below(keys);
            let mut cells: Vec<Vec<Cell>> = (0..1 + rng.index(12))
                .map(|_| {
                    let len = rng.index(40);
                    let mut run = random_run(rng, len, keys);
                    run.push(Cell::item(shared, rng.below(1 << 20)));
                    if rng.flag() {
                        run.push(Cell::item(0, rng.below(1 << 20)));
                        run.push(Cell::item(u64::MAX, rng.below(1 << 20)));
                    }
                    run.sort_by_key(|c| c.key);
                    if rng.flag() {
                        let (first, last) = (run[0].key, run[run.len() - 1].key);
                        run.insert(0, Cell::lookahead(first, 0));
                        run.push(Cell::lookahead(last, 1));
                    }
                    run
                })
                .collect();
            for c in cells[0].iter_mut().filter(|c| c.is_real()) {
                if rng.chance(1, 2) {
                    *c = Cell::tombstone(c.key);
                }
            }
            // The head's front and back: each one real cell per key, a
            // tombstone for some, the front's newer where both hold a key.
            let mut tier = || {
                let mut run: Vec<Cell> = (0..rng.index(8))
                    .map(|_| match rng.below(4) {
                        0 => Cell::tombstone(rng.below(keys)),
                        _ => Cell::item(rng.below(keys), rng.below(1 << 20)),
                    })
                    .chain([Cell::item(shared, 7)])
                    .collect();
                run.sort_by_key(|c| c.key);
                run.dedup_by_key(|c| c.key);
                if rng.flag() {
                    run
                } else {
                    Vec::new()
                }
            };
            let (front, back) = (tier(), tier());
            let head = [&front[..], &back[..]];

            let (a, b) = (rng.below(keys + 1), rng.below(keys + 1));
            let (lo, hi) = match rng.below(4) {
                0 => (0, u64::MAX),
                _ => (a.min(b), a.max(b)),
            };
            let with_head: Vec<Vec<Cell>> = [front.clone(), back.clone()]
                .into_iter()
                .chain(cells.clone())
                .collect();
            let want = oracle(&with_head, lo, hi);
            let n = want.len() + 2;
            // Before `lo`, back at the start, through to the end and back,
            // past `hi` and back, then at random.
            let mut ops: Vec<Op> = vec![(Some(lo.saturating_sub(1 + rng.below(3))), true)];
            ops.extend([(None, false), (None, true), (None, false), (None, false)]);
            ops.extend((0..n).map(|_| (None, true)));
            ops.extend([(None, false), (None, true), (None, false)]);
            ops.push((Some(hi.saturating_add(1 + rng.below(3))), true));
            ops.extend([(None, true), (None, false), (None, false), (None, true)]);
            ops.extend((0..n).map(|_| (None, false)));
            ops.extend([(None, true), (None, false)]);
            ops.extend((0..60).map(|_| match rng.below(6) {
                0 => (Some(rng.below(keys + 2)), true),
                k => (None, k < 4),
            }));
            let (per_page, frames) = (1 + rng.index(12), 1 + rng.index(3));

            let (inner, plain) = build(&cells);
            let auxes: Vec<LevelAux> = cells.iter().map(|run| build_aux(run)).collect();
            for (i, runs) in [with_aux(&plain, &auxes), plain.clone()]
                .into_iter()
                .enumerate()
            {
                let per_cell = PagedMem::new(inner.clone(), per_page, frames);
                let windowed = PagedMem::new(inner.clone(), per_page, frames);
                let reference = RunMergeCursor::with_head(&per_cell, head, runs.clone(), lo, hi);
                let mut own = RunBuf::new();
                let cur = match i {
                    0 => RunMergeCursor::lent(&windowed, head, runs, (lo, hi), &mut scratch),
                    _ => {
                        RunMergeCursor::with_head(&windowed, head, runs, lo, hi).windowed(&mut own)
                    }
                };
                drive(
                    &want,
                    (lo, hi),
                    &ops,
                    cur,
                    reference,
                    (&windowed, &per_cell),
                );
            }
        });
    }

    /// A forward scan of `r` entries from `from` over six long runs on
    /// 128-cell pages, per cell or windowed: the store calls it made,
    /// the cells it charged, and the cells lying between its first and
    /// last result.
    fn scan_cost(windowed: bool) -> (usize, usize, usize) {
        let mut rng = Rng::new(0xC057);
        let cells: Vec<Vec<Cell>> = (0..6).map(|_| random_run(&mut rng, 600, 4000)).collect();
        let (inner, plain) = build(&cells);
        let mem = PagedMem::new(inner, 128, 64);
        let auxes: Vec<LevelAux> = cells.iter().map(|run| build_aux(run)).collect();
        let (r, from) = (150usize, 1000u64);

        let mut scratch = RunBuf::new();
        let mut cur = RunMergeCursor::new(&mem, with_aux(&plain, &auxes), 0, u64::MAX);
        if windowed {
            cur = cur.windowed(&mut scratch);
        }
        cur.seek(from);
        let got: Vec<(u64, u64)> = (0..r).map_while(|_| CursorOps::next(&mut cur)).collect();
        drop(cur);
        assert_eq!(got, oracle(&cells, from, u64::MAX)[..r]);
        let last = got[r - 1].0;
        let in_range = cells
            .iter()
            .flatten()
            .filter(|c| (from..=last).contains(&c.key))
            .count();
        assert!(in_range > r, "the scan passes redundant and shadowed cells");
        let charged = mem.charged.borrow().len();
        (mem.calls.get(), charged, in_range)
    }

    #[test]
    fn run_cursor_reads_each_cell_in_range_once() {
        // A forward scan of r entries over k runs reads the cells lying
        // between its first and last result once each — the r winners
        // plus the redundant and shadowed cells passed — and a constant
        // per run: at most 5 probes to split a 16-slot ghost window and
        // one head left cached beyond the last result. Re-reading the
        // k heads on every step would cost over 3·k·r. Per cell every
        // read is a store call; windows charge the same cells and may
        // not make more calls than that.
        let k = 6;
        let (calls, charged, in_range) = scan_cost(false);
        assert_eq!(calls, charged, "per cell, a read is a call");
        assert!(
            charged <= in_range + 6 * k,
            "{charged} reads for {in_range} cells in range over {k} runs"
        );
        let (windowed_calls, windowed_charged, _) = scan_cost(true);
        assert_eq!(windowed_charged, charged);
        assert!(
            windowed_calls <= in_range + 6 * k,
            "{windowed_calls} calls for {in_range} cells in range over {k} runs"
        );
    }

    #[test]
    fn a_long_run_costs_a_few_store_calls_a_page() {
        // 128 entries of one run: five probes to split the ghost window,
        // a `get` for the first head, then a `get`, a peek and the
        // `read_run` that pays for it per window of 4, 8, 16, … cells.
        let run: Vec<Cell> = (0..1000).map(|k| Cell::item(3 * k, k)).collect();
        let (inner, plain) = build(std::slice::from_ref(&run));
        let aux = [build_aux(&run)];
        let scan = |windowed: bool| {
            let mem = PagedMem::new(inner.clone(), 128, 4);
            let mut scratch = RunBuf::new();
            let mut cur = RunMergeCursor::new(&mem, with_aux(&plain, &aux), 0, u64::MAX);
            if windowed {
                cur = cur.windowed(&mut scratch);
            }
            cur.seek(900);
            for k in 300..428 {
                assert_eq!(CursorOps::next(&mut cur), Some((3 * k, k)));
            }
            drop(cur);
            let charged = mem.charged.borrow().len();
            (mem.calls.get(), charged)
        };
        let (per_cell_calls, charged) = scan(false);
        let (calls, windowed_charged) = scan(true);
        assert_eq!(windowed_charged, charged);
        assert!(per_cell_calls >= 128, "{per_cell_calls} calls per cell");
        assert!(
            calls <= 32,
            "{calls} store calls for 128 entries of one run"
        );
    }
}

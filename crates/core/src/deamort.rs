//! Full deamortization of the COLA with lookahead pointers (Section 3,
//! Lemma 23 / Theorem 24).
//!
//! Each level keeps **three** arrays (level 0: two, always visible). Arrays
//! are *shadow* or *visible*; queries ignore shadow arrays, so no level
//! ever appears mid-merge to a query. The machinery, following the paper:
//!
//! * Level k becomes *unsafe* when two of its visible arrays are full. The
//!   two full arrays are merged — incrementally, a bounded number of cell
//!   moves per insertion — into a shadow array `A` of level k+1, with
//!   preference for a shadow already holding lookahead pointers.
//! * After the merge, lookahead pointers are copied from `A` (every eighth
//!   cell) into an empty shadow array at level k, which becomes *linked*
//!   to `A`. The level is then safe again. (Level 0 skips the pointer
//!   copy; its two one-item arrays stay visible forever.)
//! * A shadow array becomes visible when a chain of linked arrays from
//!   level 0 reaches it: every completed merge *from level 0* makes its
//!   target visible and the visibility cascades along `linked_to` edges.
//!   When an array turns visible and its level already has two other
//!   visible arrays, those two — by then *zombies* whose content has
//!   already been merged upward — turn shadow and empty (their data is
//!   exactly what just became visible one level down the chain).
//!
//! The per-insert work budget `m = Θ(log N)` counts merged cells plus
//! copied pointers, giving the worst-case `O(log N)` insert bound of
//! Theorem 24 while the amortized bound stays `O((log N)/B)`.
//!
//! Two engineering notes, recorded here because the paper leaves them
//! implicit: (a) a level's unsafe transition is evaluated lazily by the
//! mover (deferred while an adjacent level is unsafe) rather than fired
//! eagerly, which is the schedule Lemma 21's budget argument guarantees
//! anyway and keeps the no-two-adjacent-unsafe invariant checkable; and
//! (b) queries probe each visible array as an independent [`Run`] — the
//! windowed O(1)-per-level search over the pointer cells is exercised by
//! the amortized [`crate::GCola`]; here the pointers' role is the
//! deamortization bookkeeping itself.

use cosbt_dam::{Mem, PlainMem};

use crate::cascade::{AuxBuilder, LevelAux};
use crate::cursor::RunMergeCursor;
use crate::dict::{Cursor, Dictionary};
use crate::entry::Cell;
use crate::persist::{MetaError, MetaReader, MetaWriter, Persist, TAG_DEAMORT};
use crate::run::{lookup, Run};
use crate::runbuf::RunBuf;
use crate::stats::ColaStats;

/// Per-structure metadata format version (see [`crate::persist`]).
/// Version 2 appends per-array cascade fence keys to version 1.
const META_VERSION: u8 = 2;

/// Pointer sampling stride: "every eighth element" (Lemma 20 / Thm 24).
const STRIDE: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vis {
    Shadow,
    Visible,
}

#[derive(Debug, Clone, Copy)]
struct Arr {
    vis: Vis,
    /// First occupied slot (content is right-justified).
    start: usize,
    /// Occupied cells (items + pointer cells).
    len: usize,
    /// Real (item/tombstone) cells among `len`.
    items: usize,
    /// Recency of the newest item.
    seq: u64,
    /// Array at the next level this one received pointers from.
    linked_to: Option<usize>,
    /// Content already merged upward; awaiting the visibility cascade.
    zombie: bool,
}

impl Arr {
    fn empty() -> Arr {
        Arr {
            vis: Vis::Shadow,
            start: 0,
            len: 0,
            items: 0,
            seq: 0,
            linked_to: None,
            zombie: false,
        }
    }

    fn clear(&mut self) {
        *self = Arr::empty();
    }
}

/// Incremental work of an unsafe level.
#[derive(Debug, Clone)]
enum Phase {
    /// Merging the level's two full arrays (`src`) into `dst` at the next
    /// level; `ia`/`ib` index source content, `ip` indexes `dst`'s own
    /// staged pointer cells, `w` counts output cells written.
    Merge {
        src: [usize; 2],
        dst: usize,
        ia: usize,
        ib: usize,
        ip: usize,
        w: usize,
        ptrs: Vec<Cell>,
        total: usize,
    },
    /// Copying every eighth cell of `from` (at level k+1) into `to` (the
    /// empty shadow at level k); `i` indexes `from`'s content.
    CopyPtrs {
        from: usize,
        to: usize,
        i: usize,
        w: usize,
    },
}

/// Fully deamortized COLA over any [`Mem`] backend.
#[derive(Debug)]
pub struct DeamortCola<M: Mem<Cell>> {
    mem: M,
    /// `arrs[k][a]`, three per level (level 0 uses the first two).
    arrs: Vec<[Arr; 3]>,
    /// In-progress work of unsafe levels, each with the aux builder of
    /// the array it is writing: fed one cell per budgeted move and
    /// published when that array settles, so the accelerator respects
    /// the deamortized per-insert move bound.
    phase: Vec<Option<(Phase, AuxBuilder)>>,
    n: u64,
    seq: u64,
    stats: ColaStats,
    max_moves: u64,
    /// Per-array read accelerators, `aux[k][a]` in lockstep with `arrs`:
    /// `Some` exactly for occupied arrays with settled content, cleared
    /// the moment an array becomes an incremental write target.
    aux: Vec<[Option<LevelAux>; 3]>,
    /// Staging for the rebuild scans, which reach `mem` as run-level
    /// calls.
    scratch: RunBuf,
}

/// Slot capacity of one array at level `k`: room for `2^k` items from each
/// of two merging sources plus the pointer cells (≤ content/8 cascaded),
/// with slack so a right-justified rewrite never overlaps unread input.
#[inline]
fn arr_cap(k: usize) -> usize {
    1usize << (k + 1)
}

/// First slot of array `a` at level `k`.
#[inline]
fn arr_off(k: usize, a: usize) -> usize {
    // Levels are packed: sum of 3 * arr_cap(j) for j < k.
    3 * ((1usize << (k + 1)) - 2) + a * arr_cap(k)
}

/// Array `a` of level `k` as the run it holds (right-justified; empty
/// when `len` is 0).
fn arr_run<'a>(k: usize, a: usize, arrs: &[Arr; 3], aux: &'a [Option<LevelAux>; 3]) -> Run<'a> {
    Run {
        base: arr_off(k, a) + arrs[a].start,
        len: arrs[a].len,
        aux: aux[a].as_ref(),
    }
}

impl DeamortCola<PlainMem<Cell>> {
    /// Over plain heap memory.
    pub fn new_plain() -> Self {
        Self::new(PlainMem::new())
    }
}

impl<M: Mem<Cell>> DeamortCola<M> {
    /// Creates an empty deamortized COLA over `mem` (cleared).
    pub fn new(mut mem: M) -> Self {
        mem.resize(arr_off(1, 0), Cell::default());
        let mut l0 = [Arr::empty(), Arr::empty(), Arr::empty()];
        l0[0].vis = Vis::Visible;
        l0[1].vis = Vis::Visible;
        DeamortCola {
            mem,
            arrs: vec![l0],
            phase: vec![None],
            n: 0,
            seq: 0,
            stats: ColaStats::default(),
            max_moves: 0,
            aux: vec![[None, None, None]],
            scratch: RunBuf::new(),
        }
    }

    /// Number of insert operations performed.
    pub fn insertions(&self) -> u64 {
        self.n
    }

    /// Number of levels allocated.
    pub fn num_levels(&self) -> usize {
        self.arrs.len()
    }

    /// Work counters.
    pub fn stats(&self) -> ColaStats {
        self.stats
    }

    /// Largest number of cells moved/copied by any single insert.
    pub fn max_moves_per_insert(&self) -> u64 {
        self.max_moves
    }

    /// Whether level `k` is unsafe (has in-progress work).
    pub fn is_unsafe(&self, k: usize) -> bool {
        self.phase.get(k).is_some_and(|p| p.is_some())
    }

    fn ensure_level(&mut self, k: usize) {
        while self.arrs.len() <= k {
            self.arrs.push([Arr::empty(), Arr::empty(), Arr::empty()]);
            self.phase.push(None);
            self.aux.push([None, None, None]);
        }
        let need = arr_off(self.arrs.len(), 0);
        if self.mem.len() < need {
            self.mem.resize(need, Cell::default());
        }
    }

    /// Item capacity of a level-k array.
    fn item_cap(k: usize) -> usize {
        1usize << k
    }

    /// The lazy unsafe trigger: two visible, non-zombie, item-full arrays.
    fn wants_merge(&self, k: usize) -> Option<[usize; 2]> {
        let mut full = [0usize; 2];
        let mut cnt = 0;
        for a in 0..3 {
            let ar = &self.arrs[k][a];
            if ar.vis == Vis::Visible && !ar.zombie && ar.items == Self::item_cap(k) {
                if cnt < 2 {
                    full[cnt] = a;
                }
                cnt += 1;
            }
        }
        if cnt >= 2 {
            Some(full)
        } else {
            None
        }
    }

    /// Chooses the merge destination at level `k+1`: prefer a shadow
    /// already holding lookahead pointers, else an empty shadow.
    fn choose_dst(&mut self, k: usize) -> usize {
        self.ensure_level(k + 1);
        let lvl = &self.arrs[k + 1];
        if let Some(a) = (0..3).find(|&a| {
            lvl[a].vis == Vis::Shadow && !lvl[a].zombie && lvl[a].items == 0 && lvl[a].len > 0
        }) {
            return a;
        }
        (0..3)
            .find(|&a| lvl[a].vis == Vis::Shadow && lvl[a].len == 0 && !lvl[a].zombie)
            .expect("Lemma 23 violated: no shadow array available to merge into")
    }

    fn begin_merge(&mut self, k: usize, src: [usize; 2]) {
        debug_assert!(self.phase[k].is_none());
        let dst = self.choose_dst(k);
        // Stage dst's own pointer cells (it holds only pointers, if
        // anything): they participate in the merge by key order.
        let d = self.arrs[k + 1][dst];
        let mut ptrs = Vec::with_capacity(d.len);
        let base = arr_off(k + 1, dst) + d.start;
        for i in 0..d.len {
            ptrs.push(self.mem.get(base + i));
        }
        let total = self.arrs[k][src[0]].items + self.arrs[k][src[1]].items + ptrs.len();
        debug_assert!(total <= arr_cap(k + 1), "destination overflow");
        // The destination's cells are overwritten incrementally from here
        // on; its aux (stale pointer-run state, if any) must go now.
        self.aux[k + 1][dst] = None;
        let merge = Phase::Merge {
            src,
            dst,
            ia: 0,
            ib: 0,
            ip: 0,
            w: 0,
            ptrs,
            total,
        };
        self.phase[k] = Some((merge, AuxBuilder::new(total)));
        self.stats.merges += 1;
    }

    /// Makes `(k, a)` visible, cascading along linked arrays and emptying
    /// superseded zombie pairs, per the paper's visibility rules.
    fn make_visible(&mut self, mut k: usize, mut a: usize) {
        loop {
            if self.arrs[k][a].vis == Vis::Visible {
                return;
            }
            self.arrs[k][a].vis = Vis::Visible;
            let others: Vec<usize> = (0..3)
                .filter(|&o| o != a && self.arrs[k][o].vis == Vis::Visible)
                .collect();
            if others.len() == 2 {
                for o in others {
                    debug_assert!(
                        self.arrs[k][o].zombie,
                        "visibility cascade would empty a live array at level {k}"
                    );
                    self.arrs[k][o].clear();
                    self.aux[k][o] = None;
                }
            }
            match self.arrs[k][a].linked_to {
                Some(nxt) => {
                    k += 1;
                    a = nxt;
                }
                None => return,
            }
        }
    }

    /// Advances level `k`'s work by at most `budget`; returns moves spent.
    fn step(&mut self, k: usize, budget: u64) -> u64 {
        let mut spent = 0u64;
        let Some((mut phase, mut aux)) = self.phase[k].take() else {
            return 0;
        };
        loop {
            match &mut phase {
                Phase::Merge {
                    src,
                    dst,
                    ia,
                    ib,
                    ip,
                    w,
                    ptrs,
                    total,
                } => {
                    let (s0, s1) = (self.arrs[k][src[0]], self.arrs[k][src[1]]);
                    let newer_a = s0.seq > s1.seq;
                    let a_base = arr_off(k, src[0]) + s0.start;
                    let b_base = arr_off(k, src[1]) + s1.start;
                    let dst_cap = arr_cap(k + 1);
                    let out_base = arr_off(k + 1, *dst) + dst_cap - *total;
                    while spent < budget && *w < *total {
                        // Skip pointer cells in the sources (they point at
                        // this level's superseded arrays).
                        while *ia < s0.len && {
                            let c = self.mem.get(a_base + *ia);
                            c.is_redundant()
                        } {
                            *ia += 1;
                        }
                        while *ib < s1.len && {
                            let c = self.mem.get(b_base + *ib);
                            c.is_redundant()
                        } {
                            *ib += 1;
                        }
                        let ka = (*ia < s0.len).then(|| self.mem.get(a_base + *ia).key);
                        let kb = (*ib < s1.len).then(|| self.mem.get(b_base + *ib).key);
                        let kp = (*ip < ptrs.len()).then(|| ptrs[*ip].key);
                        // Pointers first among equal keys, then the newer
                        // source.
                        let cell = match (ka, kb, kp) {
                            (a_k, b_k, Some(p))
                                if a_k.is_none_or(|x| p <= x) && b_k.is_none_or(|x| p <= x) =>
                            {
                                let c = ptrs[*ip];
                                *ip += 1;
                                c
                            }
                            (Some(x), b_k, _)
                                if b_k.is_none_or(|y| x < y || (x == y && newer_a)) =>
                            {
                                let c = self.mem.get(a_base + *ia);
                                *ia += 1;
                                c
                            }
                            (_, Some(_), _) => {
                                let c = self.mem.get(b_base + *ib);
                                *ib += 1;
                                c
                            }
                            (None, None, None) => unreachable!("w < total"),
                            _ => unreachable!(),
                        };
                        self.mem.set(out_base + *w, cell);
                        aux.push(&cell);
                        *w += 1;
                        spent += 1;
                        self.stats.cells_written += 1;
                    }
                    if *w < *total {
                        break; // budget exhausted
                    }
                    // Merge complete: finalize destination, zombify sources.
                    let items = s0.items + s1.items;
                    let d = &mut self.arrs[k + 1][*dst];
                    d.start = dst_cap - *total;
                    d.len = *total;
                    d.items = items;
                    d.seq = s0.seq.max(s1.seq);
                    d.zombie = false;
                    let dst_arr = *dst;
                    self.aux[k + 1][dst_arr] = Some(aux.finish());
                    if k == 0 {
                        // Level-0 merges complete the chain: the target
                        // becomes visible immediately; level 0's arrays
                        // simply empty (they stay visible).
                        for &s in src.iter() {
                            let keep_vis = self.arrs[0][s].vis;
                            self.arrs[0][s].clear();
                            self.arrs[0][s].vis = keep_vis;
                            self.aux[0][s] = None;
                        }
                        self.make_visible(1, dst_arr);
                        return spent;
                    }
                    for &s in src.iter() {
                        self.arrs[k][s].zombie = true;
                    }
                    // Phase 2: copy pointers from dst into an empty shadow
                    // at level k.
                    let to = (0..3)
                        .find(|&a| {
                            self.arrs[k][a].vis == Vis::Shadow
                                && self.arrs[k][a].len == 0
                                && !self.arrs[k][a].zombie
                        })
                        .expect("no empty shadow to receive pointers");
                    aux = AuxBuilder::new((*total).div_ceil(STRIDE));
                    phase = Phase::CopyPtrs {
                        from: dst_arr,
                        to,
                        i: 0,
                        w: 0,
                    };
                }
                Phase::CopyPtrs { from, to, i, w } => {
                    let f = self.arrs[k + 1][*from];
                    let f_base = arr_off(k + 1, *from) + f.start;
                    let count = f.len.div_ceil(STRIDE);
                    let to_base = arr_off(k, *to) + arr_cap(k) - count;
                    while spent < budget && *i < f.len {
                        if *i % STRIDE == 0 {
                            let c = self.mem.get(f_base + *i);
                            let ptr = Cell::lookahead(c.key, *i as u64);
                            self.mem.set(to_base + *w, ptr);
                            aux.push(&ptr);
                            *w += 1;
                            spent += 1;
                            self.stats.cells_written += 1;
                        }
                        *i += 1;
                    }
                    if *i < f.len {
                        break; // budget exhausted
                    }
                    let t = &mut self.arrs[k][*to];
                    t.start = arr_cap(k) - count;
                    t.len = count;
                    t.items = 0;
                    t.linked_to = Some(*from);
                    self.aux[k][*to] = Some(aux.finish());
                    return spent;
                }
            }
        }
        self.phase[k] = Some((phase, aux));
        spent
    }

    fn insert_cell(&mut self, cell: Cell) {
        self.n += 1;
        self.seq += 1;
        self.stats.inserts += 1;

        let side = (0..2)
            .find(|&a| self.arrs[0][a].items == 0)
            .expect("level 0 has no free array: mover fell behind");
        let base = arr_off(0, side) + arr_cap(0) - 1;
        self.mem.set(base, cell);
        let a = &mut self.arrs[0][side];
        a.start = arr_cap(0) - 1;
        a.len = 1;
        a.items = 1;
        a.seq = self.seq;
        self.aux[0][side] = Some(crate::cascade::build_aux([cell].iter()));
        self.stats.cells_written += 1;

        // Mover: trigger due merges lazily (skipping levels whose
        // neighbours are busy), then advance unsafe levels left to right
        // within the budget.
        let levels = self.arrs.len() as u64;
        let m = 6 * levels + 16;
        let mut budget = m;
        let mut k = 0usize;
        while k < self.arrs.len() {
            if budget == 0 {
                break;
            }
            if self.phase[k].is_none() {
                let left_busy = k > 0 && self.is_unsafe(k - 1);
                let right_busy = k + 1 < self.phase.len() && self.is_unsafe(k + 1);
                if !left_busy && !right_busy {
                    if let Some(src) = self.wants_merge(k) {
                        self.begin_merge(k, src);
                    }
                }
            }
            if self.phase[k].is_some() {
                budget -= self.step(k, budget);
            }
            k += 1;
        }
        let moved = m - budget;
        self.max_moves = self.max_moves.max(moved);
        self.stats.max_cells_per_insert = self.stats.max_cells_per_insert.max(moved + 1);
    }

    /// Every array in directory order, as the run it holds.
    fn dir<'a>(
        arrs: &'a [[Arr; 3]],
        aux: &'a [[Option<LevelAux>; 3]],
    ) -> impl Iterator<Item = Run<'a>> + 'a {
        let levels = arrs.iter().zip(aux).enumerate();
        levels.flat_map(|(k, (lvl, aux))| [0, 1, 2].map(|a| arr_run(k, a, lvl, aux)))
    }

    /// The visible runs, newest first: visible arrays, smaller levels
    /// first and, within a level, by descending `seq` — the snapshot
    /// point lookups and cursors alike read. Shadow arrays (in-flight
    /// merge destinations included) stay hidden.
    fn runs<'a>(
        arrs: &'a [[Arr; 3]],
        aux: &'a [[Option<LevelAux>; 3]],
    ) -> impl Iterator<Item = Run<'a>> + 'a {
        let levels = arrs.iter().zip(aux).enumerate();
        levels.flat_map(|(k, (lvl, aux))| {
            let mut order = [0, 1, 2];
            order.sort_unstable_by_key(|&a| std::cmp::Reverse(lvl[a].seq));
            let visible = order.into_iter().filter(|&a| lvl[a].vis == Vis::Visible);
            visible.map(move |a| arr_run(k, a, lvl, aux))
        })
    }

    /// Completes every in-flight phase and every due merge (the mover's
    /// loop with an unbounded budget, iterated to a fixpoint). Logical
    /// contents are unchanged; afterwards no level is unsafe, so
    /// [`Persist::save_meta`] only has to serialize the per-array
    /// bookkeeping — an in-flight `Phase` stages up to `2^k/8` pointer
    /// cells, which would blow the bounded metadata region.
    pub fn quiesce(&mut self) {
        loop {
            let mut progressed = false;
            for k in 0..self.arrs.len() {
                if self.phase[k].is_none() {
                    let left_busy = k > 0 && self.is_unsafe(k - 1);
                    let right_busy = k + 1 < self.phase.len() && self.is_unsafe(k + 1);
                    if !left_busy && !right_busy {
                        if let Some(src) = self.wants_merge(k) {
                            self.begin_merge(k, src);
                        }
                    }
                }
                if self.phase[k].is_some() {
                    self.step(k, u64::MAX);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Reconstructs a deamortized COLA over an already-populated `mem`
    /// from persisted (quiesced) control state.
    pub fn from_parts(mem: M, meta: &[u8]) -> Result<Self, MetaError> {
        let mut r = MetaReader::new(meta, TAG_DEAMORT, META_VERSION)?;
        let n = r.u64()?;
        let seq = r.u64()?;
        let count = r.level_count(60)?;
        let mut arrs = Vec::with_capacity(count);
        for _ in 0..count {
            let mut level = [Arr::empty(), Arr::empty(), Arr::empty()];
            for arr in &mut level {
                *arr = Arr {
                    vis: if r.bool()? { Vis::Visible } else { Vis::Shadow },
                    start: r.usize()?,
                    len: r.usize()?,
                    items: r.usize()?,
                    seq: r.u64()?,
                    linked_to: r.opt_usize()?,
                    zombie: r.bool()?,
                };
            }
            arrs.push(level);
        }
        let fences = r.fences(arrs.iter().flatten().map(|arr| arr.len > 0))?;
        r.finish()?;
        if mem.len() < arr_off(count, 0) {
            return Err(MetaError::Invalid(format!(
                "store holds {} cells, {count} levels need {}",
                mem.len(),
                arr_off(count, 0)
            )));
        }
        for (k, level) in arrs.iter().enumerate() {
            for (a, arr) in level.iter().enumerate() {
                let in_bounds = arr
                    .start
                    .checked_add(arr.len)
                    .is_some_and(|end| end <= arr_cap(k));
                if !in_bounds || arr.items > arr.len || arr.linked_to.is_some_and(|t| t >= 3) {
                    return Err(MetaError::Invalid(format!(
                        "level {k} array {a} bookkeeping out of bounds"
                    )));
                }
            }
        }
        let mut cola = DeamortCola {
            mem,
            phase: vec![None; count],
            arrs,
            n,
            seq,
            stats: ColaStats::default(),
            max_moves: 0,
            aux: vec![[None, None, None]; count],
            scratch: RunBuf::new(),
        };
        // v2: corrupt cascade metadata is a typed `MetaError`, never a
        // wrong answer.
        for (i, fence) in fences.into_iter().enumerate() {
            if let Some(fence) = fence {
                let (k, a) = (i / 3, i % 3);
                let run = arr_run(k, a, &cola.arrs[k], &cola.aux[k]).bare();
                let what = format_args!("level {k} array {a}");
                let aux = run.reopen(&cola.mem, &mut cola.scratch, fence, what, |_, _| {})?;
                cola.aux[k][a] = Some(aux);
            }
        }
        Ok(cola)
    }

    /// Structural invariants (tests): no adjacent unsafe levels, at least
    /// one shadow per in-use level (k ≥ 1), at most two visible arrays,
    /// sortedness, and accounting consistency.
    pub fn check_invariants(&self) {
        for k in 0..self.arrs.len().saturating_sub(1) {
            assert!(
                !(self.is_unsafe(k) && self.is_unsafe(k + 1)),
                "levels {k},{} simultaneously unsafe",
                k + 1
            );
        }
        for k in 1..self.arrs.len() {
            let shadows = (0..3)
                .filter(|&a| self.arrs[k][a].vis == Vis::Shadow)
                .count();
            assert!(shadows >= 1, "level {k} has no shadow array");
            let visible = 3 - shadows;
            assert!(visible <= 2, "level {k} has 3 visible arrays");
        }
        for k in 0..self.arrs.len() {
            for a in 0..3 {
                let ar = self.arrs[k][a];
                assert!(
                    ar.start + ar.len <= arr_cap(k),
                    "level {k} array {a} bounds"
                );
                // An in-flight merge writes into its destination (and a
                // pointer copy into its target) before the bookkeeping is
                // updated, so mid-operation their slots legitimately mix
                // old and new content: skip content checks for those.
                let is_dst = k >= 1
                    && self.phase[k - 1].as_ref().is_some_and(|(p, _)| match p {
                        Phase::Merge { dst, .. } => *dst == a,
                        Phase::CopyPtrs { from, .. } => *from == a,
                    });
                let is_copy_target = self.phase[k].as_ref().is_some_and(|(p, _)| match p {
                    Phase::CopyPtrs { to, .. } => *to == a,
                    Phase::Merge { .. } => false,
                });
                if is_dst || is_copy_target {
                    continue;
                }
                // A settled array as a run: sorted, aux present exactly
                // when occupied and agreeing with the cells.
                let run = arr_run(k, a, &self.arrs[k], &self.aux[k]);
                let items = run.check(&self.mem, format_args!("level {k} array {a}"));
                assert_eq!(items, ar.items, "level {k} array {a} item count");
            }
        }
    }
}

impl<M: Mem<Cell>> Persist for DeamortCola<M> {
    fn save_meta(&mut self) -> Vec<u8> {
        self.quiesce();
        debug_assert!(self.phase.iter().all(Option::is_none));
        let mut w = MetaWriter::new(TAG_DEAMORT, META_VERSION);
        w.u64(self.n).u64(self.seq).usize(self.arrs.len());
        for level in &self.arrs {
            for arr in level {
                w.bool(arr.vis == Vis::Visible)
                    .usize(arr.start)
                    .usize(arr.len)
                    .usize(arr.items)
                    .u64(arr.seq)
                    .opt_usize(arr.linked_to)
                    .bool(arr.zombie);
            }
        }
        // v2: each occupied array's fence keys.
        w.fences(&self.mem, Self::dir(&self.arrs, &self.aux));
        w.finish()
    }
}

impl<M: Mem<Cell>> Dictionary for DeamortCola<M> {
    fn insert(&mut self, key: u64, val: u64) {
        self.insert_cell(Cell::item(key, val));
    }

    fn delete(&mut self, key: u64) {
        self.insert_cell(Cell::tombstone(key));
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        let runs = Self::runs(&self.arrs, &self.aux);
        lookup(&self.mem, &mut self.stats, runs, key)
    }

    fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_> {
        // Pointer cells are skipped by the merge cursor.
        let runs = Self::runs(&self.arrs, &self.aux);
        Cursor::new(RunMergeCursor::new(&self.mem, runs, lo, hi).windowed(&mut self.scratch))
    }

    fn physical_len(&self) -> usize {
        self.n as usize
    }

    fn name(&self) -> &'static str {
        "deamortized-cola"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_and_offsets() {
        assert_eq!(arr_cap(0), 2);
        assert_eq!(arr_cap(3), 16);
        assert_eq!(arr_off(0, 0), 0);
        assert_eq!(arr_off(0, 1), 2);
        assert_eq!(arr_off(0, 2), 4);
        assert_eq!(arr_off(1, 0), 6);
        for k in 0..20 {
            assert_eq!(arr_off(k, 2) + arr_cap(k), arr_off(k + 1, 0));
        }
    }

    #[test]
    fn inserts_and_gets_match_model() {
        let mut c = DeamortCola::new_plain();
        let mut model = std::collections::BTreeMap::new();
        let mut x: u64 = 11;
        for i in 0..6000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % 2500;
            c.insert(k, i);
            model.insert(k, i);
            if i % 509 == 0 {
                c.check_invariants();
                for probe in [0u64, 1000, 2499, k] {
                    assert_eq!(
                        c.get(probe),
                        model.get(&probe).copied(),
                        "probe {probe} at {i}"
                    );
                }
            }
        }
        for probe in 0..2500u64 {
            assert_eq!(c.get(probe), model.get(&probe).copied());
        }
        c.check_invariants();
    }

    #[test]
    fn worst_case_moves_logarithmic() {
        let mut c = DeamortCola::new_plain();
        for i in 0..(1u64 << 14) {
            c.insert(i, i);
        }
        let levels = c.num_levels() as u64;
        assert!(
            c.max_moves_per_insert() <= 6 * levels + 16,
            "worst case {} exceeds budget",
            c.max_moves_per_insert()
        );
        assert!(c.max_moves_per_insert() < 1 << 10);
    }

    #[test]
    fn shadow_visible_invariants_hold_throughout() {
        let mut c = DeamortCola::new_plain();
        for i in 0..30_000u64 {
            c.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i);
            if i % 1024 == 1023 {
                c.check_invariants();
            }
        }
        c.check_invariants();
    }

    #[test]
    fn linked_arrays_receive_pointers() {
        let mut c = DeamortCola::new_plain();
        for i in 0..4096u64 {
            c.insert(i, i);
        }
        // Some array must be linked (pointer-carrying shadow) by now.
        let linked = (0..c.num_levels())
            .flat_map(|k| (0..3).map(move |a| (k, a)))
            .filter(|&(k, a)| c.arrs[k][a].linked_to.is_some())
            .count();
        assert!(linked > 0, "no linked arrays formed");
    }

    #[test]
    fn deletes_and_upserts() {
        let mut c = DeamortCola::new_plain();
        for k in 0..800u64 {
            c.insert(k, k);
        }
        for k in (0..800u64).step_by(4) {
            c.delete(k);
        }
        for k in (0..800u64).step_by(6) {
            c.insert(k, k + 7000);
        }
        for k in 0..800u64 {
            let want = if k % 6 == 0 {
                Some(k + 7000)
            } else if k % 4 == 0 {
                None
            } else {
                Some(k)
            };
            assert_eq!(c.get(k), want, "key {k}");
        }
    }

    #[test]
    fn range_matches_model_mid_stream() {
        let mut c = DeamortCola::new_plain();
        let mut model = std::collections::BTreeMap::new();
        for i in 0..3000u64 {
            let k = (i * 131) % 4096;
            c.insert(k, i);
            model.insert(k, i);
            if i % 701 == 0 {
                let want: Vec<(u64, u64)> =
                    model.range(512..=2048).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(c.range(512, 2048), want, "at insert {i}");
            }
        }
    }

    #[test]
    fn search_cost_not_amortized() {
        // The paper's point versus the lazy-search BRT: a search never
        // triggers restructuring. Verify gets do not write.
        let mut c = DeamortCola::new_plain();
        for i in 0..2048u64 {
            c.insert(i, i);
        }
        let w0 = c.stats().cells_written;
        for i in 0..2048u64 {
            c.get(i);
        }
        assert_eq!(c.stats().cells_written, w0, "searches must not move cells");
    }
}

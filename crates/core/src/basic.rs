//! The basic cache-oblivious lookahead array (Section 3).
//!
//! `⌈log₂ N⌉` arrays ("levels"), the k-th of size `2^k`, each completely
//! full or completely empty, stored contiguously, each sorted. Invariant 1:
//! level k holds items iff bit k of the number of insertions N is set.
//! Inserting performs a binary *carry*: merge equal-length runs upward
//! until an empty level absorbs the result (Lemma 19: amortized
//! `O((log N)/B)` transfers). The paper's search binary-searches each
//! level, `O(log² N)` transfers ([`BasicCola::get_plain`]); lookups here
//! probe each full level, newest first, as a [`Run`] bracketed by its
//! DRAM aux. The paper itself speeds the search to `O(log N)` with
//! lookahead pointers (see [`crate::gcola`]).
//!
//! Merging follows the implementation section exactly: "we merge the 2
//! smallest levels at a time … We alternate placing the result of the merge
//! at the beginning of the target level and at the newly freed space at the
//! beginning of the data structure, thus requiring space for only 1
//! additional element during merges." Slot 0 is that one spare element.
//!
//! Upsert/delete semantics (an extension; the paper only specifies
//! insertion): newer versions shadow older ones. Within a level, equal keys
//! are ordered newest-first, maintained by giving the carried run
//! precedence on ties; searches take the leftmost match of the newest
//! level containing the key. Deletes insert tombstones.

use cosbt_dam::{Mem, PlainMem};

use crate::cascade::{AuxBuilder, LevelAux};
use crate::cursor::RunMergeCursor;
use crate::dict::{Cursor, Dictionary, UpdateBatch};
use crate::entry::Cell;
use crate::merge::MergeBuf;
use crate::persist::{MetaError, MetaReader, MetaWriter, Persist, TAG_BASIC_COLA};
use crate::run::{lookup, Run};
use crate::runbuf::RunBuf;
use crate::stats::ColaStats;

/// Per-structure metadata format version (see [`crate::persist`]).
/// Version 2 appends per-level cascade fence keys to version 1.
const META_VERSION: u8 = 2;

/// Offset of level `k`: slot 0 is the merge spare, then levels are packed
/// contiguously (sizes 1, 2, 4, …).
#[inline]
fn level_off(k: usize) -> usize {
    1usize << k // 1 (spare) + (2^k - 1) (levels 0..k)
}

/// How far past its ghost window a level's probe reads ([`Run::find`]):
/// nowhere. A level holds no redundant cells and is probed unclamped, so
/// the window holds every cell of the key.
const PAST_WINDOW: usize = 0;

/// Basic COLA over any [`Mem`] backend.
#[derive(Debug)]
pub struct BasicCola<M: Mem<Cell>> {
    mem: M,
    /// `full[k]` ⇔ level k holds items (Invariant 1).
    full: Vec<bool>,
    /// Total insertions performed (the paper's N).
    n: u64,
    stats: ColaStats,
    /// Per-level read accelerators (fences, filter, ghost sample); kept
    /// in lockstep with `full` — `Some` exactly for full levels. Rebuilt
    /// by the merge that rebuilds a level, so it can never go stale: a
    /// carry to level `t` empties every level below `t` and touches none
    /// above it.
    aux: Vec<Option<LevelAux>>,
    /// Staging for the rebuild scans, which reach `mem` as run-level
    /// calls.
    scratch: RunBuf,
    /// Batch-carry merge scratch, bounded between carries.
    merge: MergeBuf,
}

impl BasicCola<PlainMem<Cell>> {
    /// A basic COLA over plain heap memory.
    pub fn new_plain() -> Self {
        Self::new(PlainMem::new())
    }
}

impl<M: Mem<Cell>> BasicCola<M> {
    /// Creates an empty basic COLA over `mem` (cleared).
    pub fn new(mut mem: M) -> Self {
        mem.resize(2, Cell::default()); // spare + level 0
        BasicCola {
            mem,
            full: vec![false],
            n: 0,
            stats: ColaStats::default(),
            aux: vec![None],
            scratch: RunBuf::new(),
            merge: MergeBuf::default(),
        }
    }

    /// Number of insert operations performed (the paper's N).
    pub fn insertions(&self) -> u64 {
        self.n
    }

    /// Number of levels allocated.
    pub fn levels(&self) -> usize {
        self.full.len()
    }

    /// Whether level `k` currently holds items.
    pub fn level_full(&self, k: usize) -> bool {
        self.full[k]
    }

    /// Work counters.
    pub fn stats(&self) -> ColaStats {
        self.stats
    }

    /// Borrow the backing store (for simulator statistics).
    pub fn mem(&self) -> &M {
        &self.mem
    }

    fn ensure_levels(&mut self, levels: usize) {
        while self.full.len() < levels {
            self.full.push(false);
            self.aux.push(None);
        }
        let need = level_off(self.full.len() - 1) + (1 << (self.full.len() - 1));
        if self.mem.len() < need {
            self.mem.resize(need, Cell::default());
        }
    }

    fn insert_cell(&mut self, cell: Cell) {
        self.n += 1;
        self.stats.inserts += 1;
        let before = self.stats.cells_written;

        // Find the first empty level t (levels 0..t are full).
        let mut t = 0usize;
        while t < self.full.len() && self.full[t] {
            t += 1;
        }
        self.ensure_levels(t + 1);

        if t == 0 {
            self.mem.set(level_off(0), cell);
            self.full[0] = true;
            self.aux[0] = Some(crate::cascade::build_aux([cell].iter()));
            self.stats.cells_written += 1;
            let w = self.stats.cells_written - before;
            self.stats.max_cells_per_insert = self.stats.max_cells_per_insert.max(w);
            return;
        }
        self.stats.merges += 1;

        // Carry: merge `cell` with levels 0..t-1 pairwise, alternating
        // output between the start of the structure (slot 0) and the start
        // of the target level, so the final merge lands exactly on level t.
        //
        // Output side of step j (merging the run with level j):
        //   step t-1 must land on the target, and sides alternate.
        let target_base = level_off(t);
        // Place the new element as the initial 1-cell run. Its side must be
        // opposite to step 0's output side.
        let step0_target = (t - 1).is_multiple_of(2);
        let mut run_base = if step0_target { 0 } else { target_base };
        let mut run_len = 1usize;
        self.mem.set(run_base, cell);
        self.stats.cells_written += 1;

        // The final merge step writes the target level; its cells feed
        // the cascade aux as they stream past, so the accelerator costs
        // no extra pass over the data.
        let mut aux_builder = AuxBuilder::new(1 << t);
        for j in 0..t {
            let out_base = if (t - 1 - j).is_multiple_of(2) {
                target_base
            } else {
                0
            };
            debug_assert_ne!(out_base, run_base, "run and output must alternate");
            let final_step = j + 1 == t;
            let lvl_base = level_off(j);
            let lvl_len = 1usize << j;
            // Merge run (newer; wins ties) with level j (older).
            let (mut a, mut b, mut w) = (0usize, 0usize, 0usize);
            while a < run_len || b < lvl_len {
                let take_run = if a == run_len {
                    false
                } else if b == lvl_len {
                    true
                } else {
                    // Read both heads before writing: the output may land on
                    // level j's head slot only when the run is exhausted.
                    self.mem.get(run_base + a).key <= self.mem.get(lvl_base + b).key
                };
                let v = if take_run {
                    let v = self.mem.get(run_base + a);
                    a += 1;
                    v
                } else {
                    let v = self.mem.get(lvl_base + b);
                    b += 1;
                    v
                };
                self.mem.set(out_base + w, v);
                if final_step {
                    aux_builder.push(&v);
                }
                w += 1;
            }
            self.stats.cells_written += w as u64;
            run_base = out_base;
            run_len += lvl_len;
            self.full[j] = false;
            self.aux[j] = None;
        }
        debug_assert_eq!(run_base, target_base);
        debug_assert_eq!(run_len, 1 << t);
        self.full[t] = true;
        self.aux[t] = Some(aux_builder.finish());

        let w = self.stats.cells_written - before;
        self.stats.max_cells_per_insert = self.stats.max_cells_per_insert.max(w);
    }

    /// Absorbs a sorted batch of cells (one per key, newest versions) in a
    /// single carry cascade: one fold of the batch with the full levels
    /// it displaces ([`crate::merge`]), instead of one cascade per key.
    ///
    /// The merge targets the first *empty* level `t` with `2^t ≥ batch`;
    /// everything below `t` plus the batch re-sorts into the levels named
    /// by the binary decomposition of the new occupancy, assigning
    /// ascending key chunks to ascending level indices so that — when a
    /// key's versions straddle a chunk boundary — the newest version lands
    /// in the earlier-searched level. Invariant 1 (level k full ⇔ bit k of
    /// N) is preserved because the carry stops exactly at bit `t`.
    fn insert_cells_batch(&mut self, batch: &[Cell]) {
        debug_assert!(batch.windows(2).all(|w| w[0].key < w[1].key));
        let b = batch.len();
        match b {
            0 => return,
            1 => return self.insert_cell(batch[0]),
            _ => {}
        }
        let before = self.stats.cells_written;

        // Target: first empty level big enough for the whole batch.
        let mut t = 0usize;
        loop {
            self.ensure_levels(t + 1);
            if !self.full[t] && (1usize << t) >= b {
                break;
            }
            t += 1;
        }

        // Sources, newest first: the batch, then levels 0..t ascending.
        // Among equal keys the newer source goes first, preserving the
        // leftmost-is-newest level layout.
        let mut m = std::mem::take(&mut self.merge);
        let total = b + (self.n as usize & ((1 << t) - 1)); // Invariant 1
        m.begin(batch, total);
        let mut level = std::mem::take(&mut m.staged);
        for j in (0..t).filter(|&j| self.full[j]) {
            level.resize(1 << j, Cell::default());
            self.mem.read_run(level_off(j), &mut level);
            m.step(1 << j, |s| level.iter().for_each(|c| s.push_all(c)));
        }
        m.staged = level;
        let merged = m.run();

        // Redistribute over the binary decomposition of the new low bits:
        // ascending chunks to ascending set bits, newest-within-key kept
        // in the earlier-searched (smaller) level.
        self.n += b as u64;
        self.stats.inserts += b as u64;
        self.stats.merges += 1;
        let mut start = 0usize;
        for k in 0..=t {
            let full = total >> k & 1 == 1;
            self.full[k] = full;
            if full {
                self.mem
                    .write_run(level_off(k), &merged[start..start + (1 << k)]);
                let chunk = merged[start..start + (1 << k)].iter();
                self.aux[k] = Some(crate::cascade::build_aux(chunk));
                self.stats.cells_written += 1u64 << k;
                start += 1 << k;
            } else {
                self.aux[k] = None;
            }
        }
        debug_assert_eq!(start, total);
        m.release();
        self.merge = m;
        let w = self.stats.cells_written - before;
        self.stats.max_cells_per_insert = self.stats.max_cells_per_insert.max(w);
    }

    /// Every level in directory order — which is newest first — as the
    /// run it holds: `2^k` cells when full, none when empty.
    fn runs<'a>(
        full: &'a [bool],
        aux: &'a [Option<LevelAux>],
    ) -> impl Iterator<Item = Run<'a>> + 'a {
        full.iter().zip(aux).enumerate().map(|(k, (&f, aux))| Run {
            base: level_off(k),
            len: if f { 1 << k } else { 0 },
            aux: aux.as_ref(),
        })
    }

    /// The paper's Section 3 search: a full binary search of every full
    /// level, newest first, with no fences, filter or ghost sample — the
    /// same probe as [`Dictionary::get`] over runs without their aux.
    /// Same answers; kept as the reference the cascade is tested and
    /// costed against.
    pub fn get_plain(&mut self, key: u64) -> Option<u64> {
        let bare = Self::runs(&self.full, &self.aux).map(Run::bare);
        lookup(&self.mem, &mut self.stats, bare, key, PAST_WINDOW)
    }

    /// Rebuilds the structure keeping only live entries (drops shadowed
    /// versions and tombstones). Extension: the paper's COLA never removes
    /// anything; compaction restores `physical_len == live keys`.
    pub fn compact(&mut self) {
        let live = self.range(0, u64::MAX);
        for f in self.full.iter_mut() {
            *f = false;
        }
        for a in self.aux.iter_mut() {
            *a = None;
        }
        self.n = 0;
        // Distribute the sorted live entries over levels matching the
        // binary decomposition of the count; any per-level sorted layout
        // is valid.
        let mut remaining = live.len();
        let mut idx = 0usize;
        let mut bit = 0usize;
        let mut placements: Vec<(usize, usize)> = Vec::new(); // (level, start idx)
        while remaining > 0 {
            if remaining & 1 == 1 {
                placements.push((bit, idx));
                idx += 1 << bit;
            }
            remaining >>= 1;
            bit += 1;
        }
        if !placements.is_empty() {
            self.ensure_levels(placements.last().unwrap().0 + 1);
        }
        for (k, start) in placements {
            let base = level_off(k);
            let mut b = AuxBuilder::new(1 << k);
            for i in 0..(1usize << k) {
                let (key, val) = live[start + i];
                let cell = Cell::item(key, val);
                self.mem.set(base + i, cell);
                b.push(&cell);
            }
            self.aux[k] = Some(b.finish());
            self.full[k] = true;
            self.n += 1 << k;
        }
    }

    /// Reconstructs a basic COLA over an already-populated `mem` from the
    /// control state a previous [`Persist::save_meta`] produced. The
    /// store's cells are used as-is; occupancy bookkeeping is restored
    /// (and validated against the store's length), the cascade
    /// accelerators are rebuilt from the committed cells, and the
    /// persisted per-level fence keys are cross-checked against them —
    /// corrupt cascade metadata is a typed [`MetaError`], never a wrong
    /// answer.
    pub fn from_parts(mem: M, meta: &[u8]) -> Result<Self, MetaError> {
        let mut r = MetaReader::new(meta, TAG_BASIC_COLA, META_VERSION)?;
        let n = r.u64()?;
        let levels = r.level_count(60)?;
        let mut full = Vec::with_capacity(levels);
        for _ in 0..levels {
            full.push(r.bool()?);
        }
        let fences = r.fences(full.iter().copied())?;
        r.finish()?;
        for (k, &f) in full.iter().enumerate() {
            if f != (n >> k & 1 == 1) {
                return Err(MetaError::Invalid(format!(
                    "level {k} occupancy disagrees with insertion count {n}"
                )));
            }
        }
        if n >> levels != 0 {
            return Err(MetaError::Invalid(format!(
                "insertion count {n} needs more than {levels} levels"
            )));
        }
        let need = level_off(levels - 1) + (1 << (levels - 1));
        if mem.len() < need {
            return Err(MetaError::Invalid(format!(
                "store holds {} cells, occupancy needs {need}",
                mem.len()
            )));
        }
        let aux = vec![None; levels];
        let mut cola = BasicCola {
            mem,
            full,
            n,
            stats: ColaStats::default(),
            aux,
            scratch: RunBuf::new(),
            merge: MergeBuf::default(),
        };
        for (k, fence) in fences.into_iter().enumerate() {
            if let Some(fence) = fence {
                let run = Run {
                    base: level_off(k),
                    len: 1 << k,
                    aux: None,
                };
                let what = format_args!("level {k}");
                let aux = run.reopen(&cola.mem, &mut cola.scratch, fence, what, |_, _| {})?;
                cola.aux[k] = Some(aux);
            }
        }
        Ok(cola)
    }

    /// Checks Invariant 1 (level k full ⇔ bit k of N) and every level as
    /// a run (`Run::check`). Panics on violation; for tests.
    pub fn check_invariants(&self) {
        for (k, &f) in self.full.iter().enumerate() {
            assert_eq!(
                f,
                self.n >> k & 1 == 1,
                "level {k} fullness disagrees with bit {k} of N={}",
                self.n
            );
        }
        assert_eq!(self.aux.len(), self.full.len(), "aux out of lockstep");
        for (k, run) in Self::runs(&self.full, &self.aux).enumerate() {
            run.check(&self.mem, format_args!("level {k}"));
        }
    }
}

impl<M: Mem<Cell>> Persist for BasicCola<M> {
    fn save_meta(&mut self) -> Vec<u8> {
        let mut w = MetaWriter::new(TAG_BASIC_COLA, META_VERSION);
        w.u64(self.n).usize(self.full.len());
        for &f in &self.full {
            w.bool(f);
        }
        // v2: each full level's fence keys; `from_parts` holds the
        // reopened cells to them.
        w.fences(&self.mem, Self::runs(&self.full, &self.aux));
        w.finish()
    }
}

impl<M: Mem<Cell>> Dictionary for BasicCola<M> {
    fn insert(&mut self, key: u64, val: u64) {
        self.insert_cell(Cell::item(key, val));
    }

    fn delete(&mut self, key: u64) {
        self.insert_cell(Cell::tombstone(key));
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        let runs = Self::runs(&self.full, &self.aux);
        lookup(&self.mem, &mut self.stats, runs, key, PAST_WINDOW)
    }

    fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_> {
        let runs = Self::runs(&self.full, &self.aux);
        Cursor::new(RunMergeCursor::new(&self.mem, runs, lo, hi).windowed(&mut self.scratch))
    }

    fn apply(&mut self, batch: &mut UpdateBatch) {
        let cells = crate::dict::batch_to_cells(batch);
        self.insert_cells_batch(&cells);
        batch.clear();
    }

    fn insert_batch(&mut self, sorted: &[(u64, u64)]) {
        let cells = crate::dict::sorted_pairs_to_cells(sorted);
        self.insert_cells_batch(&cells);
    }

    fn physical_len(&self) -> usize {
        self.n as usize
    }

    fn name(&self) -> &'static str {
        "basic-cola"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_offsets_are_contiguous() {
        assert_eq!(level_off(0), 1);
        assert_eq!(level_off(1), 2);
        assert_eq!(level_off(2), 4);
        assert_eq!(level_off(3), 8);
        // level k ends where level k+1 begins
        for k in 0..20 {
            assert_eq!(level_off(k) + (1 << k), level_off(k + 1));
        }
    }

    #[test]
    fn insert_follows_binary_counter() {
        let mut c = BasicCola::new_plain();
        for i in 0..64u64 {
            c.insert(i, i);
            c.check_invariants();
        }
        assert_eq!(c.insertions(), 64);
        assert!(c.level_full(6));
        for k in 0..6 {
            assert!(!c.level_full(k));
        }
    }

    #[test]
    fn get_finds_all_inserted() {
        let mut c = BasicCola::new_plain();
        let mut x: u64 = 42;
        let mut keys = Vec::new();
        for i in 0..1000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            keys.push(x);
            c.insert(x, i);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(c.get(k), Some(i as u64), "key {k}");
        }
        assert_eq!(c.get(12345), None);
    }

    #[test]
    fn upsert_newest_wins() {
        let mut c = BasicCola::new_plain();
        for round in 0..10u64 {
            for k in 0..50u64 {
                c.insert(k, round * 100 + k);
            }
        }
        for k in 0..50u64 {
            assert_eq!(c.get(k), Some(900 + k));
        }
        c.check_invariants();
    }

    #[test]
    fn delete_shadows_older_inserts() {
        let mut c = BasicCola::new_plain();
        c.insert(5, 55);
        c.insert(6, 66);
        c.delete(5);
        assert_eq!(c.get(5), None);
        assert_eq!(c.get(6), Some(66));
        c.insert(5, 57);
        assert_eq!(c.get(5), Some(57));
    }

    #[test]
    fn range_dedupes_and_filters_tombstones() {
        let mut c = BasicCola::new_plain();
        for k in 0..100u64 {
            c.insert(k, k);
        }
        for k in 0..100u64 {
            if k % 3 == 0 {
                c.insert(k, k + 1000);
            }
            if k % 7 == 0 {
                c.delete(k);
            }
        }
        let got = c.range(10, 40);
        let mut want = Vec::new();
        for k in 10..=40u64 {
            if k % 7 == 0 {
                continue;
            }
            if k % 3 == 0 {
                want.push((k, k + 1000));
            } else {
                want.push((k, k));
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn range_empty_and_full_bounds() {
        let mut c = BasicCola::new_plain();
        assert_eq!(c.range(0, u64::MAX), vec![]);
        c.insert(10, 1);
        c.insert(20, 2);
        assert_eq!(c.range(0, u64::MAX), vec![(10, 1), (20, 2)]);
        assert_eq!(c.range(11, 19), vec![]);
        assert_eq!(c.range(10, 10), vec![(10, 1)]);
        assert_eq!(c.range(20, 20), vec![(20, 2)]);
    }

    #[test]
    fn compact_drops_shadowed_versions() {
        let mut c = BasicCola::new_plain();
        for k in 0..200u64 {
            c.insert(k, k);
            c.insert(k, k + 1); // shadow
        }
        for k in 0..50u64 {
            c.delete(k);
        }
        assert_eq!(c.physical_len(), 450);
        c.compact();
        assert_eq!(c.physical_len(), 150);
        c.check_invariants();
        for k in 0..50u64 {
            assert_eq!(c.get(k), None);
        }
        for k in 50..200u64 {
            assert_eq!(c.get(k), Some(k + 1));
        }
    }

    impl<M: Mem<Cell>> BasicCola<M> {
        /// The pre-kernel `insert_cells_batch`, kept as the differential
        /// oracle: every source staged in its own `Vec`, one k-way merge.
        fn insert_cells_batch_heap(&mut self, batch: &[Cell]) {
            let b = batch.len();
            match b {
                0 => return,
                1 => return self.insert_cell(batch[0]),
                _ => {}
            }
            let before = self.stats.cells_written;
            let mut t = 0usize;
            loop {
                self.ensure_levels(t + 1);
                if !self.full[t] && (1usize << t) >= b {
                    break;
                }
                t += 1;
            }
            let mut sources = vec![batch.to_vec()];
            for j in (0..t).filter(|&j| self.full[j]) {
                let mut level = vec![Cell::default(); 1 << j];
                self.mem.read_run(level_off(j), &mut level);
                sources.push(level);
            }
            let merged = crate::merge::oracle::heap_merge(&sources);
            self.n += b as u64;
            self.stats.inserts += b as u64;
            self.stats.merges += 1;
            let mut start = 0usize;
            for k in 0..=t {
                self.full[k] = merged.len() >> k & 1 == 1;
                self.aux[k] = None;
                if self.full[k] {
                    let chunk = &merged[start..start + (1 << k)];
                    self.mem.write_run(level_off(k), chunk);
                    self.aux[k] = Some(crate::cascade::build_aux(chunk.iter()));
                    self.stats.cells_written += 1u64 << k;
                    start += 1 << k;
                }
            }
            let w = self.stats.cells_written - before;
            self.stats.max_cells_per_insert = self.stats.max_cells_per_insert.max(w);
        }
    }

    #[test]
    fn fold_batch_carry_is_byte_identical_to_the_heap_merge() {
        let (mut new, mut old) = (BasicCola::new_plain(), BasicCola::new_plain());
        let ops = crate::merge::oracle::stream(0xBA5C, 1 << 14);
        for (i, op) in ops.iter().enumerate() {
            op.apply_to(&mut new);
            old.insert_cells_batch_heap(&op.cells());
            if i % 1024 == 1023 {
                assert!(
                    new.mem.as_slice() == old.mem.as_slice(),
                    "cells after op {i}"
                );
                let (a, b) = (new.stats(), old.stats());
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "stats after op {i}");
                assert_eq!(new.save_meta(), old.save_meta(), "meta after op {i}");
            }
        }
        new.check_invariants();
    }

    #[test]
    fn amortized_merge_cost_is_logarithmic() {
        let mut c = BasicCola::new_plain();
        let n = 1u64 << 14;
        for i in 0..n {
            c.insert(i.wrapping_mul(2654435761), i);
        }
        let per = c.stats().amortized_writes();
        // Amortized writes per insert ≈ log2(N)/2 + O(1); allow slack.
        assert!(
            per < 2.0 * 14.0,
            "amortized writes {per} should be O(log N) = 14"
        );
    }

    #[test]
    fn worst_case_insert_moves_whole_structure() {
        // Insert 2^k elements: the last insert merges everything; this is
        // exactly the behaviour deamortization removes.
        let mut c = BasicCola::new_plain();
        for i in 0..(1u64 << 10) {
            c.insert(i, i);
        }
        assert!(c.stats().max_cells_per_insert >= 1 << 10);
    }

    #[test]
    fn works_over_sim_mem_and_counts_transfers() {
        use cosbt_dam::{new_shared_sim, CacheConfig, SimMem};
        let sim = new_shared_sim(CacheConfig::new(512, 16));
        let mem: SimMem<Cell> = SimMem::with_elem_bytes(sim.clone(), 32);
        let mut c = BasicCola::new(mem);
        for i in 0..4096u64 {
            c.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i);
        }
        let transfers = sim.borrow().stats().transfers();
        assert!(transfers > 0);
        // Amortized transfers per insert should be O(log(N)/B) with
        // B = 512/32 = 16 cells: far below 1 per insert.
        let per = transfers as f64 / 4096.0;
        assert!(per < 12.0 / 16.0 * 4.0, "transfers/insert = {per}");
    }
}

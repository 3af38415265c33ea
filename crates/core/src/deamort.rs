//! Deamortization of the COLA (Section 3, Lemma 21 / Theorem 22).
//!
//! Each level k keeps **two** arrays of size `2^k`. A level is *unsafe*
//! while it holds exactly `2^{k+1}` items (both arrays full) and becomes
//! safe when both arrays empty. Each insertion places the new item in
//! level 0 and then scans the levels left to right, continuing the merges
//! of unsafe levels into the next level, stopping after moving `m = 2k + 2`
//! items (k = number of levels), which by Lemma 21 guarantees that two
//! adjacent levels are never simultaneously unsafe — so a free array always
//! exists to merge into. Worst-case insert cost drops from `O(N/B)` to
//! `O(log N)` while the amortized cost stays `O((log N)/B)`.
//!
//! Queries read completed (full) arrays only, each as a [`Run`]; a
//! merge's destination is invisible until the merge commits, and its
//! sources stay readable until then, so searches are never amortized
//! against merges.
//!
//! The paper deamortizes once more (Lemma 23 / Theorem 24): a third
//! array per level, shadow/visible status and lookahead pointers copied
//! down a level, all so that a search can follow those pointers. A search
//! here follows none: each full array's DRAM aux — fences, filter, ghost
//! sample — confines its probe to two strides, which is how this engine
//! meets Theorem 24's search bound. So it is the one deamortized COLA
//! (DESIGN.md, "Decided: one deamortized engine"). The stores the retired
//! engine wrote open through [`crate::legacy`] and this engine's
//! [`DeamortCola::bulk_load`].

use cosbt_dam::{Mem, PlainMem};

use crate::cascade::{build_aux, AuxBuilder, LevelAux};
use crate::cursor::RunMergeCursor;
use crate::dict::{Cursor, Dictionary};
use crate::entry::Cell;
use crate::persist::{spans, MetaError, MetaReader, MetaWriter, Persist, TAG_DEAMORT_BASIC};
use crate::run::{lookup, Run};
use crate::runbuf::RunBuf;
use crate::stats::ColaStats;

/// Per-structure metadata format version (see [`crate::persist`]).
/// Version 2 appends per-array cascade fence keys to version 1.
const META_VERSION: u8 = 2;

/// Which of a level's two arrays.
type Side = usize; // 0 or 1

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArrState {
    Empty,
    /// Holds `2^k` sorted items; `seq` orders recency within the level.
    Full {
        seq: u64,
    },
    /// Being written by an incoming merge; invisible to queries.
    Filling,
}

/// In-progress merge of level `k`'s two arrays into `dst` at level `k+1`.
#[derive(Debug, Clone)]
struct MergeState {
    dst_side: Side,
    /// Consumed prefix of source arrays 0 and 1.
    ia: usize,
    ib: usize,
    /// Cells written to the destination.
    w: usize,
    /// The destination's aux, fed one cell per budgeted move and
    /// published when the array commits — the accelerator respects the
    /// deamortized per-insert move bound.
    aux: AuxBuilder,
}

/// Deamortized COLA over any [`Mem`] backend.
#[derive(Debug)]
pub struct DeamortCola<M: Mem<Cell>> {
    mem: M,
    /// `state[k][side]`.
    state: Vec<[ArrState; 2]>,
    /// Merge progress for unsafe levels.
    merges: Vec<Option<MergeState>>,
    n: u64,
    seq: u64,
    stats: ColaStats,
    /// Largest number of cells moved by a single insert's mover pass.
    max_moves: u64,
    /// Per-array read accelerators, `aux[k][side]` in lockstep with
    /// `state` — `Some` exactly for `Full` arrays.
    aux: Vec<[Option<LevelAux>; 2]>,
    /// Staging for the rebuild scans, which reach `mem` as run-level
    /// calls.
    scratch: RunBuf,
}

/// Offset of array `side` of level `k`: levels are packed contiguously,
/// each holding two arrays of `2^k`.
#[inline]
fn arr_off(k: usize, side: Side) -> usize {
    2 * ((1usize << k) - 1) + side * (1usize << k)
}

/// Array `side` of level `k` as the run it holds: `2^k` cells when
/// full, none otherwise (a filling array is invisible).
fn arr_run<'a>(
    k: usize,
    side: Side,
    state: &[ArrState; 2],
    aux: &'a [Option<LevelAux>; 2],
) -> Run<'a> {
    let full = matches!(state[side], ArrState::Full { .. });
    Run {
        base: arr_off(k, side),
        len: if full { 1 << k } else { 0 },
        aux: aux[side].as_ref(),
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
        Self::bulk_load(mem, &[])
    }

    /// A deamortized COLA holding `live` (ascending, one item per key),
    /// N its length: one full array at level k for each set bit k of N,
    /// over `mem` uncleared, the slots past the levels left unread.
    pub fn bulk_load(mem: M, live: &[Cell]) -> Self {
        let mut cola = DeamortCola {
            mem,
            state: Vec::new(),
            merges: Vec::new(),
            n: live.len() as u64,
            seq: 0,
            stats: ColaStats::default(),
            max_moves: 0,
            aux: Vec::new(),
            scratch: RunBuf::new(),
        };
        cola.ensure_level(0);
        let mut rest = live;
        for k in (0..usize::BITS as usize).filter(|k| live.len() >> k & 1 == 1) {
            let (cells, tail) = rest.split_at(1 << k);
            cola.ensure_level(k);
            cola.mem.write_run(arr_off(k, 0), cells);
            cola.state[k][0] = ArrState::Full { seq: 0 };
            cola.aux[k][0] = Some(build_aux(cells.iter()));
            rest = tail;
        }
        cola
    }

    /// Number of cells stored: one per insert operation performed.
    pub fn insertions(&self) -> u64 {
        self.n
    }

    /// Number of levels allocated.
    pub fn num_levels(&self) -> usize {
        self.state.len()
    }

    /// Work counters.
    pub fn stats(&self) -> ColaStats {
        self.stats
    }

    /// Largest number of cells moved by any single insert — the worst-case
    /// bound Theorem 22 is about.
    pub fn max_moves_per_insert(&self) -> u64 {
        self.max_moves
    }

    /// Whether level `k` is unsafe (mid-merge).
    pub fn is_unsafe(&self, k: usize) -> bool {
        self.merges.get(k).is_some_and(|m| m.is_some())
    }

    fn ensure_level(&mut self, k: usize) {
        while self.state.len() <= k {
            self.state.push([ArrState::Empty; 2]);
            self.merges.push(None);
            self.aux.push([None, None]);
        }
        let need = arr_off(self.state.len(), 0);
        if self.mem.len() < need {
            self.mem.resize(need, Cell::default());
        }
    }

    /// Starts the merge of unsafe level `k` into a free array of `k+1`.
    fn begin_merge(&mut self, k: usize) {
        self.ensure_level(k + 1);
        let dst_side = (0..2)
            .find(|&s| self.state[k + 1][s] == ArrState::Empty)
            .expect("Lemma 21 violated: no free array in next level");
        self.state[k + 1][dst_side] = ArrState::Filling;
        self.merges[k] = Some(MergeState {
            dst_side,
            ia: 0,
            ib: 0,
            w: 0,
            aux: AuxBuilder::new(1 << (k + 1)),
        });
        self.stats.merges += 1;
    }

    /// Advances level `k`'s merge by at most `budget` moves; returns moves
    /// spent. Sources stay intact (readable) until commit.
    fn step_merge(&mut self, k: usize, budget: u64) -> u64 {
        let Some(mut ms) = self.merges[k].take() else {
            return 0;
        };
        let len = 1usize << k;
        // Tie-break: the newer source wins equal keys.
        let seq_of = |st: ArrState| match st {
            ArrState::Full { seq } => seq,
            _ => unreachable!("merging a non-full array"),
        };
        let newer_a = seq_of(self.state[k][0]) > seq_of(self.state[k][1]);
        let (a_base, b_base) = (arr_off(k, 0), arr_off(k, 1));
        let dst_base = arr_off(k + 1, ms.dst_side);
        let mut spent = 0u64;
        while spent < budget && (ms.ia < len || ms.ib < len) {
            let take_a = if ms.ia == len {
                false
            } else if ms.ib == len {
                true
            } else {
                let ka = self.mem.get(a_base + ms.ia).key;
                let kb = self.mem.get(b_base + ms.ib).key;
                ka < kb || (ka == kb && newer_a)
            };
            let v = if take_a {
                let v = self.mem.get(a_base + ms.ia);
                ms.ia += 1;
                v
            } else {
                let v = self.mem.get(b_base + ms.ib);
                ms.ib += 1;
                v
            };
            self.mem.set(dst_base + ms.w, v);
            ms.aux.push(&v);
            ms.w += 1;
            spent += 1;
            self.stats.cells_written += 1;
        }
        if ms.ia == len && ms.ib == len {
            // Commit: destination becomes full, sources empty, level safe.
            let seq = seq_of(self.state[k][0]).max(seq_of(self.state[k][1]));
            self.state[k + 1][ms.dst_side] = ArrState::Full { seq };
            self.state[k][0] = ArrState::Empty;
            self.state[k][1] = ArrState::Empty;
            self.aux[k][0] = None;
            self.aux[k][1] = None;
            self.aux[k + 1][ms.dst_side] = Some(ms.aux.finish());
            // The commit may have made level k+1 unsafe.
            self.maybe_mark_unsafe(k + 1);
        } else {
            self.merges[k] = Some(ms);
        }
        spent
    }

    fn maybe_mark_unsafe(&mut self, k: usize) {
        let both_full = self.state[k]
            .iter()
            .all(|s| matches!(s, ArrState::Full { .. }));
        if both_full && self.merges[k].is_none() {
            self.begin_merge(k);
        }
    }

    fn insert_cell(&mut self, cell: Cell) {
        self.n += 1;
        self.seq += 1;
        self.stats.inserts += 1;

        // Place the new item as a length-1 run in level 0.
        let side = (0..2)
            .find(|&s| self.state[0][s] == ArrState::Empty)
            .expect("level 0 has no free array: mover fell behind");
        self.mem.set(arr_off(0, side), cell);
        self.state[0][side] = ArrState::Full { seq: self.seq };
        self.aux[0][side] = Some(build_aux([cell].iter()));
        self.stats.cells_written += 1;
        self.maybe_mark_unsafe(0);

        // Mover: scan levels left to right, spending at most m moves.
        let k = self.state.len() as u64;
        let m = 2 * k + 2;
        let mut budget = m;
        let mut level = 0usize;
        while budget > 0 && level < self.state.len() {
            if self.merges[level].is_some() {
                budget -= self.step_merge(level, budget);
            }
            level += 1;
        }
        let moved = m - budget;
        self.max_moves = self.max_moves.max(moved);
        self.stats.max_cells_per_insert = self.stats.max_cells_per_insert.max(moved + 1);
    }

    /// Every array in directory order, as the run it holds.
    fn dir<'a>(
        state: &'a [[ArrState; 2]],
        aux: &'a [[Option<LevelAux>; 2]],
    ) -> impl Iterator<Item = Run<'a>> + 'a {
        let levels = state.iter().zip(aux).enumerate();
        levels.flat_map(|(k, (st, aux))| [0, 1].map(|side| arr_run(k, side, st, aux)))
    }

    /// The visible runs, newest first: smaller levels first and, within
    /// a level, the side with the higher `seq` first — the order point
    /// lookups and cursors alike read in. An array that is not full
    /// shows as an empty run.
    fn runs<'a>(
        state: &'a [[ArrState; 2]],
        aux: &'a [[Option<LevelAux>; 2]],
    ) -> impl Iterator<Item = Run<'a>> + 'a {
        let seq = |st: ArrState| match st {
            ArrState::Full { seq } => Some(seq),
            _ => None,
        };
        let levels = state.iter().zip(aux).enumerate();
        levels.flat_map(move |(k, (st, aux))| {
            let mut sides = [0, 1].map(|side| arr_run(k, side, st, aux));
            if seq(st[1]) > seq(st[0]) {
                sides.reverse();
            }
            sides
        })
    }

    /// Completes every in-flight merge (a merge commit can make the next
    /// level unsafe, so iterate to a fixpoint). Logical contents are
    /// unchanged; afterwards every array is `Empty` or `Full`, which is
    /// the only state [`Persist::save_meta`] serializes. The per-insert
    /// worst-case bound applies between quiesce points, not across one —
    /// a checkpoint is an O(data) event by nature.
    pub fn quiesce(&mut self) {
        while self.merges.iter().any(Option::is_some) {
            for k in 0..self.merges.len() {
                if self.merges[k].is_some() {
                    self.step_merge(k, u64::MAX);
                }
            }
        }
    }

    /// Reconstructs a deamortized COLA over an already-populated `mem`
    /// from persisted (quiesced) control state.
    pub fn from_parts(mem: M, meta: &[u8]) -> Result<Self, MetaError> {
        let mut r = MetaReader::new(meta, TAG_DEAMORT_BASIC, META_VERSION)?;
        let n = r.u64()?;
        let seq = r.u64()?;
        let count = r.level_count(60)?;
        let mut state = Vec::with_capacity(count);
        for _ in 0..count {
            let mut sides = [ArrState::Empty; 2];
            for side in &mut sides {
                *side = match r.u8()? {
                    0 => ArrState::Empty,
                    1 => ArrState::Full { seq: r.u64()? },
                    b => {
                        return Err(MetaError::Invalid(format!(
                            "array state byte {b} (a quiesced store has no filling arrays)"
                        )))
                    }
                };
            }
            state.push(sides);
        }
        let full = |st: &ArrState| matches!(st, ArrState::Full { .. });
        let fences = r.fences(state.iter().flatten().map(full))?;
        r.finish()?;
        spans(&mem, count, arr_off(count, 0))?;
        let mut cola = DeamortCola {
            mem,
            merges: vec![None; count],
            state,
            n,
            seq,
            stats: ColaStats::default(),
            max_moves: 0,
            aux: vec![[None, None]; count],
            scratch: RunBuf::new(),
        };
        // v2: corrupt cascade metadata is a typed `MetaError`, never a
        // wrong answer.
        for (i, fence) in fences.into_iter().enumerate() {
            if let Some(fence) = fence {
                let (k, side) = (i / 2, i % 2);
                let run = arr_run(k, side, &cola.state[k], &cola.aux[k]).bare();
                let what = format_args!("level {k} side {side}");
                let aux = run.reopen(
                    &cola.mem,
                    &mut cola.scratch,
                    fence,
                    run.len,
                    what,
                    |_, _| {},
                )?;
                cola.aux[k][side] = Some(aux);
            }
        }
        Ok(cola)
    }

    /// Verifies Lemma 21's guarantee and state consistency (for tests).
    pub fn check_invariants(&self) {
        for k in 0..self.state.len().saturating_sub(1) {
            assert!(
                !(self.is_unsafe(k) && self.is_unsafe(k + 1)),
                "levels {k} and {} simultaneously unsafe",
                k + 1
            );
        }
        for k in 0..self.state.len() {
            if let Some(ms) = &self.merges[k] {
                assert!(
                    self.state[k + 1][ms.dst_side] == ArrState::Filling,
                    "merge destination not marked filling"
                );
                assert!(
                    self.state[k]
                        .iter()
                        .all(|s| matches!(s, ArrState::Full { .. })),
                    "unsafe level {k} must have both arrays full"
                );
            }
        }
        // Every array as a run: sorted, aux present exactly when full.
        assert_eq!(self.aux.len(), self.state.len(), "aux out of lockstep");
        let mut cells = 0;
        for (i, run) in Self::dir(&self.state, &self.aux).enumerate() {
            run.check(
                &self.mem,
                run.len,
                format_args!("level {} side {}", i / 2, i % 2),
            );
            cells += run.len as u64;
        }
        assert_eq!(cells, self.n, "full arrays hold one cell per insert");
    }
}

impl<M: Mem<Cell>> Persist for DeamortCola<M> {
    fn save_meta(&mut self) -> Vec<u8> {
        self.quiesce();
        let mut w = MetaWriter::new(TAG_DEAMORT_BASIC, META_VERSION);
        w.u64(self.n).u64(self.seq).usize(self.state.len());
        for level in &self.state {
            for side in level {
                match side {
                    ArrState::Empty => {
                        w.u8(0);
                    }
                    ArrState::Full { seq } => {
                        w.u8(1).u64(*seq);
                    }
                    ArrState::Filling => unreachable!("quiesce left a filling array"),
                }
            }
        }
        // v2: each full array's fence keys.
        w.fences(&self.mem, Self::dir(&self.state, &self.aux));
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
        let runs = Self::runs(&self.state, &self.aux);
        lookup(&self.mem, &mut self.stats, runs, key)
    }

    fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_> {
        // In-flight merge destinations are invisible until commit, so the
        // cursor never observes a half-written array.
        let runs = Self::runs(&self.state, &self.aux);
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
    fn array_offsets_pack_levels() {
        assert_eq!(arr_off(0, 0), 0);
        assert_eq!(arr_off(0, 1), 1);
        assert_eq!(arr_off(1, 0), 2);
        assert_eq!(arr_off(1, 1), 4);
        assert_eq!(arr_off(2, 0), 6);
        for k in 0..20 {
            assert_eq!(arr_off(k, 1) + (1 << k), arr_off(k + 1, 0));
        }
    }

    type PlainCola = DeamortCola<PlainMem<Cell>>;

    /// Reopens `c` from its own `save_meta()`: the quiesced two-array
    /// format carries the whole dictionary, merges in flight included.
    fn reopened(mut c: PlainCola) -> PlainCola {
        let meta = c.save_meta();
        let c = DeamortCola::from_parts(c.mem.clone(), &meta).expect("own meta reopens");
        c.check_invariants();
        c
    }

    /// `ops` upserts of seeded keys below `keys`, spot-checked against a
    /// model every `every` inserts (reopening there when `reopen`), then
    /// every key checked.
    fn upserts_match_model(seed: u64, ops: u64, keys: u64, every: u64, reopen: bool) {
        let mut c = DeamortCola::new_plain();
        let mut model = std::collections::BTreeMap::new();
        let mut x = seed;
        for i in 0..ops {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % keys;
            c.insert(k, i);
            model.insert(k, i);
            if i % every == 0 {
                if reopen {
                    c = reopened(c);
                }
                c.check_invariants();
                for probe in [0, keys / 2, keys - 1, k] {
                    let want = model.get(&probe).copied();
                    assert_eq!(c.get(probe), want, "probe {probe} at {i}");
                }
            }
        }
        for probe in 0..keys {
            assert_eq!(c.get(probe), model.get(&probe).copied());
        }
        c.check_invariants();
    }

    #[test]
    fn inserts_and_gets_match_model() {
        upserts_match_model(11, 6000, 2500, 509, false);
    }

    #[test]
    fn inserts_and_gets_match_model_across_reopens() {
        upserts_match_model(3, 5000, 2000, 617, true);
    }

    /// The worst insert grows with log N, not N: at each size it stays
    /// within 3·log2 N cells on a scattered key stream.
    #[test]
    fn worst_case_moves_logarithmic() {
        let mut c = DeamortCola::new_plain();
        let mut i = 0u64;
        for lg in [8u64, 11, 14] {
            while i < 1 << lg {
                c.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i);
                i += 1;
            }
            assert!(
                c.max_moves_per_insert() <= 3 * lg,
                "worst case {} at N = 2^{lg} exceeds 3·log2 N",
                c.max_moves_per_insert()
            );
        }
        assert!(c.max_moves_per_insert() < 1 << 10);
    }

    #[test]
    fn worst_case_moves_bounded_by_m() {
        let mut c = DeamortCola::new_plain();
        for i in 0..(1u64 << 14) {
            c.insert(i, i);
        }
        let k = c.num_levels() as u64;
        assert!(
            c.max_moves_per_insert() <= 2 * k + 2,
            "worst case {} exceeds m = {}",
            c.max_moves_per_insert(),
            2 * k + 2
        );
        // Contrast: the amortized COLA's worst case is Θ(N).
        assert!(c.max_moves_per_insert() < 1 << 10);
    }

    #[test]
    fn no_adjacent_unsafe_levels_ever() {
        let mut c = DeamortCola::new_plain();
        for i in 0..20_000u64 {
            c.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i);
            if i % 256 == 255 {
                c.check_invariants();
            }
        }
        c.check_invariants();
    }

    /// Writes keys `0..n`, deletes every `del`-th, overwrites every
    /// `up`-th (reopening between the two when `reopen`), then checks each.
    fn deletes_then_upserts(n: u64, del: u64, up: u64, reopen: bool) {
        let mut c = DeamortCola::new_plain();
        for k in 0..n {
            c.insert(k, k);
        }
        for k in (0..n).filter(|k| k % del == 0) {
            c.delete(k);
        }
        if reopen {
            c = reopened(c);
        }
        for k in (0..n).filter(|k| k % up == 0) {
            c.insert(k, k + 9000);
        }
        for k in 0..n {
            let want = if k % up == 0 {
                Some(k + 9000)
            } else if k % del == 0 {
                None
            } else {
                Some(k)
            };
            assert_eq!(c.get(k), want, "key {k}");
        }
    }

    #[test]
    fn deletes_and_upserts() {
        deletes_then_upserts(800, 4, 6, false);
    }

    /// Tombstones and shadowed versions survive a reopen.
    #[test]
    fn deletes_and_upserts_across_reopen() {
        deletes_then_upserts(500, 3, 5, true);
    }

    #[test]
    fn range_sees_committed_state_only_but_completely() {
        let mut c = DeamortCola::new_plain();
        let mut model = std::collections::BTreeMap::new();
        for i in 0..777u64 {
            let k = (i * 37) % 1000;
            c.insert(k, i);
            model.insert(k, i);
        }
        let want: Vec<(u64, u64)> = model.range(100..=400).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(c.range(100, 400), want);
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

    #[test]
    fn amortized_cost_unchanged() {
        let mut c = DeamortCola::new_plain();
        let n = 1u64 << 13;
        for i in 0..n {
            c.insert(i, i);
        }
        let per = c.stats().cells_written as f64 / n as f64;
        assert!(
            per < 2.0 * 13.0,
            "amortized writes {per} should stay O(log N)"
        );
    }
}

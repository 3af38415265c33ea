//! The g-COLA: the paper's implemented lookahead array (Section 4),
//! parametrized by growth factor `g` and pointer density `p`.
//!
//! Structure (quoting Section 4):
//!
//! * level ℓ has item capacity 1 for ℓ = 0 and `2(g−1)g^{ℓ−1}` for ℓ > 0,
//!   plus `⌊2p(g−1)g^{ℓ−1}⌋` *redundant elements* — real lookahead pointers
//!   into level ℓ+1;
//! * a level receives `g−1` merges before being merged into a higher level;
//! * partially full levels keep their elements right-justified (here a
//!   level keeps its run anywhere in its slots, and records where: see
//!   below);
//! * elements are 32 bytes; each real element holds a copy of the closest
//!   real lookahead pointer to its left, and each redundant element holds
//!   its own lookahead pointer (see [`crate::entry::Cell`]);
//! * searches proceed as in Lemma 20, with right-hand lookahead pointers
//!   computed on the fly by scanning: each level is probed as a [`Run`]
//!   inside the bracket its predecessor's pointers give
//!   ([`GCola::get_plain`]), which [`Dictionary::get`] intersects with
//!   the level's DRAM aux.
//!
//! Levels 0 and 1 are the paper's smallest levels, which in its DAM
//! analysis always sit in the cache M and cost no transfer. Here their
//! items live in DRAM as one sorted array, the *head*: one version per
//! key, at most `cap(0) + cap(1) = 2g − 1` cells, allocated once. An
//! insert or delete goes into the head by binary search; a write to a key
//! the head holds replaces it, and a tombstone with nothing stored beneath
//! it removes the key instead of being kept. When a new key finds the
//! head full, the head and that cell — `2g` sorted cells — become the new
//! run of an ordinary carry, which lands in level 2 exactly when, and with
//! exactly what, a cell-at-a-time path through levels 0 and 1 would carry
//! there. A batch merges into the head and stays there if it fits, and is
//! one carry otherwise. Levels 0 and 1 keep their geometry and slots, so
//! every deeper offset is the paper's, but they never hold an item: only
//! lookahead cells, where their redundancy allowance has room for any.
//! A lookup probes the head first, a cursor merges it as its newest run,
//! and the persisted control state carries it.
//!
//! `g = 2` gives the COLA: `O((log N)/B)` amortized insert transfers and
//! `O(log N)` search transfers. `g = Θ(Bᵉ)` gives the cache-aware lookahead
//! array matching the Bᵉ-tree: `O((log_{Bᵉ+1} N)/B^{1−ε})` inserts and
//! `O(log_{Bᵉ+1} N)` searches ([`GCola::cache_aware`]). `g = 2, p = 0` is
//! Section 3's basic COLA ([`GCola::basic`]): level k has `2^k` slots at
//! slot `2^k`, and on distinct keys it is full exactly when bit k of N is
//! set (Invariant 1), with an `O(log² N)` plain search.
//!
//! The merge policy is the constructor's too: [`GCola::deamortized`] is
//! Section 3's deamortized COLA (Lemma 21, Theorem 22), the basic COLA
//! with every level split into two *extents* of `2^k` slots, listed
//! newest first. The head's overflow seals a free extent of level 2; a
//! level with two sealed extents is *unsafe*, and the carry's fold merges
//! them into a free extent of the next level, which fills invisibly, at
//! most `m = 2·levels + 2` source cells per insert.
//!
//! The merge, as in the paper, happens in the array with fixed extra
//! space. The paper merges two levels at a time, alternating the result
//! between the start of the target level and the freed prefix, to need
//! one spare element (slot 0, still kept spare so that every stored
//! offset is the paper's). Here a carry into level t merges all its
//! sources at once — the new run, levels `0..t`, the target's old run —
//! through a chain of two-way merges that reads each source through a
//! chunk of its own and hands the output back a cell at a time
//! (`merge.rs`), and writes it straight into level t: every source cell
//! is read once and every output cell written once, at most the paper's
//! block-transfer count, with a fixed DRAM scratch and no allocation. A
//! level so holds one version per key, and the deepest one no tombstone.
//!
//! The output goes to level t in slot order, from `m` slots before the
//! old run, `m` being the newer sources' item count: at most `m` of them
//! have gone out before any given cell of the old run, so no write passes
//! a cell not yet read. Each level so records its run's *lead*, the free
//! slots before it; what a merge drops leaves free slots after it. A
//! carry that finds a lead shorter than `m` first moves the old run to
//! the level's right end (`ColaStats::run_moves`) — only after earlier
//! carries into the level dropped cells.
//!
//! The lookahead pointers cost a carry no read of their own, because the
//! paper stores them *in* the level that uses them. The invariant, held
//! after every operation and checked by [`GCola::check_invariants`] and
//! on reopen: level ℓ's redundant cells are exactly the fixed-stride
//! sample of level ℓ+1's run, the cells at positions `i·S + ⌊S/2⌋` for
//! `S = ⌈slots(ℓ+1) / red_cap(ℓ)⌉` — a rule that, like Lemma 20's "every
//! eighth cell", needs no run length, so a writer takes the sample as the
//! cells stream past. A carry into level t leaves level t+1 alone, so the
//! redundant cells it meets while reading level t are already the
//! pointers the rewritten level t needs; every level below t samples a
//! run this carry writes, and takes its sample off the rewrite as it
//! streams out. A carry therefore touches levels `0..=t` and nothing
//! above them.

use cosbt_dam::{Mem, PlainMem};

use crate::cascade::{AuxBuilder, LevelAux, Probe};
use crate::cursor::RunMergeCursor;
use crate::dict::{Cursor, Dictionary, UpdateBatch};
use crate::entry::{Cell, META_TOMBSTONE, NO_PTR};
use crate::merge::{Fold, FoldAt, Head, Source};
use crate::persist::{MetaError, MetaReader, MetaWriter, Persist, TAG_DEAMORT_BASIC, TAG_GCOLA};
use crate::run::Run;
use crate::runbuf::{each, RunBuf, CHUNK};
use crate::stats::ColaStats;

/// Per-structure metadata format version (see [`crate::persist`]).
/// Version 2 appended per-level run fence keys to version 1; version 3
/// adds each level's lead, and samples the level above at a fixed stride;
/// version 4 adds the head, whose items levels 0 and 1 held before
/// (versions 2 and 3 open through [`crate::legacy`]).
const META_VERSION: u8 = 4;

/// The tag and version of the meta each merge policy writes, amortized
/// first. The deamortized policy's version 3 is version 4's body and a
/// state byte per extent (its version 2 opens through [`crate::legacy`]).
const FORMATS: [(u8, u8); 2] = [(TAG_GCOLA, META_VERSION), (TAG_DEAMORT_BASIC, 3)];

/// Slots an emptied level's aux may describe and still wait in
/// `spare_aux` for the next level to be filled; a larger one is freed.
const SPARE_AUX_SLOTS: usize = 1024;

/// Per-level geometry and occupancy.
#[derive(Debug, Clone, Copy)]
struct Level {
    /// First slot of this level.
    off: usize,
    /// Total slots (item capacity + redundancy allowance).
    slots: usize,
    /// Item capacity.
    cap: usize,
    /// Redundancy allowance (maximum lookahead cells).
    red_cap: usize,
    /// Real cells currently stored (items + tombstones).
    items: usize,
    /// Redundant cells currently stored.
    reds: usize,
    /// Free slots before the run; the rest of the free slots follow it.
    lead: usize,
}

impl Level {
    /// Occupied cells (items + redundant).
    fn occ(&self) -> usize {
        self.items + self.reds
    }

    /// First occupied slot.
    fn run_base(&self) -> usize {
        self.off + self.lead
    }

    /// The occupied cells as a run (empty when the level is).
    fn run<'a>(&self, aux: &'a Option<LevelAux>) -> Run<'a> {
        Run {
            base: self.run_base(),
            len: self.occ(),
            aux: aux.as_ref(),
        }
    }

    /// The stride of the lookahead sample this level keeps of `above`,
    /// the level after it.
    fn stride(&self, above: &Level) -> Stride {
        match self.red_cap {
            0 => Stride(0),
            red_cap => Stride(above.slots.div_ceil(red_cap)),
        }
    }
}

/// The lookahead sample a level keeps of the run above it: the cells at
/// run positions `i·S + ⌊S/2⌋`, as many as the run reaches, for the
/// stride `S = ⌈slots(ℓ+1) / red_cap(ℓ)⌉` its geometry fixes (0: no
/// sample). At most `red_cap(ℓ)` cells fit a run of the level's slots.
/// It is the fixed-stride rule of Lemma 20's "every eighth cell", and it
/// needs no run length, so a writer takes it as the cells stream past.
#[derive(Debug, Clone, Copy)]
struct Stride(usize);

impl Stride {
    /// Run position of the `i`-th sample.
    fn pos(self, i: usize) -> usize {
        i * self.0 + self.0 / 2
    }

    /// Samples a run of `occ` cells holds.
    fn count(self, occ: usize) -> usize {
        match self.0 {
            0 => 0,
            s => occ.saturating_sub(s / 2).div_ceil(s),
        }
    }

    /// Hands `f` the position and cell of each sample inside `chunk`, the
    /// part of a run starting at position `off`, from sample `*next` on,
    /// and advances `*next`. Called on every chunk of a sweep in order, it
    /// costs a compare per chunk and a call per sample: nothing per cell.
    fn tap(self, next: &mut usize, off: usize, chunk: &[Cell], mut f: impl FnMut(usize, &Cell)) {
        if self.0 == 0 {
            return;
        }
        while let Some(cell) = chunk.get(self.pos(*next) - off) {
            f(self.pos(*next), cell);
            *next += 1;
        }
    }
}

/// The g-COLA of Section 4 over any [`Mem`] backend.
#[derive(Debug)]
pub struct GCola<M: Mem<Cell>> {
    mem: M,
    levels: Vec<Level>,
    g: usize,
    p: f64,
    n: u64,
    stats: ColaStats,
    /// Per-level read accelerators (fences, filter, ghost sample) in
    /// lockstep with `levels` — `Some` exactly for occupied levels.
    /// Every level rewrite goes through [`GCola::rewrite`], which
    /// rebuilds the level's aux inline, so it can never go stale.
    aux: Vec<Option<LevelAux>>,
    /// Staging for the contiguous sweeps (level rewrites, rebuild scans),
    /// which reach `mem` as run-level calls.
    scratch: RunBuf,
    /// Carry scratch, all of it fixed by the level geometry: a source
    /// chunk and a cached merge head per level (`merge.rs`), and the
    /// keys of the lookahead sample the cascade below a carry passes down.
    sources: Vec<Source>,
    heads: Vec<Head>,
    /// The cells of every source chunk.
    chunk_cells: usize,
    down: Vec<u64>,
    /// Small auxes of emptied levels awaiting reuse (at most one per
    /// level).
    spare_aux: Vec<LevelAux>,
    /// The items of levels 0 and 1, in fast memory: sorted, one real
    /// cell per key, at most `2g − 1` between operations. Its buffer has
    /// `2g` slots — the last for the cell that overflows it into a carry
    /// — and is allocated once.
    head: Vec<Cell>,
    /// The merge policy: amortized carries, or budgeted merges, two
    /// extents a level ([`GCola::deamortized`]).
    budgeted: bool,
    /// The budgeted merges in flight, by the extent each fills, which
    /// holds no item in the directory until the merge commits.
    fills: Vec<(usize, Fill)>,
}

/// A budgeted merge in flight: where its fold stands, the cells written
/// from its extent's first slot, and their aux.
#[derive(Debug)]
struct Fill {
    at: FoldAt,
    written: usize,
    aux: LevelAux,
}

impl GCola<PlainMem<Cell>> {
    /// A g-COLA over plain heap memory with the paper's pointer density
    /// `p = 0.1`.
    pub fn new_plain(g: usize) -> Self {
        Self::new(PlainMem::new(), g, 0.1)
    }
}

impl<M: Mem<Cell>> GCola<M> {
    /// Creates an empty g-COLA with growth factor `g ≥ 2` and pointer
    /// density `0 ≤ p < 1` over `mem` (cleared).
    pub fn new(mut mem: M, g: usize, p: f64) -> Self {
        mem.resize(0, Cell::default());
        Self::bulk_load(mem, g, p, &[])
    }

    /// An empty structure over `mem`, uncleared, with no level.
    fn bare(mem: M, g: usize, p: f64, n: u64, budgeted: bool) -> Self {
        GCola {
            mem,
            levels: Vec::new(),
            g,
            p,
            n,
            stats: ColaStats::default(),
            aux: Vec::new(),
            scratch: RunBuf::new(),
            sources: Vec::new(),
            heads: Vec::new(),
            chunk_cells: 0,
            down: Vec::new(),
            spare_aux: Vec::new(),
            head: Vec::with_capacity(2 * g),
            budgeted,
            fills: Vec::new(),
        }
    }

    /// [`GCola::new`] holding `live` (ascending, one item per key) as
    /// [`GCola::compact`] would, over `mem` uncleared: the slots past the
    /// levels keep what they hold, unread.
    pub fn bulk_load(mem: M, g: usize, p: f64, live: &[Cell]) -> Self {
        assert!(g >= 2, "growth factor must be at least 2");
        assert!((0.0..1.0).contains(&p), "pointer density in [0, 1)");
        let mut this = Self::bare(mem, g, p, 0, false);
        this.load(live);
        this
    }

    /// The COLA of Lemma 20: growth factor 2 with lookahead pointers
    /// sampling roughly every eighth cell of the next level (`p = 0.125`).
    pub fn cola(mem: M) -> Self {
        Self::new(mem, 2, 0.125)
    }

    /// Section 3's basic COLA: growth factor 2 and no lookahead pointers,
    /// so level k is `2^k` slots at slot `2^k` and every level is
    /// searched in full by [`GCola::get_plain`].
    pub fn basic(mem: M) -> Self {
        Self::new(mem, 2, 0.0)
    }

    /// Section 3's deamortized COLA: the basic COLA with budgeted merges,
    /// so no insert moves more than `2·levels + 2` cells and the head's.
    pub fn deamortized(mut mem: M) -> Self {
        mem.resize(0, Cell::default());
        Self::deamortized_bulk_load(mem, &[])
    }

    /// [`GCola::deamortized`] holding `live`, as [`GCola::bulk_load`].
    pub fn deamortized_bulk_load(mem: M, live: &[Cell]) -> Self {
        let mut this = Self::bare(mem, 2, 0.0, 0, true);
        this.load(live);
        this
    }

    /// The cache-aware lookahead array: growth factor `Θ(Bᵉ)` for block
    /// size `b` (in cells), matching the Bᵉ-tree bounds of Brodal and
    /// Fagerberg. `eps = 1.0` behaves like a B-tree-ish point; `eps = 0.0`
    /// like the COLA.
    pub fn cache_aware(mem: M, b: usize, eps: f64) -> Self {
        let g = ((b as f64).powf(eps)).round().max(2.0) as usize;
        // One lookahead pointer per Θ(Bᵉ) cells of the next level.
        let p = (1.0 / g as f64).min(0.5);
        Self::new(mem, g, p)
    }

    /// Growth factor.
    pub fn growth(&self) -> usize {
        self.g
    }

    /// Pointer density.
    pub fn pointer_density(&self) -> f64 {
        self.p
    }

    /// Insert operations performed.
    pub fn insertions(&self) -> u64 {
        self.n
    }

    /// Number of levels allocated.
    pub fn num_levels(&self) -> usize {
        self.levels.len() >> self.budgeted as usize
    }

    /// Work counters.
    pub fn stats(&self) -> ColaStats {
        self.stats
    }

    /// Borrow the backing store (for simulator statistics).
    pub fn mem(&self) -> &M {
        &self.mem
    }

    /// Reconstructs a g-COLA over an already-populated `mem` from
    /// persisted control state, in either policy's format. Growth factor
    /// and pointer density are restored from the metadata (they shaped the
    /// existing level geometry); occupancy is validated against the store.
    pub fn from_parts(mem: M, meta: &[u8]) -> Result<Self, MetaError> {
        let budgeted = meta.first() == Some(&TAG_DEAMORT_BASIC);
        let (tag, version) = FORMATS[budgeted as usize];
        let mut r = MetaReader::new(meta, tag, version)?;
        let g = r.usize()?;
        let p = r.f64()?;
        let n = r.u64()?;
        let count = r.level_count(64 << budgeted as usize)?;
        let mut levels: Vec<Level> = Vec::with_capacity(count);
        for i in 0..count {
            let lv = Level {
                off: r.usize()?,
                slots: r.usize()?,
                cap: r.usize()?,
                red_cap: r.usize()?,
                items: r.usize()?,
                reds: r.usize()?,
                lead: r.usize()?,
            };
            // Empty or sealed, and a level never sealed twice: `save_meta`
            // quiesces, so no merge is in flight or due.
            let twice = i % 2 == 1 && lv.items > 0 && levels[i - 1].items > 0;
            if budgeted && (r.u8()? != (lv.items > 0) as u8 || twice) {
                let why = format!("extent {i} is filling, sealed twice or not its items");
                return Err(MetaError::Invalid(why));
            }
            levels.push(lv);
        }
        // Read cell by cell: a corrupt count runs out of payload before it
        // can ask for memory.
        let head = (0..r.usize()?)
            .map(|_| {
                let (key, val, kind) = (r.u64()?, r.u64()?, r.u8()?);
                Ok(Cell {
                    key,
                    val,
                    ptr: NO_PTR,
                    meta: kind as u64,
                })
            })
            .collect::<Result<Vec<Cell>, MetaError>>()?;
        let fences = r.fences(levels.iter().map(|lv| lv.occ() > 0))?;
        r.finish()?;
        if g < 2 {
            return Err(MetaError::Invalid(format!("growth factor {g}")));
        }
        if !(0.0..1.0).contains(&p) {
            return Err(MetaError::Invalid(format!("pointer density {p}")));
        }
        if (count >> budgeted as usize) < 2 || (budgeted && (count % 2, g, p) != (0, 2, 0.0)) {
            let why = format!("{count} levels, g = {g}, p = {p}");
            return Err(MetaError::Invalid(why));
        }
        for (i, lv) in levels.iter().enumerate() {
            // Checked arithmetic throughout: crafted fields near
            // usize::MAX must fail validation, not wrap past it (or
            // panic in debug builds). The level's capacities are the ones
            // g and p give it, which bounds g by the store's length before
            // the head's buffer of 2g cells is allocated.
            let l = i >> budgeted as usize;
            let geometry_ok = Self::geometry(g, p, l) == Some((lv.cap, lv.red_cap))
                && (l >= 2 || lv.items == 0)
                && lv.cap.checked_add(lv.red_cap) == Some(lv.slots)
                && lv.items <= lv.cap
                && lv.reds <= lv.red_cap
                && lv
                    .lead
                    .checked_add(lv.occ())
                    .is_some_and(|end| end <= lv.slots)
                && lv
                    .off
                    .checked_add(lv.slots)
                    .is_some_and(|end| end <= mem.len());
            if !geometry_ok {
                return Err(MetaError::Invalid(format!(
                    "level {i} geometry/occupancy out of bounds"
                )));
            }
        }
        // A level's extents tile its span, in either order, a pair's from a
        // multiple of its width, and the spans follow one another.
        let mut end = 1usize;
        for w in levels.chunks(1 << budgeted as usize) {
            let offs = || w.iter().map(|lv| lv.off);
            let start = end.next_multiple_of(if budgeted { 2 * w[0].slots } else { 1 });
            end = start + w.len() * w[0].slots;
            if offs().min() != Some(start) || offs().max() != Some(end - w[0].slots) {
                return Err(MetaError::Invalid("levels are not contiguous".into()));
            }
        }
        for (l, lv) in levels.iter().enumerate() {
            let want = levels.get(l + 1).map_or(0, |a| lv.stride(a).count(a.occ()));
            if lv.reds != want {
                return Err(MetaError::Invalid(format!(
                    "level {l} lookahead count {} does not sample the level above",
                    lv.reds
                )));
            }
        }
        // The head: what a carry would take for the newest run, so it is
        // held to the run rule (sorted, one real cell per key), and no
        // longer than levels 0 and 1 hold.
        if head.len() > 2 * g - 1 {
            return Err(MetaError::Invalid(format!(
                "head of {} cells, more than 2g − 1 = {}",
                head.len(),
                2 * g - 1
            )));
        }
        if let Some(c) = head.iter().find(|c| !matches!(c.meta, 0 | META_TOMBSTONE)) {
            return Err(MetaError::Invalid(format!(
                "head cell of key {} is not an item or a tombstone",
                c.key
            )));
        }
        if let Some(w) = head.windows(2).find(|w| w[0].key >= w[1].key) {
            return Err(MetaError::Invalid(format!(
                "head keys {} then {}: unsorted or repeated",
                w[0].key, w[1].key
            )));
        }
        let mut cola = Self::bare(mem, g, p, n, budgeted);
        cola.head.extend_from_slice(&head);
        for lv in levels {
            cola.push_geometry(lv);
        }
        // Corrupt cascade metadata is a typed `MetaError`, never a wrong
        // answer. The reopen scans also check the lookahead invariant: a
        // carry trusts a level's stored redundant cells to be the sample
        // of the run above, so they are validated here, each level's
        // (`below`) against the next scan's own sample.
        let mut below: Vec<(u64, u64)> = Vec::new();
        for (l, fence) in fences.into_iter().enumerate() {
            let lv = cola.levels[l];
            let mut reds = Vec::with_capacity(lv.reds);
            if let Some(fence) = fence {
                let stride = l
                    .checked_sub(1)
                    .map_or(Stride(0), |j| cola.levels[j].stride(&lv));
                let (mut expect, mut next, mut sampled_ok) = (below.iter(), 0, true);
                let tap = |off: usize, chunk: &[Cell]| {
                    let redundant = chunk.iter().filter(|c| c.is_redundant());
                    reds.extend(redundant.map(|c| (c.key, c.ptr)));
                    stride.tap(&mut next, off, chunk, |pos, c| {
                        sampled_ok &= expect.next() == Some(&(c.key, pos as u64));
                    });
                };
                let run = lv.run(&cola.aux[l]).bare();
                let what = format_args!("level {l}");
                let aux = run.reopen(&cola.mem, &mut cola.scratch, fence, lv.cap, what, tap)?;
                if !sampled_ok || expect.next().is_some() {
                    return Err(MetaError::Invalid(format!(
                        "level {} lookahead cells are not the fixed-stride sample of level {l}",
                        l - 1
                    )));
                }
                cola.aux[l] = Some(aux);
            }
            if reds.len() != lv.reds {
                return Err(MetaError::Invalid(format!(
                    "level {l} lookahead count {} but {} redundant cells stored",
                    lv.reds,
                    reds.len()
                )));
            }
            below = reds;
        }
        Ok(cola)
    }

    /// Appends level `lv` to the directory with its carry scratch: the
    /// source chunk that reads it (allocated here, once) and its cached
    /// merge head.
    fn push_geometry(&mut self, lv: Level) {
        self.levels.push(lv);
        self.aux.push(None);
        let source = Source::new(lv.slots);
        self.chunk_cells += source.cells();
        self.sources.push(source);
        self.heads.push(Head::END);
    }

    /// Item capacity and redundancy allowance of level `l` at growth
    /// factor `g` and pointer density `p` (Section 4): 1 and 0 for level
    /// 0, else `2(g−1)g^{l−1}` and `⌊2p(g−1)g^{l−1}⌋`. `None` past `usize`.
    fn geometry(g: usize, p: f64, l: usize) -> Option<(usize, usize)> {
        let Some(l) = l.checked_sub(1) else {
            return Some((1, 0));
        };
        let scale = (g - 1).checked_mul(g.checked_pow(u32::try_from(l).ok()?)?)?;
        let red = (2.0 * p * (g - 1) as f64 * (g as f64).powi(l as i32)).floor() as usize;
        Some((scale.checked_mul(2)?, red))
    }

    /// Appends the next `count` levels — under the budgeted policy, two
    /// extents each, side by side from a multiple of their span, so that,
    /// as in the basic COLA, no page dividing an extent is split between
    /// two — and grows the store, once, to their end: growing within a
    /// page the store already has fills the new slots cell by cell, so
    /// levels 0 and 1, which end on page 0, are grown in one step.
    fn push_levels(&mut self, count: usize) {
        // A budgeted level's extents may be listed in either order.
        let mut end = self.levels.iter().map(|l| l.off + l.slots).max();
        for _ in 0..count {
            let idx = self.num_levels();
            let Some((cap, red_cap)) = Self::geometry(self.g, self.p, idx) else {
                panic!("level {idx}'s capacity overflows usize");
            };
            let slots = cap + red_cap;
            let at = end.unwrap_or(1); // slot 0 spare, as in the paper
            let off = at.next_multiple_of(if self.budgeted { 2 * slots } else { 1 });
            end = Some(off + (slots << self.budgeted as usize));
            for side in 0..1 << self.budgeted as usize {
                self.push_geometry(Level {
                    off: off + side * slots,
                    slots,
                    cap,
                    red_cap,
                    items: 0,
                    reds: 0,
                    lead: slots,
                });
            }
        }
        let end = end.unwrap_or(0);
        if self.mem.len() < end {
            self.mem.resize(end, Cell::default());
        }
    }

    /// The stride of the sample level `l − 1` keeps of level `l`.
    fn stride_below(&self, l: usize) -> Stride {
        l.checked_sub(1)
            .map_or(Stride(0), |j| self.levels[j].stride(&self.levels[l]))
    }

    /// Writes level `l`'s new run from slot `start` on: the cells `next`
    /// puts in the chunks [`RunBuf::fill`] hands it, in slot order, each
    /// real one given a copy of the nearest lookahead pointer to its
    /// left. Leaves in `down`, if given, the keys of the lookaheads level
    /// `l − 1` keeps of the new run, taken off the staged chunks as they
    /// go to the store.
    ///
    /// The level's new aux is built as the cells stream past, into the
    /// buffers of the aux it replaces, whatever their size, so rewriting
    /// a big level neither frees nor faults in its filter and ghost
    /// sample. The filter is sized for the level's item capacity, not
    /// the run (whose length the first cell does not know), and the ghost
    /// buffer for its slots, so a level's buffers never grow after its
    /// first rewrite: what a level retains is bounded by its own size,
    /// under 3.5 bytes per slot beside the 32 a slot holds in `mem` — a
    /// ghost buffer of one 8-byte key per 8 slots and, once it has held
    /// items, a filter of at most 20 bits per item it can hold. An
    /// emptied level parks a small aux in `spare_aux` for the next level
    /// to be filled and frees any other.
    fn rewrite(
        &mut self,
        l: usize,
        start: usize,
        mut next: impl FnMut(&M, &mut [Cell]) -> usize,
        mut down: Option<&mut Vec<u64>>,
    ) {
        let lv = self.levels[l];
        let retired = self.aux[l].take().or_else(|| self.spare_aux.pop());
        let mut aux = AuxBuilder::recycling(lv.slots, lv.cap, retired);
        let (mut last_ptr, mut items) = (NO_PTR, 0);
        let weave = |mem: &M, out: &mut [Cell]| {
            let n = next(mem, out);
            for cell in &mut out[..n] {
                if cell.is_redundant() {
                    last_ptr = cell.ptr;
                } else {
                    cell.ptr = last_ptr;
                    items += 1;
                }
                aux.push(cell);
            }
            n
        };
        let (sample, mut sampled) = (self.stride_below(l), 0);
        if let Some(down) = down.as_deref_mut() {
            // Room for the most samples the level below can hold, whatever
            // the run comes to: the buffer never grows mid-cascade.
            down.clear();
            down.reserve_exact(l.checked_sub(1).map_or(0, |j| self.levels[j].red_cap));
        }
        let occ = self
            .scratch
            .fill(&mut self.mem, start, weave, |off, chunk| {
                if let Some(down) = down.as_deref_mut() {
                    sample.tap(&mut sampled, off, chunk, |_, c| down.push(c.key));
                }
            });
        assert!(start + occ <= lv.off + lv.slots, "level {l} overflow");
        self.stats.cells_written += occ as u64;
        let lv = &mut self.levels[l];
        (lv.items, lv.reds) = (items, occ - items);
        let aux = aux.finish();
        if occ == 0 {
            lv.lead = lv.slots;
            if aux.capacity() <= SPARE_AUX_SLOTS {
                self.spare_aux.push(aux);
            }
        } else {
            lv.lead = start - lv.off;
            self.aux[l] = Some(aux);
        }
    }

    /// Writes level `l`'s new content right-justified: `items` (sorted,
    /// one real cell per key) woven with lookahead cells for the keys
    /// `las` (sorted), the `i`-th pointing at sample position `i` of the
    /// level above, lookaheads first among equal keys. Leaves in `down`,
    /// if given, the sample level `l − 1` keeps of the new run.
    fn write_level(&mut self, l: usize, items: &[Cell], las: &[u64], down: Option<&mut Vec<u64>>) {
        let lv = self.levels[l];
        let occ = items.len() + las.len();
        assert!(occ <= lv.slots, "level {l} overflow: {occ} > {}", lv.slots);
        if occ == 0 {
            self.clear(l);
            down.into_iter().for_each(Vec::clear);
            return;
        }
        let stride = self.levels.get(l + 1).map_or(Stride(0), |a| lv.stride(a));
        let (mut a, mut b) = (0, 0);
        let weave = |_: &M, out: &mut [Cell]| {
            each(out, || {
                let take_la = b < las.len() && items.get(a).is_none_or(|c| las[b] <= c.key);
                if take_la {
                    b += 1;
                    Some(Cell::lookahead(las[b - 1], stride.pos(b - 1) as u64))
                } else {
                    a += 1;
                    items.get(a - 1).copied()
                }
            })
        };
        self.rewrite(l, lv.off + lv.slots - occ, weave, down);
    }

    /// Empties level `l`, parking its aux.
    fn clear(&mut self, l: usize) {
        let retired = self.aux[l].take();
        self.spare_aux
            .extend(retired.filter(|a| a.capacity() <= SPARE_AUX_SLOTS));
        let lv = &mut self.levels[l];
        (lv.items, lv.reds, lv.lead) = (0, 0, lv.slots);
    }

    /// Rewrites levels `t−1..0`, emptied of items, as the lookahead
    /// pointers into the level above each. `down` holds the keys of the
    /// sample the rewrite of level `t` left. A level below holds nothing
    /// but its sample, so the next level's sample is every `S`-th of those
    /// keys: `down` is narrowed to it in place, and the cascade reads
    /// nothing.
    fn relink_below(&mut self, t: usize, down: &mut Vec<u64>) {
        for j in (0..t).rev() {
            self.write_level(j, &[], down, None);
            let stride = self.stride_below(j);
            let n = stride.count(down.len());
            for i in 0..n {
                down[i] = down[stride.pos(i)];
            }
            down.truncate(n);
        }
    }

    /// Whether no level past `t` holds an item: then nothing older than
    /// a carry into `t` (or than the head, for `t = 1`) stays stored for
    /// its tombstones to shadow.
    fn deepest(&self, t: usize) -> bool {
        self.levels.iter().skip(t + 1).all(|lv| lv.items == 0)
    }

    /// Cells the head holds at most between operations: `cap(0) +
    /// cap(1)`.
    fn head_cap(&self) -> usize {
        2 * self.g - 1
    }

    /// The paper's insertion of one cell, into the head: it replaces the
    /// key's cell there, or a tombstone with nothing stored beneath it
    /// takes the key out; a new key goes in by binary search, and the
    /// `2g`-th carries the head into level 2 — budgeted, seals a free
    /// extent there, and the mover runs. Every discarded cell counts in
    /// `cells_dropped`.
    fn insert_cell(&mut self, cell: Cell) {
        let before = self.stats.cells_written;
        self.n += 1;
        self.stats.inserts += 1;
        let spent = cell.is_tombstone() && self.deepest(1);
        match self.head.binary_search_by_key(&cell.key, |c| c.key) {
            Ok(i) if spent => {
                self.head.remove(i);
                self.stats.cells_dropped += 2;
            }
            Ok(i) => {
                self.head[i] = cell;
                self.stats.cells_dropped += 1;
            }
            Err(_) if spent => self.stats.cells_dropped += 1,
            Err(i) => {
                self.head.insert(i, cell);
                if self.head.len() > self.head_cap() {
                    let head = std::mem::take(&mut self.head);
                    if self.budgeted {
                        let e = self.free_extent(2);
                        self.write_level(e, &head, &[], None);
                        self.sealed(e);
                    } else {
                        self.insert_run(&head);
                    }
                    self.head = head;
                    self.head.clear();
                }
            }
        }
        if self.budgeted {
            self.mover();
            let w = self.stats.cells_written - before;
            self.stats.max_cells_per_insert = self.stats.max_cells_per_insert.max(w);
        }
    }

    /// A batch's cells (sorted, one per key, newer than everything
    /// stored): merged over the head, the batch winning a key both hold,
    /// spent tombstones out when nothing is stored beneath. What fits
    /// the head stays there; anything larger is one carry. Budgeted, each
    /// cell is an insert of its own.
    fn absorb(&mut self, mut run: Vec<Cell>) {
        if self.budgeted {
            run.into_iter().for_each(|cell| self.insert_cell(cell));
            return;
        }
        if run.is_empty() {
            return;
        }
        self.n += run.len() as u64;
        self.stats.inserts += run.len() as u64;
        let received = self.head.len() + run.len();
        if !self.head.is_empty() {
            let mut merged = Vec::with_capacity(received);
            let mut older = self.head.iter().copied().peekable();
            for cell in run {
                merged.extend(std::iter::from_fn(|| older.next_if(|c| c.key < cell.key)));
                older.next_if(|c| c.key == cell.key);
                merged.push(cell);
            }
            merged.extend(older);
            run = merged;
        }
        if self.deepest(1) {
            run.retain(|c| !c.is_tombstone());
        }
        self.stats.cells_dropped += (received - run.len()) as u64;
        self.head.clear();
        if run.len() <= self.head_cap() {
            self.head.extend_from_slice(&run);
        } else {
            self.insert_run(&run);
        }
    }

    /// Carries a sorted run of cells (one per key, newer than everything
    /// stored, more than the head holds) into the smallest level from 2
    /// on that absorbs it, in a single cascade.
    fn insert_run(&mut self, run: &[Cell]) {
        debug_assert!(run.windows(2).all(|w| w[0].key < w[1].key));
        debug_assert!(self.head.is_empty() && run.len() > self.head_cap());
        let before = self.stats.cells_written;

        // Target level: the smallest ℓ whose spare item capacity absorbs
        // the carry (everything below plus the new run, counted before
        // the merge drops any of it). Levels 0 and 1 hold no items and
        // less than the run, so it is level 2 or above.
        let mut carry = run.len();
        let mut t = 0usize;
        while carry + self.levels[t].items > self.levels[t].cap {
            carry += self.levels[t].items;
            t += 1;
            if t == self.levels.len() {
                self.push_levels(1);
            }
        }
        let deepest = self.deepest(t);
        let mut down = std::mem::take(&mut self.down);
        self.stats.merges += 1;
        self.carry(run, t, carry, deepest, &mut down);
        // Levels below t are now empty of items; rebuild the pointer
        // cascade downward, level by level, as in the paper.
        self.relink_below(t, &mut down);
        self.down = down;
        let scratch = self.scratch_cells();
        self.stats.scratch_peak_cells = self.stats.scratch_peak_cells.max(scratch);
        let w = self.stats.cells_written - before;
        self.stats.max_cells_per_insert = self.stats.max_cells_per_insert.max(w);
    }

    /// Merges the new run (newest), levels `0..t` and the target's own
    /// run (oldest) into level `t`, streaming: every older source is read
    /// through its chunk and the output goes to the store as it is made
    /// (`merge.rs`). The target's redundant cells ride along: level t+1
    /// is unchanged by this merge and level t is rewritten whenever t+1
    /// is, so they are, cell for cell, the sample of t+1 this rewrite must
    /// keep — the carry reads levels 0..=t once and nothing else.
    ///
    /// The output is written in slot order from `m` slots before the old
    /// run, `m` (`carry`) being the newer sources' item count before any
    /// is dropped: by then at most `m` cells have come from them, so a
    /// write never reaches an unread cell of the old run. If fewer slots
    /// are free before the run, it is first moved to the level's right
    /// end (`ColaStats::run_moves`). What the merge drops leaves free
    /// slots after the run.
    fn carry(&mut self, run: &[Cell], t: usize, carry: usize, deepest: bool, down: &mut Vec<u64>) {
        let lv = self.levels[t];
        if lv.lead < carry {
            let to = lv.slots - lv.occ();
            self.scratch
                .shift(&mut self.mem, lv.run_base(), lv.occ(), lv.off + to);
            self.levels[t].lead = to;
            self.stats.run_moves += 1;
            self.stats.cells_written += lv.occ() as u64;
        }
        let target = self.levels[t];
        let (mut sources, mut heads) = (
            std::mem::take(&mut self.sources),
            std::mem::take(&mut self.heads),
        );
        for (j, source) in sources.iter_mut().enumerate().take(t + 1) {
            let lv = self.levels[j];
            source.open(&self.mem, (lv.run_base(), lv.occ()), lv.items, j == t);
        }
        let (older, heads_t) = (&mut sources[..=t], &mut heads[..=t]);
        let mut fold = Fold::new(&self.mem, run, older, heads_t, deepest);
        let start = target.run_base() - carry;
        self.rewrite(t, start, |mem, out| fold.fill(mem, out), Some(down));
        self.stats.cells_dropped += fold.at.dropped;
        (self.sources, self.heads) = (sources, heads);
    }

    /// The first extent of level `k`, the newer when both are sealed.
    fn extent(&self, k: usize) -> usize {
        k << self.budgeted as usize
    }

    /// Whether level `k` is unsafe: both extents sealed, so merging up.
    fn is_unsafe(&self, k: usize) -> bool {
        let pair = self.levels.get(self.extent(k)..self.extent(k) + 2);
        self.budgeted && pair.is_some_and(|p| p.iter().all(|lv| lv.items > 0))
    }

    /// A free extent of level `k`, pushed if need be: Lemma 21's promise.
    fn free_extent(&mut self, k: usize) -> usize {
        if k == self.num_levels() {
            self.push_levels(1);
        }
        let e = self.extent(k);
        let filling = |i: usize| self.fills.iter().any(|&(d, _)| d == i);
        let free = (e..e + 2).find(|&i| self.levels[i].items == 0 && !filling(i));
        free.unwrap_or_else(|| panic!("Lemma 21 violated: level {k} has no free extent"))
    }

    /// Extent `e` has just been written whole: it goes first in its level,
    /// the newest there, and if the level is now unsafe, its merge opens,
    /// newest source first, into a free extent of the next level.
    fn sealed(&mut self, e: usize) {
        self.stats.merges += 1;
        let (k, a) = (e >> 1, e & !1);
        self.levels.swap(a, e);
        self.aux.swap(a, e);
        if !self.is_unsafe(k) {
            return;
        }
        let d = self.free_extent(k + 1);
        for j in [a, a + 1] {
            let lv = self.levels[j];
            self.sources[j].open(&self.mem, (lv.run_base(), lv.occ()), lv.items, false);
        }
        let deepest = self.deepest(a + 1);
        let (older, heads) = (&mut self.sources[a..a + 2], &mut self.heads[a..a + 2]);
        let (at, written) = (Fold::new(&self.mem, &[], older, heads, deepest).at, 0);
        let (lv, retired) = (self.levels[d], self.spare_aux.pop());
        let aux = AuxBuilder::recycling(lv.slots, lv.cap, retired).finish();
        self.fills.push((d, Fill { at, written, aux }));
    }

    /// Lemma 21's mover, after every budgeted insert: advances the unsafe
    /// levels' merges, lowest first, by `2·levels + 2` source cells in all.
    fn mover(&mut self) {
        let (mut budget, mut k) = (2 * self.num_levels() as u64 + 2, 2);
        while budget > 0 && k < self.num_levels() {
            if self.is_unsafe(k) {
                budget -= self.advance(k, budget);
            }
            k += 1;
        }
    }

    /// Takes up to `budget` cells off unsafe level `k`'s merge, writing
    /// what the fold keeps in one sweep, and returns how many; once the
    /// sources are spent the extent is sealed (or emptied, if every cell
    /// was dropped) and level `k` empties.
    fn advance(&mut self, k: usize, budget: u64) -> u64 {
        let a = self.extent(k);
        let Some(j) = self.fills.iter().position(|&(d, _)| d >> 1 == k + 1) else {
            panic!("Lemma 21 violated: unsafe level {k} fills no extent");
        };
        let (d, Fill { at, written, aux }) = self.fills.swap_remove(j);
        let lv = self.levels[d];
        let mut aux = AuxBuilder::resume(aux, lv.cap);
        let (older, heads) = (&mut self.sources[a..a + 2], &mut self.heads[a..a + 2]);
        let (mut fold, mut taken) = (Fold::resume(&[], older, heads, at), 0);
        let next = |mem: &M, out: &mut [Cell]| {
            each(out, || {
                while taken < budget && !fold.done() {
                    taken += 1;
                    if let Some((cell, true)) = fold.step(mem) {
                        aux.push(&cell);
                        return Some(cell);
                    }
                }
                None
            })
        };
        let wrote = self
            .scratch
            .fill(&mut self.mem, lv.off + written, next, |_, _| {});
        let (done, at, written, aux) = (fold.done(), fold.at, written + wrote, aux.finish());
        self.stats.cells_written += wrote as u64;
        if !done {
            self.fills.push((d, Fill { at, written, aux }));
            return taken;
        }
        self.stats.cells_dropped += at.dropped;
        (self.levels[d].items, self.levels[d].lead) = (written, 0);
        self.aux[d] = Some(aux);
        for e in [a, a + 1].into_iter().chain((written == 0).then_some(d)) {
            self.clear(e);
        }
        self.sealed(d);
        taken
    }

    /// Runs every merge in flight, and any its commit opens, to its end.
    fn quiesce(&mut self) {
        while let Some(k) = (2..self.num_levels()).find(|&k| self.is_unsafe(k)) {
            self.advance(k, u64::MAX);
        }
    }

    /// The write path's scratch, in cells: every level's source chunk,
    /// the sweep buffer, the lookahead keys (four to a cell) and the
    /// head's buffer.
    fn scratch_cells(&self) -> u64 {
        let keys = self.down.capacity();
        (self.chunk_cells + CHUNK + keys.div_ceil(4) + 2 * self.g) as u64
    }

    /// Every level in directory order — which is newest first — as the
    /// run it holds.
    fn runs<'a>(
        levels: &'a [Level],
        aux: &'a [Option<LevelAux>],
    ) -> impl Iterator<Item = Run<'a>> + 'a {
        levels.iter().zip(aux).map(|(lv, aux)| lv.run(aux))
    }

    /// The Lemma 20 search over `runs` (every level, newest first), after
    /// a binary search of `head` in DRAM: each level's probe is clamped to
    /// the bracket its predecessor's in-array lookahead pointers give, and
    /// a miss reads the next bracket off the cell left of where the key
    /// would sit. A level the aux skips, or
    /// one holding no pointers, breaks the chain: the next level is
    /// probed unclamped — with its own ghost sample, if `runs` carry
    /// their aux, so the search stays bracketed.
    fn lookup<'a>(
        mem: &M,
        stats: &mut ColaStats,
        head: &[Cell],
        levels: &[Level],
        runs: impl Iterator<Item = Run<'a>>,
        key: u64,
    ) -> Option<u64> {
        stats.searches += 1;
        if let Ok(i) = head.binary_search_by_key(&key, |c| c.key) {
            return head[i].as_lookup();
        }
        let probe = Probe::new(key);
        let mut clamp = None;
        for ((l, lv), run) in levels.iter().enumerate().zip(runs) {
            // The clamp may end among the key's redundant cells, ahead
            // of its real one: the probe reads on to the run's end.
            let Some((ins, hit)) = run.find(mem, &probe, clamp.take(), stats) else {
                continue;
            };
            if let Some(c) = hit {
                return c.as_lookup();
            }
            if lv.reds == 0 {
                continue;
            }

            // Left bracket: nearest lookahead pointer at a position < ins; all
            // such cells have key < target, so its target bounds the range from
            // below. Real cells carry a copy of it (the paper's padding trick).
            let next_lo = if ins == 0 {
                0usize
            } else {
                let c = mem.get(run.base + ins - 1);
                stats.cells_scanned += 1;
                if c.ptr == NO_PTR {
                    0
                } else {
                    c.ptr as usize
                }
            };

            // Right bracket. The paper's duplicate lookahead pointers hand the
            // next real pointer to the right in O(1); because our samples are
            // a fixed stride S apart in the next level's run, the same bound
            // follows arithmetically: the next sample — at or right of the
            // insertion point here, so its key is not below the target — is
            // S positions past the left bracket (S/2 past position 0 when no
            // pointer lies left), or past the run's end.
            let above = &levels[l + 1];
            let Stride(stride) = lv.stride(above);
            clamp = Some((next_lo, (next_lo + stride + 1).min(above.occ())));
        }
        None
    }

    /// The paper's Lemma 20 search: each level probed inside the window
    /// its predecessor's in-array lookahead pointers bracket, with no
    /// fences, filter or ghost sample — the same probe as
    /// [`Dictionary::get`] over runs without their aux. Same answers;
    /// kept as the reference the cascade is tested and costed against.
    pub fn get_plain(&mut self, key: u64) -> Option<u64> {
        let bare = Self::runs(&self.levels, &self.aux).map(Run::bare);
        Self::lookup(
            &self.mem,
            &mut self.stats,
            &self.head,
            &self.levels,
            bare,
            key,
        )
    }

    /// Rebuilds the structure keeping only live entries (drops shadowed
    /// versions and tombstones). Extension: the paper's COLA never
    /// removes anything; compaction restores `physical_len == live keys`.
    pub fn compact(&mut self) {
        let live = self.range(0, u64::MAX);
        let cells: Vec<Cell> = live.iter().map(|&(k, v)| Cell::item(k, v)).collect();
        self.load(&cells);
    }

    /// Replaces the contents by `live`, N becoming its length: the head,
    /// if it holds them, else one level write into (the first extent of)
    /// the smallest level that does, then the pointer cascade below.
    /// Levels 0 and 1 exist from the start. The store is not shrunk:
    /// regrowing would zero-fill.
    fn load(&mut self, live: &[Cell]) {
        self.levels.clear();
        self.fills.clear();
        self.aux.clear();
        self.sources.clear();
        self.heads.clear();
        self.chunk_cells = 0;
        self.n = live.len() as u64;
        self.push_levels(2);
        self.head.clear();
        if live.len() <= self.head_cap() {
            self.head.extend_from_slice(live);
            return;
        }
        let mut t = 2usize;
        loop {
            if t == self.num_levels() {
                self.push_levels(1);
            }
            if self.levels[self.extent(t)].cap >= live.len() {
                break;
            }
            t += 1;
        }
        let t = self.extent(t);
        let mut down = std::mem::take(&mut self.down);
        self.write_level(t, live, &[], Some(&mut down));
        self.relink_below(t, &mut down);
        self.down = down;
    }

    /// Structural invariants (tests): every level as a run
    /// (`Run::check`, its filter sized for the level's item capacity),
    /// the run inside the level's slots, counts, capacity bounds, the
    /// carry rule — a level holds one real cell per key, and the deepest
    /// level holding items holds no tombstone — and the lookahead
    /// invariant: each level's redundant cells are exactly the
    /// fixed-stride sample of the run above it, in count, positions and
    /// keys. The carry (which keeps a target's redundant cells instead of
    /// sampling again) and the search's arithmetic right bracket both
    /// rest on it.
    ///
    /// And the head's: sorted, one cell per key, real cells only, at most
    /// `2g − 1` of them, no tombstone when no level holds an item, and
    /// levels 0 and 1 (always present) holding no item.
    ///
    /// Budgeted, the deepest level may keep tombstones (a merge that
    /// dropped every cell empties the level beneath it), and Lemma 21
    /// holds ([`GCola::check_schedule`]).
    pub fn check_invariants(&self) {
        self.check_schedule();
        assert!(self.levels.len() >= 2, "levels 0 and 1 exist");
        assert!(self.head.len() <= self.head_cap(), "head over 2g − 1");
        for w in self.head.windows(2) {
            assert!(w[0].key < w[1].key, "head unsorted or repeats a key");
        }
        for c in &self.head {
            assert!(c.is_real(), "head holds a lookahead cell");
            let spent = c.is_tombstone() && self.deepest(1);
            assert!(!spent, "head holds a tombstone with nothing beneath");
        }
        assert!(
            self.levels[..self.extent(2)].iter().all(|lv| lv.items == 0),
            "levels 0 and 1 hold items"
        );
        let mut total_items = self.head.len();
        let deepest = self.levels.iter().rposition(|lv| lv.items > 0);
        let deepest = deepest.filter(|_| !self.budgeted);
        for (l, lv) in self.levels.iter().enumerate() {
            assert!(lv.items <= lv.cap, "level {l} items over capacity");
            assert!(lv.reds <= lv.red_cap, "level {l} reds over allowance");
            assert!(
                lv.lead + lv.occ() <= lv.slots,
                "level {l} run past its slots"
            );
            total_items += lv.items;
            let base = lv.run_base();
            let occ = lv.occ();
            let mut reds_seen = 0;
            let mut last_ptr = NO_PTR;
            let mut last_real = None;
            let above = self.levels.get(l + 1);
            let stride = above.map_or(Stride(0), |a| lv.stride(a));
            let (above_base, above_occ) = above.map_or((0, 0), |a| (a.run_base(), a.occ()));
            let want = stride.count(above_occ);
            assert_eq!(lv.reds, want, "level {l} lookahead count");
            for i in 0..occ {
                let c = self.mem.get(base + i);
                if c.is_redundant() {
                    assert!(reds_seen < want, "level {l} stores extra lookaheads");
                    assert_eq!(
                        c.ptr as usize,
                        stride.pos(reds_seen),
                        "level {l} lookahead {reds_seen} off its stride"
                    );
                    let target = self.mem.get(above_base + c.ptr as usize);
                    assert_eq!(target.key, c.key, "level {l} lookahead key mismatch");
                    reds_seen += 1;
                    last_ptr = c.ptr;
                } else {
                    assert_eq!(c.ptr, last_ptr, "level {l} left-copy stale at {i}");
                    assert!(last_real < Some(c.key), "level {l} repeats a key at {i}");
                    last_real = Some(c.key);
                    let spent = Some(l) == deepest && c.is_tombstone();
                    assert!(!spent, "deepest level {l} holds a tombstone at {i}");
                }
            }
            assert_eq!(reds_seen, lv.reds, "level {l} red count");
        }
        assert_eq!(total_items, self.physical_len());
        // Every level as a run: sorted, aux present exactly when occupied
        // and agreeing with the stored cells.
        assert_eq!(self.aux.len(), self.levels.len(), "aux out of lockstep");
        for (l, run) in Self::runs(&self.levels, &self.aux).enumerate() {
            let lv = self.levels[l];
            let items = run.check(&self.mem, lv.cap, format_args!("level {l}"));
            assert_eq!(items, lv.items, "level {l} item count");
        }
    }

    /// The merge schedule's part of [`GCola::check_invariants`] (tests),
    /// in `O(levels)`, so a test can check it after every op: Lemma 21's
    /// schedule — a level fills one extent exactly while the level below
    /// is unsafe, so no two adjacent levels are unsafe and the top one is
    /// not — and a level's extents tiling its span. Amortized, nothing
    /// fills.
    pub fn check_schedule(&self) {
        for k in 0..=self.num_levels() {
            let fills = self.fills.iter().filter(|&&(d, _)| d >> 1 == k).count();
            let below = k > 0 && self.is_unsafe(k - 1);
            assert_eq!(fills, below as usize, "level {k} fills {fills} extents");
            if let Some([a, b]) = self.levels.get(self.extent(k)..self.extent(k + 1)) {
                assert_eq!(a.off.abs_diff(b.off), a.slots, "level {k} is not tiled");
            }
        }
        let empty = |&(d, _): &(usize, Fill)| self.levels[d].items == 0;
        assert!(self.fills.iter().all(empty), "a filling extent holds items");
    }

    /// Cells in the head (tests).
    #[cfg(test)]
    pub(crate) fn head_len(&self) -> usize {
        self.head.len()
    }

    /// `(first slot, slots, items)` of each level, shallowest first.
    #[cfg(test)]
    pub(crate) fn level_shapes(&self) -> Vec<(usize, usize, usize)> {
        self.levels
            .iter()
            .map(|lv| (lv.off, lv.slots, lv.items))
            .collect()
    }
}

impl<M: Mem<Cell>> Persist for GCola<M> {
    /// Budgeted, it quiesces first and writes [`TAG_DEAMORT_BASIC`]: a
    /// state byte per extent, 0 empty or 1 sealed; a level lists its
    /// newest extent first, so recency needs no field.
    fn save_meta(&mut self) -> Vec<u8> {
        self.quiesce();
        let (tag, version) = FORMATS[self.budgeted as usize];
        let mut w = MetaWriter::new(tag, version);
        w.usize(self.g)
            .f64(self.p)
            .u64(self.n)
            .usize(self.levels.len());
        for lv in &self.levels {
            w.usize(lv.off)
                .usize(lv.slots)
                .usize(lv.cap)
                .usize(lv.red_cap)
                .usize(lv.items)
                .usize(lv.reds)
                .usize(lv.lead);
            if self.budgeted {
                w.u8((lv.items > 0) as u8);
            }
        }
        // The head, cell by cell: key, value and kind (its flag byte).
        w.usize(self.head.len());
        for c in &self.head {
            w.u64(c.key).u64(c.val).u8(c.meta as u8);
        }
        // Each occupied level's fence keys; `from_parts` holds the
        // reopened cells to them before rebuilding the accelerators.
        w.fences(&self.mem, Self::runs(&self.levels, &self.aux));
        w.finish()
    }
}

impl<M: Mem<Cell>> Dictionary for GCola<M> {
    fn insert(&mut self, key: u64, val: u64) {
        self.insert_cell(Cell::item(key, val));
    }

    fn delete(&mut self, key: u64) {
        self.insert_cell(Cell::tombstone(key));
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        let runs = Self::runs(&self.levels, &self.aux);
        Self::lookup(
            &self.mem,
            &mut self.stats,
            &self.head,
            &self.levels,
            runs,
            key,
        )
    }

    fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_> {
        // The head is the newest run, read from DRAM; every occupied
        // level is a sorted run after it, newest first. The merge cursor
        // skips the interleaved lookahead cells itself.
        let runs = Self::runs(&self.levels, &self.aux);
        let scratch = &mut self.scratch;
        let cursor = RunMergeCursor::lent(&self.mem, &self.head, runs, (lo, hi), scratch);
        Cursor::new(cursor)
    }

    /// The cursor's entries, collected into a buffer sized once: the head
    /// holds no more of them than its length, and no run more than the
    /// cells its ghost sample brackets between `lo` and `hi`, counted in
    /// DRAM. Collecting a large range by regrowth copies the entries about
    /// twice and, at its last step, holds the old buffer and the new one,
    /// half again the result.
    fn range(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        if lo > hi {
            return Vec::new();
        }
        let runs = Self::runs(&self.levels, &self.aux);
        let spans: usize = runs.map(|run| run.span(lo, hi)).sum();
        let mut out = Vec::with_capacity(self.head.len() + spans);
        let mut cursor = self.cursor(lo, hi);
        out.extend(std::iter::from_fn(|| cursor.next()));
        out
    }

    fn apply(&mut self, batch: &mut UpdateBatch) {
        self.absorb(crate::dict::batch_to_cells(batch));
        batch.clear();
    }

    fn insert_batch(&mut self, sorted: &[(u64, u64)]) {
        self.absorb(crate::dict::sorted_pairs_to_cells(sorted));
    }

    fn physical_len(&self) -> usize {
        self.head.len() + self.levels.iter().map(|l| l.items).sum::<usize>()
    }

    fn name(&self) -> &'static str {
        match self.budgeted {
            true => "deamortized-cola",
            false => "g-cola",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(g: usize, p: f64) -> GCola<PlainMem<Cell>> {
        GCola::new(PlainMem::new(), g, p)
    }

    #[test]
    fn level_sizes_match_paper_formula() {
        let c = plain(4, 0.1);
        assert_eq!(c.levels[0].cap, 1);
        let mut c = c;
        for _ in 0..5 {
            c.push_levels(1);
        }
        // 2(g-1)g^(l-1) for g=4: 6, 24, 96, 384, ...
        assert_eq!(c.levels[1].cap, 6);
        assert_eq!(c.levels[2].cap, 24);
        assert_eq!(c.levels[3].cap, 96);
        // redundancy floor(2*0.1*3*4^(l-1)): 0, 2, 9, 38
        assert_eq!(c.levels[1].red_cap, 0);
        assert_eq!(c.levels[2].red_cap, 2);
        assert_eq!(c.levels[3].red_cap, 9);
        // contiguous offsets starting after the spare slot
        assert_eq!(c.levels[0].off, 1);
        for w in c.levels.windows(2) {
            assert_eq!(w[0].off + w[0].slots, w[1].off);
        }
    }

    #[test]
    fn each_level_receives_g_minus_1_merges() {
        // For g = 4 the head holds levels 0 and 1's 1 + 6 items, and
        // insert 8 carries it, full, into level 2 as 8 items. Level 2
        // (capacity 24) so receives exactly g − 1 = 3 merges, at inserts
        // 8, 16 and 24; insert 32 carries it into level 3 as 32 items.
        // Between carries the head holds N mod 8 items, and levels 0 and
        // 1 none.
        let mut c = plain(4, 0.0);
        let items = |c: &GCola<PlainMem<Cell>>, l: usize| c.levels.get(l).map_or(0, |lv| lv.items);
        // (insert, items after) of each merge into levels 2 and 3.
        let mut merges = [Vec::new(), Vec::new()];
        for i in 1..=32u64 {
            let before = [items(&c, 2), items(&c, 3)];
            c.insert(i, i);
            for (l, merges) in [2, 3].into_iter().zip(&mut merges) {
                if items(&c, l) > before[l - 2] {
                    merges.push((i, items(&c, l)));
                }
            }
            assert_eq!(c.head.len() as u64, i % 8, "head after insert {i}");
            assert_eq!((items(&c, 0), items(&c, 1)), (0, 0), "insert {i}");
        }
        assert_eq!(merges[0], [(8, 8), (16, 16), (24, 24)]);
        assert_eq!(merges[1], [(32, 32)]);
        assert_eq!((items(&c, 2), items(&c, 3)), (0, 32));
        assert_eq!(c.stats().merges, 4, "one carry per 2g inserts");
        c.check_invariants();
    }

    #[test]
    fn get_finds_everything_various_g_and_p() {
        for &(g, p) in &[
            (2usize, 0.0),
            (2, 0.125),
            (2, 0.1),
            (4, 0.1),
            (8, 0.1),
            (3, 0.4),
        ] {
            let mut c = plain(g, p);
            let mut x: u64 = 7;
            let mut keys = Vec::new();
            for i in 0..2000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                keys.push(x);
                c.insert(x, i);
                if i % 499 == 0 {
                    c.check_invariants();
                }
            }
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(c.get(k), Some(i as u64), "g={g} p={p} key {k}");
            }
            assert_eq!(c.get(1), None);
            c.check_invariants();
        }
    }

    #[test]
    fn upsert_and_delete_semantics() {
        let mut c = plain(2, 0.125);
        for k in 0..300u64 {
            c.insert(k, k);
        }
        for k in 0..300u64 {
            if k % 2 == 0 {
                c.insert(k, k + 10_000);
            }
            if k % 5 == 0 {
                c.delete(k);
            }
        }
        for k in 0..300u64 {
            let want = if k % 5 == 0 {
                None
            } else if k % 2 == 0 {
                Some(k + 10_000)
            } else {
                Some(k)
            };
            assert_eq!(c.get(k), want, "key {k}");
        }
    }

    #[test]
    fn range_matches_model() {
        let mut c = plain(4, 0.1);
        let mut model = std::collections::BTreeMap::new();
        let mut x: u64 = 99;
        for i in 0..3000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % 1000;
            c.insert(k, i);
            model.insert(k, i);
        }
        for (lo, hi) in [(0u64, 999u64), (100, 200), (500, 500), (990, 2000), (7, 3)] {
            let want: Vec<(u64, u64)> = model
                .range(lo..=hi.max(lo))
                .map(|(&k, &v)| (k, v))
                .filter(|(k, _)| *k >= lo && *k <= hi)
                .collect();
            let want = if lo > hi { vec![] } else { want };
            assert_eq!(c.range(lo, hi), want, "range {lo}..={hi}");
        }
    }

    #[test]
    fn sorted_ascending_and_descending_inserts() {
        for desc in [false, true] {
            let mut c = plain(4, 0.1);
            let n = 5000u64;
            for i in 0..n {
                let k = if desc { n - 1 - i } else { i };
                c.insert(k, k);
            }
            c.check_invariants();
            for k in (0..n).step_by(37) {
                assert_eq!(c.get(k), Some(k));
            }
        }
    }

    #[test]
    fn lookahead_pointers_bound_search_scans() {
        // With pointers, the per-search scanned cells should grow like
        // O(levels * window) rather than O(levels * level-size). Use
        // N = 2^15 - 1 so every level is occupied, and probe missing keys
        // so both structures pay a full root-to-bottom descent.
        let n = (1u64 << 15) - 1;
        let mut with = plain(2, 0.125);
        let mut without = plain(2, 0.0);
        for i in 0..n {
            let k = i.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            with.insert(k, i);
            without.insert(k, i);
        }
        let probes: Vec<u64> = (0..2000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) & !1)
            .collect();
        // `get_plain` isolates the paper's in-array pointers: the ghost
        // windows would otherwise bracket both structures equally.
        let s0 = with.stats().cells_scanned;
        for &k in &probes {
            with.get_plain(k);
        }
        let scanned_with = with.stats().cells_scanned - s0;
        let s0 = without.stats().cells_scanned;
        for &k in &probes {
            without.get_plain(k);
        }
        let scanned_without = without.stats().cells_scanned - s0;
        // Comparisons drop noticeably (the asymptotic win — O(1) vs
        // O(log level) cells per level — shows up in block transfers,
        // which the bounds_cola bench measures; here we check the
        // comparison count directionally).
        assert!(
            scanned_with * 5 < scanned_without * 4,
            "lookahead should cut scanning: {scanned_with} vs {scanned_without}"
        );
    }

    /// The cascade against its reference: `get` and `get_plain` agree on
    /// every probe of a mixed stream — live keys, upserted and deleted
    /// ones, in-fence and beyond-fence misses.
    #[test]
    fn get_agrees_with_get_plain() {
        const N: u64 = 1 << 13;
        for (g, p) in [(2, 0.0), (2, 0.1), (4, 0.0), (4, 0.1), (8, 0.0), (8, 0.1)] {
            let mut c = plain(g, p);
            let mut rng = cosbt_testkit::Rng::new(0x9E7);
            let same = |c: &mut GCola<PlainMem<Cell>>, key: u64, at: usize| {
                let want = c.get_plain(key);
                assert_eq!(c.get(key), want, "g={g} p={p}: key {key} after op {at}");
            };
            let ops = crate::merge::oracle::stream(0x9E7, N as usize);
            for (i, op) in ops.iter().enumerate() {
                op.apply_to(&mut c);
                // A key just written, two draws from the stream's key
                // space (most of it never written), and both ends.
                let written = op.cells().first().map_or(0, |c| c.key);
                for key in [written, rng.below(3 * N), rng.below(3 * N), 0, u64::MAX] {
                    same(&mut c, key, i);
                }
            }
            for key in 0..3 * N {
                same(&mut c, key, N as usize);
            }
        }
    }

    /// Each run's ghost windows bound the real cells it holds in a range
    /// from above, and the head's length bounds its own, so `range`
    /// collects into one buffer and never regrows it.
    #[test]
    fn range_collects_into_one_buffer() {
        let mut c = plain(4, 0.1);
        let mut rng = cosbt_testkit::Rng::new(0x5A9E);
        for i in 0..20_000u64 {
            let key = rng.below(1 << 14);
            if rng.chance(1, 5) {
                c.delete(key);
            } else {
                c.insert(key, i);
            }
        }
        for (lo, hi) in [
            (0, u64::MAX),
            (100, 5000),
            (7, 7),
            (9000, 9100),
            (1 << 15, 1 << 16),
        ] {
            let mut bound = c.head.len();
            for run in GCola::<PlainMem<Cell>>::runs(&c.levels, &c.aux) {
                let cells = &c.mem.as_slice()[run.base..][..run.len];
                let inside = cells
                    .iter()
                    .filter(|x| x.is_real() && (lo..=hi).contains(&x.key));
                let inside = inside.count();
                assert!(inside <= run.span(lo, hi), "range {lo}..={hi}");
                bound += run.span(lo, hi);
            }
            let got = c.range(lo, hi);
            assert_eq!(got.capacity(), bound, "range {lo}..={hi} regrew its buffer");
        }
    }

    #[test]
    fn compact_shrinks_physical_size() {
        let mut c = plain(2, 0.125);
        for k in 0..500u64 {
            c.insert(k, k);
            c.insert(k, k + 1);
        }
        // Carries have already dropped the versions they met; the rest
        // sit in levels no carry has reached since.
        assert!((500..=1000).contains(&c.physical_len()));
        c.compact();
        assert_eq!(c.physical_len(), 500);
        c.check_invariants();
        for k in (0..500u64).step_by(11) {
            assert_eq!(c.get(k), Some(k + 1));
        }
    }

    impl<M: Mem<Cell>> GCola<M> {
        /// Level `l`'s real cells in a `Vec` of their own, as the old carry
        /// held them.
        fn items_vec(&self, l: usize) -> Vec<Cell> {
            let lv = self.levels[l];
            let run = (0..lv.occ()).map(|i| self.mem.get(lv.run_base() + i));
            run.filter(Cell::is_real).collect()
        }

        /// The keys of level `l`'s lookaheads read afresh off level
        /// `l + 1`, as every carry once did — the oracle for the cells a
        /// carry now keeps or taps.
        fn sample_lookaheads(&self, l: usize) -> Vec<u64> {
            let Some(above) = self.levels.get(l + 1) else {
                return Vec::new();
            };
            let stride = self.levels[l].stride(above);
            (0..stride.count(above.occ()))
                .map(|i| self.mem.get(above.run_base() + stride.pos(i)).key)
                .collect()
        }

        /// The pre-kernel `insert_run`, kept as the differential oracle:
        /// every source in its own `Vec`, one k-way heap merge, the carry
        /// rule applied to its output as a filter, the merged run
        /// materialized and written right-justified, every level below
        /// sampled afresh. The head is the same merge of the run over the
        /// head, kept while it fits.
        fn insert_run_heap(&mut self, run: &[Cell]) {
            if run.is_empty() {
                return;
            }
            self.n += run.len() as u64;
            self.stats.inserts += run.len() as u64;
            let mut merged = crate::merge::oracle::heap_merge(&[run.to_vec(), self.head.clone()]);
            let spent = self.levels.iter().all(|lv| lv.items == 0);
            self.stats.cells_dropped += crate::merge::oracle::newest_only(&mut merged, spent);
            self.head.clear();
            if merged.len() < 2 * self.g {
                self.head = merged;
                return;
            }
            let run = merged;
            let mut carry = run.len();
            let mut t = 0usize;
            while carry + self.levels[t].items > self.levels[t].cap {
                carry += self.levels[t].items;
                t += 1;
                if t == self.levels.len() {
                    self.push_levels(1);
                }
            }
            self.stats.merges += 1;
            let mut sources = vec![run];
            sources.extend((0..=t).map(|j| self.items_vec(j)));
            let mut merged = crate::merge::oracle::heap_merge(&sources);
            let deepest = self.levels[t + 1..].iter().all(|lv| lv.items == 0);
            self.stats.cells_dropped += crate::merge::oracle::newest_only(&mut merged, deepest);
            // Every level sampled afresh: no cell is carried over.
            for l in (0..=t).rev() {
                let las = self.sample_lookaheads(l);
                let merged = if l == t { &merged[..] } else { &[] };
                self.write_level(l, merged, &las, None);
            }
        }
    }

    /// What the kernel and the heap oracle must agree on after an op:
    /// every level's run, cell for cell, and the work counters that do
    /// not depend on where a run sits.
    fn same_levels(new: &GCola<PlainMem<Cell>>, old: &GCola<PlainMem<Cell>>, at: &str) {
        assert_eq!(new.levels.len(), old.levels.len(), "levels, {at}");
        fn run(c: &GCola<PlainMem<Cell>>, l: usize) -> &[Cell] {
            let lv = c.levels[l];
            &c.mem.as_slice()[lv.run_base()..][..lv.occ()]
        }
        assert_eq!(new.head, old.head, "head, {at}");
        for l in 0..new.levels.len() {
            assert!(run(new, l) == run(old, l), "level {l}, {at}");
        }
        let (a, b) = (new.stats(), old.stats());
        let counters = |s: ColaStats| (s.inserts, s.merges, s.cells_dropped);
        assert_eq!(counters(a), counters(b), "stats, {at}");
    }

    #[test]
    fn fold_carry_is_byte_identical_to_the_heap_merge() {
        use crate::merge::oracle::stream;
        let configs = [2, 4, 8]
            .into_iter()
            .flat_map(|g| [0.0, 0.1, 0.125].map(|p| (g, p)));
        for (g, p) in configs {
            let (mut new, mut old) = (plain(g, p), plain(g, p));
            for (i, op) in stream(0xD1FF + g as u64, 1 << 14).iter().enumerate() {
                op.apply_to(&mut new);
                old.insert_run_heap(&op.cells());
                assert!(new.spare_aux.len() <= new.levels.len());
                // The oracle samples every lookahead afresh, so the cells
                // a carry kept or tapped instead are compared here — after
                // every op while the store is small (levels of several
                // sweep chunks by then), and at intervals once a compare
                // costs more than the ops between two of them.
                if i < 1 << 11 || i % 1024 == 1023 || i + 1 == 1 << 14 {
                    same_levels(&new, &old, &format!("g={g} p={p} after op {i}"));
                }
            }
            // The recycled builders left what a fresh scan builds.
            new.check_invariants();
        }
    }

    /// Overwrite-heavy and delete-heavy streams: every carry's output is
    /// the heap merge's followed by the carry rule, the invariants hold
    /// after every op, and every 64 ops a reopen from the meta a sync
    /// would commit answers as the structure does. Dropped cells leave a
    /// level's lead short, so some carries move the old run first.
    #[test]
    fn streamed_carries_match_the_heap_merge_and_reopen() {
        use crate::merge::oracle::stream_over;
        let mut moves = 0;
        for (g, p) in [2, 4, 8]
            .into_iter()
            .flat_map(|g| [0.0, 0.1, 0.125].map(|p| (g, p)))
        {
            // (keys, deletes in 20): overwrite-heavy, then delete-heavy.
            for (keys, deletes) in [(1 << 8, 2), (1 << 10, 10)] {
                let (mut new, mut old) = (plain(g, p), plain(g, p));
                let ops = stream_over(0x57EA + g as u64, 1 << 10, keys, deletes);
                let mut rng = cosbt_testkit::Rng::new(keys);
                for (i, op) in ops.iter().enumerate() {
                    let at = format!("g={g} p={p} keys={keys} after op {i}");
                    op.apply_to(&mut new);
                    old.insert_run_heap(&op.cells());
                    same_levels(&new, &old, &at);
                    new.check_invariants();
                    if i % 64 != 63 {
                        continue;
                    }
                    let meta = new.save_meta();
                    let mut re = GCola::from_parts(new.mem.clone(), &meta).expect(&at);
                    re.check_invariants();
                    assert_eq!(re.save_meta(), meta, "{at}");
                    for _ in 0..64 {
                        let key = rng.below(keys + 8);
                        assert_eq!(re.get(key), new.get(key), "key {key}, {at}");
                    }
                    assert_eq!(re.range(0, u64::MAX), new.range(0, u64::MAX), "{at}");
                }
                moves += new.stats().run_moves;
            }
        }
        assert!(moves > 0, "no carry moved a run");
    }

    /// The head against a model, on overwrite-heavy, delete-heavy and
    /// small-batch-heavy streams at every (g, p) of the suite: `get`,
    /// `get_plain` and a cursor walked both ways answer as the model does
    /// after every op, the invariants hold after every op, and every 64
    /// ops a reopen from the meta a sync would commit answers the same.
    /// The delete-heavy streams must meet a head tombstone shadowing an
    /// older level's item. The deamortized COLA runs the same streams,
    /// its invariants holding it to Lemma 21 after every op.
    #[test]
    fn the_head_answers_as_the_model_does() {
        use std::collections::BTreeMap;
        let configs = [2, 4, 8]
            .into_iter()
            .flat_map(|g| [0.0, 0.1, 0.125].map(|p| (g, p, false)))
            .chain([(2, 0.0, true)]);
        for (g, p, budgeted) in configs {
            let p_or_policy = match budgeted {
                true => "deamortized".to_string(),
                false => p.to_string(),
            };
            // (shape, keys, deletes in 8, batches in 8)
            for (shape, keys, deletes, batches) in [
                ("overwrite-heavy", 48, 1, 0),
                ("delete-heavy", 384, 4, 0),
                ("small-batch-heavy", 384, 1, 4),
            ] {
                let mut c = match budgeted {
                    true => GCola::deamortized(PlainMem::new()),
                    false => plain(g, p),
                };
                let mut model = BTreeMap::new();
                let mut rng = cosbt_testkit::Rng::new(0x4EAD ^ keys ^ (g as u64) << 12);
                let mut shadowing = 0;
                for i in 0..1024u64 {
                    let at = format!("g={g} p={p_or_policy} {shape} after op {i}");
                    let key = rng.below(keys);
                    if rng.below(8) < batches {
                        // A batch of up to 2g + 1 ops: it may fit the head
                        // or carry it.
                        let mut b = UpdateBatch::new();
                        for _ in 0..rng.below(2 * g as u64 + 2) {
                            let k = rng.below(keys);
                            if rng.chance(1, 4) {
                                b.delete(k);
                                model.remove(&k);
                            } else {
                                b.put(k, i);
                                model.insert(k, i);
                            }
                        }
                        c.apply(&mut b);
                    } else if rng.below(8) < deletes {
                        c.delete(key);
                        model.remove(&key);
                    } else {
                        c.insert(key, i);
                        model.insert(key, i);
                    }
                    c.check_invariants();
                    shadowing += c.head.iter().any(|h| {
                        let stored = |l| c.items_vec(l).iter().any(|x| x.key == h.key);
                        h.is_tombstone() && (2..c.levels.len()).any(stored)
                    }) as u32;
                    for k in [key, rng.below(keys), rng.below(keys)] {
                        let want = model.get(&k).copied();
                        assert_eq!(c.get(k), want, "get {k}, {at}");
                        assert_eq!(c.get_plain(k), want, "get_plain {k}, {at}");
                    }
                    let lo = rng.below(keys);
                    let hi = lo + rng.below(keys / 2);
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    let mut cur = c.cursor(lo, hi);
                    let forward: Vec<_> = std::iter::from_fn(|| cur.next()).collect();
                    let mut backward: Vec<_> = std::iter::from_fn(|| cur.prev()).collect();
                    backward.reverse();
                    drop(cur);
                    assert_eq!(forward, want, "cursor forward {lo}..={hi}, {at}");
                    assert_eq!(backward, want, "cursor backward {lo}..={hi}, {at}");
                    if i % 64 != 63 {
                        continue;
                    }
                    let meta = c.save_meta();
                    let mut re = GCola::from_parts(c.mem.clone(), &meta).expect(&at);
                    re.check_invariants();
                    assert_eq!(re.head, c.head, "{at}");
                    assert_eq!(re.save_meta(), meta, "{at}");
                    for k in 0..keys {
                        assert_eq!(re.get(k), model.get(&k).copied(), "reopened get {k}, {at}");
                    }
                }
                let live: Vec<(u64, u64)> = model.into_iter().collect();
                assert_eq!(c.range(0, u64::MAX), live, "g={g} p={p_or_policy} {shape}");
                let stored = c.physical_len() as u64;
                assert_eq!(c.stats().cells_dropped, c.insertions() - stored);
                if shape == "delete-heavy" {
                    assert!(
                        shadowing > 0,
                        "g={g} p={p_or_policy}: no head tombstone shadowed a level"
                    );
                }
            }
        }
    }

    /// A carry's scratch is the structure's fixed scratch: a chunk per
    /// level, the sweep buffer, the cascade's keys and the head's `2g`
    /// cells — not a buffer the size of the carry, however large it is.
    #[test]
    fn a_carry_holds_only_the_fixed_scratch() {
        let mut c = plain(4, 0.1);
        let mut largest = 0;
        for i in 0..1u64 << 15 {
            let before = c.stats().cells_written;
            c.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
            largest = largest.max(c.stats().cells_written - before);
        }
        let bound = (c.levels.len() + 1) * CHUNK
            + 2 * c.levels.iter().map(|lv| lv.red_cap).max().unwrap_or(0) / 4
            + 2 * c.g;
        let peak = c.stats().scratch_peak_cells;
        assert!(largest >= 1 << 14, "a carry of {largest} cells");
        assert!(
            peak <= bound as u64,
            "scratch peaked at {peak} cells, bound {bound}"
        );
        assert_eq!(peak, c.scratch_cells(), "the scratch is held, not grown");
    }

    /// Every written cell is stored or counted as dropped, and a level
    /// holds a key at most once: an overwrite-heavy store stays within
    /// its key space per level instead of growing with the stream.
    #[test]
    fn a_level_holds_one_version_per_key() {
        const KEYS: u64 = 1 << 9;
        let mut rng = cosbt_testkit::Rng::new(0x1CE);
        for (g, p) in [(2, 0.125), (4, 0.1)] {
            let mut c = plain(g, p);
            let mut model = std::collections::BTreeMap::new();
            for i in 0..1u64 << 14 {
                let key = rng.below(KEYS);
                if rng.chance(1, 4) {
                    c.delete(key);
                    model.remove(&key);
                } else {
                    c.insert(key, i);
                    model.insert(key, i);
                }
                assert_eq!(c.get(key), model.get(&key).copied(), "g={g} op {i}");
            }
            c.check_invariants();
            assert!(c.levels.iter().all(|lv| lv.items <= KEYS as usize));
            let stored = c.physical_len() as u64;
            assert_eq!(c.stats().cells_dropped, c.insertions() - stored, "g={g}");
            for key in 0..KEYS {
                assert_eq!(c.get(key), model.get(&key).copied(), "g={g} key {key}");
            }
            let live: Vec<(u64, u64)> = model.into_iter().collect();
            assert_eq!(c.range(0, u64::MAX), live, "g={g}");
        }
    }

    /// A store written before carries dropped anything reopens, answers
    /// as it did, and loses its shadowed versions as carries reach them.
    #[test]
    fn multi_version_levels_reopen_and_converge() {
        // p = 0: no lookahead cell samples the cells edited below.
        let mut c = plain(4, 0.0);
        let mut model = std::collections::BTreeMap::new();
        for k in 0..500u64 {
            c.insert(2 * k, k);
            model.insert(2 * k, k);
        }
        // Turn the second and third of every four cells of each level,
        // interior so the persisted fence keys stay true, into older
        // versions of the first: what the old carry left behind.
        let meta = c.save_meta();
        let mut mem = c.mem.clone();
        let mut shadowed = 0;
        for lv in c.levels.iter().filter(|lv| lv.items >= 8) {
            for i in (lv.run_base()..lv.run_base() + lv.items - 4).step_by(4) {
                let newest = mem.get(i).key;
                for older in [i + 1, i + 2] {
                    model.remove(&mem.get(older).key);
                    mem.set(older, Cell::item(newest, u64::MAX));
                    shadowed += 1;
                }
            }
        }
        assert!(shadowed > 100);
        let mut c = GCola::from_parts(mem, &meta).expect("a multi-version store opens");
        for k in 0..1000u64 {
            assert_eq!(c.get(k), model.get(&k).copied(), "reopened, key {k}");
        }
        // Fresh odd keys until a carry has rewritten the deepest level.
        let deepest = c.levels.len() - 1;
        let mut k = 1;
        while c.levels.len() == deepest + 1 {
            c.insert(k, k);
            model.insert(k, k);
            k += 2;
        }
        c.check_invariants();
        assert_eq!(c.stats().cells_dropped, shadowed);
        let live: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(c.range(0, u64::MAX), live);
    }

    /// A committed deamortized store has no merge in flight or due:
    /// meta with a filling extent, a state byte that disagrees with its
    /// items, or both extents of a level sealed is a typed error at the
    /// open, not a panic at the next insert.
    #[test]
    fn deamortized_meta_with_a_merge_in_flight_or_due_is_refused() {
        let mut c = GCola::deamortized(PlainMem::new());
        for k in 0..4 {
            c.insert(k, k);
        }
        let meta = c.save_meta();
        // The head sealed level 2's first extent, 4; 5 is empty.
        let (a, b) = (c.levels[4], c.levels[5]);
        assert_eq!((a.items, b.items), (4, 0));
        // Field `f` of extent `e`: after tag, version, g, p, N and the
        // count, seven fields and a state byte an extent.
        let at = |e: usize, f: usize| 2 + 4 * 8 + 57 * e + 8 * f;
        let mut sealed_twice = meta.clone();
        let mut mem = c.mem.clone();
        for i in 0..4 {
            mem.set(b.off + i, c.mem.get(a.run_base() + i));
        }
        sealed_twice[at(5, 4)..][..8].copy_from_slice(&4u64.to_le_bytes());
        sealed_twice[at(5, 6)..][..8].copy_from_slice(&0u64.to_le_bytes());
        sealed_twice[at(5, 7)] = 1;
        sealed_twice.extend_from_slice(&meta[meta.len() - 16..]);
        let (mut filling, mut disagrees) = (meta.clone(), meta);
        (filling[at(5, 7)], disagrees[at(4, 7)]) = (2, 0);
        for (bad, why) in [
            (filling, "extent 5 is filling"),
            (disagrees, "extent 4"),
            (sealed_twice, "sealed twice"),
        ] {
            match GCola::from_parts(mem.clone(), &bad) {
                Err(MetaError::Invalid(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("{why}: opened: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn cache_aware_constructor_sets_growth() {
        let c = GCola::cache_aware(PlainMem::new(), 256, 0.5);
        assert_eq!(c.growth(), 16);
        let c = GCola::cache_aware(PlainMem::new(), 256, 0.0);
        assert_eq!(c.growth(), 2);
    }

    #[test]
    fn works_over_sim_mem() {
        use cosbt_dam::{new_shared_sim, CacheConfig, SimMem};
        let sim = new_shared_sim(CacheConfig::new(4096, 16));
        let mem: SimMem<Cell> = SimMem::with_elem_bytes(sim.clone(), 32);
        let mut c = GCola::new(mem, 2, 0.125);
        let n = 1u64 << 13;
        for i in 0..n {
            c.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i);
        }
        let per_insert = sim.borrow().stats().transfers() as f64 / n as f64;
        // O((log N)/B) with B = 128 cells/block: well under 1.
        assert!(per_insert < 1.0, "transfers/insert = {per_insert}");
        for i in (0..n).step_by(101) {
            assert_eq!(c.get(i.wrapping_mul(0x9E3779B97F4A7C15)), Some(i));
        }
        c.check_invariants();
    }
}

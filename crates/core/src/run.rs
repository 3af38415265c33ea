//! A level is a run: what a point lookup, a cursor seek, a reopen and an
//! invariant check do with *one* sorted run of cells, written once for
//! the g-COLA and the rebuild of retired formats ([`crate::legacy`]).
//! Each keeps what is its own — geometry, which runs are visible in which
//! order, merge policy — and hands its runs here. DESIGN.md ("One run, one probe") has the window contract,
//! the two search counters and the fence rule these methods share.

use std::fmt;

use cosbt_dam::Mem;

use crate::cascade::{AuxBuilder, LevelAux, Probe};
use crate::entry::Cell;
use crate::persist::MetaError;
use crate::runbuf::{RunBuf, CHUNK};
use crate::stats::ColaStats;

/// One sorted, contiguous run of cells; runs are supplied newest first.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// First slot of the run in the backing array.
    pub base: usize,
    /// Number of occupied cells.
    pub len: usize,
    /// The cascade aux built over exactly these `len` cells, if the
    /// structure keeps one: its fences and filter rule keys out without
    /// touching the run, and its ghost sample brackets every search to
    /// two strides. `None` (a caller with bare runs, the reference
    /// searches) means a full binary search; an aux of another length is
    /// ignored.
    pub aux: Option<&'a LevelAux>,
}

impl<'a> Run<'a> {
    /// The same cells without their aux: what the paper's plain searches
    /// probe.
    pub fn bare(self) -> Run<'static> {
        Run {
            base: self.base,
            len: self.len,
            aux: None,
        }
    }

    /// The aux, if it was built over exactly these cells.
    #[inline]
    pub(crate) fn sample(&self) -> Option<&'a LevelAux> {
        self.aux.filter(|aux| aux.len == self.len)
    }

    /// The slot window a search for `key` is confined to: the caller's
    /// clamp cut to the run, intersected with the ghost window.
    #[inline]
    fn window(&self, key: u64, clamp: Option<(usize, usize)>) -> (usize, usize) {
        let (lo, hi) = clamp.map_or((0, self.len), |(a, b)| (a.min(self.len), b.min(self.len)));
        match self.sample() {
            Some(aux) => {
                let (alo, ahi) = aux.window(key);
                (lo.max(alo), hi.min(ahi))
            }
            None => (lo, hi),
        }
    }

    /// First position in `[lo, hi)` whose key is not `below`, or `hi`,
    /// and the number of cells read to find it.
    #[inline]
    fn bisect<M: Mem<Cell>>(
        &self,
        mem: &M,
        (mut lo, mut hi): (usize, usize),
        below: impl Fn(u64) -> bool,
    ) -> (usize, u64) {
        let mut reads = 0;
        while lo < hi {
            let mid = (lo + hi) / 2;
            reads += 1;
            if below(mem.get(self.base + mid).key) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo, reads)
    }

    /// At least the number of real cells with keys in `lo..=hi`, read off
    /// the aux in DRAM: the cells between the ghost windows of `lo` and
    /// `hi`, none outside the fences; the whole run without an aux.
    pub(crate) fn span(&self, lo: u64, hi: u64) -> usize {
        match self.sample() {
            Some(aux) if hi < aux.fence_min || lo > aux.fence_max => 0,
            Some(aux) => aux.window(hi).1 - aux.window(lo).0,
            None => self.len,
        }
    }

    /// First position whose key is ≥ `key` (`len` if none): a binary
    /// search inside the ghost window — at most two strides, bracketed in
    /// DRAM — when the run has an aux, over the whole run otherwise.
    #[inline]
    pub fn lower_bound<M: Mem<Cell>>(&self, mem: &M, key: u64) -> usize {
        self.bisect(mem, self.window(key, None), |k| k < key).0
    }

    /// First position whose key is > `key` (`len` if none), searched as
    /// [`Run::lower_bound`] searches.
    #[inline]
    pub fn upper_bound<M: Mem<Cell>>(&self, mem: &M, key: u64) -> usize {
        self.bisect(mem, self.window(key, None), |k| k <= key).0
    }

    /// The point probe of one run for the probed key — hashed once by
    /// the lookup, for every run it probes. `None` if the fences or the
    /// filter rule `key` out in DRAM (one `filter_skips`, no cell read);
    /// otherwise the position of the first cell with key ≥ `key` inside
    /// the window — the ghost window, cut to `clamp` — and the leftmost
    /// real cell carrying `key`, the run's newest version, if any.
    ///
    /// The walk to that cell passes redundant cells of the same key and
    /// stops at the first other key, or at the run's end: a clamp may end
    /// among the key's cells, ahead of its real one. Every cell read
    /// counts once in `cells_scanned`.
    #[inline]
    pub fn find<M: Mem<Cell>>(
        &self,
        mem: &M,
        probe: &Probe,
        clamp: Option<(usize, usize)>,
        stats: &mut ColaStats,
    ) -> Option<(usize, Option<Cell>)> {
        if self.sample().is_some_and(|aux| !aux.may_contain(probe)) {
            stats.filter_skips += 1;
            return None;
        }
        let key = probe.key();
        let (ins, reads) = self.bisect(mem, self.window(key, clamp), |k| k < key);
        stats.cells_scanned += reads;
        for i in ins..self.len {
            let c = mem.get(self.base + i);
            stats.cells_scanned += 1;
            if c.key != key {
                break;
            }
            if c.is_real() {
                return Some((ins, Some(c)));
            }
        }
        Some((ins, None))
    }

    /// Rebuilds the aux of this occupied run over an already-populated
    /// store: the persisted `fence` pair must equal the keys of the
    /// run's first and last stored cell (two point reads, so metadata
    /// for another store fails before the scan); one [`RunBuf`] sweep
    /// then hands every staged chunk to [`AuxBuilder::extend`] (its
    /// filter sized for `keys` keys, as the structure sizes it) and, with
    /// its offset, to `tap`; [`LevelAux::check`] judges the result. `what`
    /// names the run in the error.
    pub(crate) fn reopen<M: Mem<Cell>>(
        &self,
        mem: &M,
        scratch: &mut RunBuf,
        fence: (u64, u64),
        keys: usize,
        what: fmt::Arguments<'_>,
        mut tap: impl FnMut(usize, &[Cell]),
    ) -> Result<LevelAux, MetaError> {
        debug_assert!(self.len > 0, "only occupied runs persist fences");
        let stored = (
            mem.get(self.base).key,
            mem.get(self.base + self.len - 1).key,
        );
        if fence != stored {
            return Err(MetaError::Invalid(format!(
                "{what} fence keys ({}, {}) disagree with stored cells ({}, {})",
                fence.0, fence.1, stored.0, stored.1
            )));
        }
        let mut aux = AuxBuilder::recycling(self.len, keys, None);
        scratch.for_each_chunk(mem, self.base, self.len, |off, chunk| {
            aux.extend(chunk);
            tap(off, chunk);
        });
        let aux = aux.finish();
        aux.check()
            .map_err(|e| MetaError::Invalid(format!("{what} cascade state: {e}")))?;
        Ok(aux)
    }

    /// The invariants of one run slot (tests; panics on violation): the
    /// cells are sorted, and the aux is present exactly when the run is
    /// occupied and equals what a fresh build over the stored cells
    /// gives, its filter sized for `keys` keys — fences, ghost sample,
    /// filter and length. Returns the number of real cells.
    pub(crate) fn check<M: Mem<Cell>>(
        &self,
        mem: &M,
        keys: usize,
        what: fmt::Arguments<'_>,
    ) -> usize {
        let Some(aux) = self.aux else {
            assert_eq!(self.len, 0, "{what} occupied but lacks aux");
            return 0;
        };
        assert!(self.len > 0, "{what} empty but has aux");
        let mut fresh = AuxBuilder::recycling(self.len, keys, None);
        let (mut chunk, mut prev, mut items) = (Vec::with_capacity(CHUNK), 0, 0);
        for i in 0..self.len {
            let c = mem.get(self.base + i);
            assert!(prev <= c.key, "{what} not sorted at {i}");
            prev = c.key;
            items += c.is_real() as usize;
            chunk.push(c);
            if chunk.len() == CHUNK || i + 1 == self.len {
                fresh.extend(&chunk);
                chunk.clear();
            }
        }
        assert!(
            *aux == fresh.finish(),
            "{what} aux disagrees with stored cells"
        );
        items
    }
}

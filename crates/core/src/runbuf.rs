//! The fixed staging buffer the COLAs stream their contiguous sweeps
//! through, so a sweep reaches the storage backend as run-level
//! [`Mem::read_run`] / [`Mem::write_run`] calls — one lock and one
//! residency lookup per page on the file store — instead of one call per
//! cell.
//!
//! Sweeps that are one contiguous ascending pass go through it: level
//! rewrites, rebuild scans, and a carry's output, whose chunks
//! interleave with the chunks its sources read (`merge.rs`). Those
//! chunks never cross a multiple of [`CHUNK`] slots, so a page dividing
//! it is touched by one call of each sweep. A caller that wants some
//! cells of a sweep for later (the g-COLA's lookahead samples) taps the
//! staged chunks instead of reading the store again; a deamortized merge's
//! budgeted moves go through it too, one short sweep per insert. Binary
//! searches interleave single cells and stay on `get`/`set`; so does a
//! cursor, except that its forward
//! loads come out of peeked windows it pays for in load order
//! (`cursor.rs`), which it keeps in this buffer while the structure has
//! no sweep to run.

use cosbt_dam::Mem;

use crate::cursor::{Lists, Segment, Window, MAX_SEGMENTS};
use crate::entry::Cell;

/// Cells per run call: 16 KiB, four 4 KiB pages. A level is streamed
/// through the buffer chunk by chunk, never staged whole, so peak memory
/// does not grow with the level.
pub(crate) const CHUNK: usize = 512;

/// Runs a cursor's state is sized for up front.
const RUNS: usize = 64;

/// A structure-owned scratch of [`CHUNK`] cells, allocated once at
/// construction: no sweep allocates or zeroes anything. Between sweeps
/// the structure lends it to the cursor it opens
/// ([`crate::RunMergeCursor`]), which keeps its peeked windows in the
/// cells and their bookkeeping beside them, so a scan allocates and
/// zeroes nothing for them either.
#[derive(Debug)]
pub(crate) struct RunBuf {
    pub(crate) cells: Box<[Cell]>,
    /// Cells per window: `cells` split evenly among the cursor's runs in
    /// the store.
    pub(crate) cap: usize,
    /// The cursor's runs ahead of its first run in the store — the
    /// head's runs in DRAM, if any — which take no window: run `r`'s
    /// window starts at cell `(r − dram) · cap`.
    pub(crate) dram: usize,
    /// The lists a cursor takes while it lives and gives back when it is
    /// dropped: its runs, their slots, their ranks and the runs it owes a
    /// load. Like `windows`, each holds one entry per run of the cursor
    /// and is sized up front for more runs than a structure has levels,
    /// so no open allocates.
    pub(crate) lists: Lists,
    /// One per run of the cursor holding the scratch.
    pub(crate) windows: Vec<Window>,
    /// At most [`MAX_SEGMENTS`] long.
    pub(crate) log: Vec<Segment>,
}

impl RunBuf {
    pub(crate) fn new() -> RunBuf {
        RunBuf {
            cells: vec![Cell::default(); CHUNK].into_boxed_slice(),
            cap: 0,
            dram: 0,
            lists: (
                Vec::with_capacity(RUNS),
                Vec::with_capacity(RUNS),
                Vec::with_capacity(RUNS),
                Vec::with_capacity(RUNS),
            ),
            windows: Vec::with_capacity(RUNS),
            log: Vec::with_capacity(MAX_SEGMENTS),
        }
    }

    /// Calls `f` on each staged chunk of `mem[base..base + len]`, in
    /// order, with the chunk's offset in the run.
    pub(crate) fn for_each_chunk<M: Mem<Cell>>(
        &mut self,
        mem: &M,
        base: usize,
        len: usize,
        mut f: impl FnMut(usize, &[Cell]),
    ) {
        let mut done = 0;
        while done < len {
            let chunk = &mut self.cells[..(len - done).min(CHUNK)];
            mem.read_run(base + done, chunk);
            f(done, chunk);
            done += chunk.len();
        }
    }

    /// Moves the run `mem[base..base + len]` to start at `to ≥ base`, a
    /// chunk at a time from its end, each chunk read and then written in
    /// ascending order: a chunk's write lands past every cell still to
    /// be read.
    pub(crate) fn shift<M: Mem<Cell>>(&mut self, mem: &mut M, base: usize, len: usize, to: usize) {
        debug_assert!(to >= base, "a run shifts right");
        let mut left = len;
        while left > 0 {
            let n = left.min(CHUNK);
            left -= n;
            let chunk = &mut self.cells[..n];
            mem.read_run(base + left, chunk);
            mem.write_run(to + left, chunk);
        }
    }

    /// Writes the cells `next` puts in the chunks it is handed to `mem`
    /// from slot `base` on, in slot order, and returns how many it wrote.
    /// `next` fills a prefix of each chunk and returns its length, short
    /// of the chunk's only once it has no more; it may read `mem` (not
    /// the slots being written). Chunks are flushed at each multiple of
    /// [`CHUNK`] slots, so a page dividing `CHUNK` cells is written by one
    /// call however the run is placed. `tap` sees each chunk once it is
    /// staged, with its offset in the run: what a caller wants of the
    /// cells it has just written, it takes here and never reads back.
    #[inline]
    pub(crate) fn fill<M: Mem<Cell>>(
        &mut self,
        mem: &mut M,
        base: usize,
        mut next: impl FnMut(&M, &mut [Cell]) -> usize,
        mut tap: impl FnMut(usize, &[Cell]),
    ) -> usize {
        let mut done = 0;
        loop {
            let at = base + done;
            let room = (at / CHUNK + 1) * CHUNK - at;
            let n = next(mem, &mut self.cells[..room]);
            if n == 0 {
                return done;
            }
            let chunk = &self.cells[..n];
            tap(done, chunk);
            mem.write_run(at, chunk);
            done += n;
            if n < room {
                return done;
            }
        }
    }
}

/// Fills `out` with the cells `next` hands out until it is full or
/// `next` hands out `None`, and returns how many: a per-cell source as
/// [`RunBuf::fill`] takes it.
#[inline]
pub(crate) fn each(out: &mut [Cell], mut next: impl FnMut() -> Option<Cell>) -> usize {
    let mut n = 0;
    while n < out.len() {
        let Some(cell) = next() else { break };
        out[n] = cell;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosbt_dam::PlainMem;

    /// A tap that checks the chunks tile the run in order and picks the
    /// cells at `positions` (ascending) off them.
    fn pick<'a>(
        positions: &'a [usize],
        covered: &'a mut usize,
        got: &'a mut Vec<(usize, Cell)>,
    ) -> impl FnMut(usize, &[Cell]) + 'a {
        move |off, chunk| {
            assert_eq!(off, *covered, "chunks tile the run in order");
            *covered += chunk.len();
            let inside = positions.iter().filter(|&&p| (off..*covered).contains(&p));
            got.extend(inside.map(|&p| (p, chunk[p - off])));
        }
    }

    fn round_trip(len: usize) {
        let mut mem = PlainMem::with_len(len + 5, Cell::default());
        let mut buf = RunBuf::new();
        // Either side of the first chunk boundary, and both ends.
        let mut positions = vec![0, CHUNK - 1, CHUNK, CHUNK + 1, len.saturating_sub(1)];
        positions.retain(|&p| p < len);
        positions.sort_unstable();
        positions.dedup();
        let want: Vec<(usize, Cell)> = positions
            .iter()
            .map(|&p| (p, Cell::item(p as u64, 2 * p as u64)))
            .collect();

        let mut i = 0u64;
        let (mut covered, mut got) = (0, Vec::new());
        let mut flushes = Vec::new();
        let mut tap = pick(&positions, &mut covered, &mut got);
        let written = buf.fill(
            &mut mem,
            3,
            |_, out| {
                each(out, || {
                    i += 1;
                    (i <= len as u64).then(|| Cell::item(i - 1, 2 * (i - 1)))
                })
            },
            |off, chunk| {
                flushes.push((3 + off, chunk.len()));
                tap(off, chunk)
            },
        );
        drop(tap);
        assert_eq!(
            (written, covered, &got),
            (len, len, &want),
            "fill tap, len {len}"
        );
        for (slot, n) in flushes {
            assert_eq!(
                slot / CHUNK,
                (slot + n - 1) / CHUNK,
                "a flush crossed a boundary"
            );
        }
        let mut next = 0u64;
        buf.for_each_chunk(&mem, 3, len, |_, chunk| {
            for c in chunk {
                assert_eq!(*c, Cell::item(next, 2 * next));
                next += 1;
            }
        });
        assert_eq!(next, len as u64);
        let (mut covered, mut got) = (0, Vec::new());
        buf.for_each_chunk(&mem, 3, len, pick(&positions, &mut covered, &mut got));
        assert_eq!((covered, &got), (len, &want), "read tap, len {len}");
        // Nothing outside the run was written.
        for i in [0, 1, 2, len + 3, len + 4] {
            assert_eq!(mem.get(i), Cell::default());
        }
    }

    #[test]
    fn fill_and_for_each_cross_chunk_boundaries() {
        for len in [
            0,
            1,
            2,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            CHUNK + 2,
            3 * CHUNK + 7,
        ] {
            round_trip(len);
        }
    }
}

//! The fixed staging buffer the COLAs stream their contiguous sweeps
//! through, so a sweep reaches the storage backend as run-level
//! [`Mem::read_run`] / [`Mem::write_run`] calls — one lock and one
//! residency lookup per page on the file store — instead of one call per
//! cell.
//!
//! Only sweeps that were already one contiguous ascending pass with no
//! other `Mem` access in between go through it (level reads and rewrites
//! — what a carry does with the cells in between is `merge.rs` — and
//! rebuild scans): page-touch order, and with it every transfer count, is
//! then unchanged. In-array two-source merges, binary searches, cursors
//! and budgeted deamortized moves interleave pages and stay on `get`/`set`.

use cosbt_dam::Mem;

use crate::cascade::{AuxBuilder, LevelAux};
use crate::entry::Cell;

/// Cells per run call: 16 KiB, four 4 KiB pages. A level is streamed
/// through the buffer chunk by chunk, never staged whole, so peak memory
/// does not grow with the level.
const CHUNK: usize = 512;

/// A structure-owned scratch of [`CHUNK`] cells, allocated once at
/// construction: no sweep allocates or zeroes anything.
#[derive(Debug)]
pub(crate) struct RunBuf(Box<[Cell]>);

impl RunBuf {
    pub(crate) fn new() -> RunBuf {
        RunBuf(vec![Cell::default(); CHUNK].into_boxed_slice())
    }

    /// Calls `f` on each cell of `mem[base..base + len]`, in order.
    pub(crate) fn for_each<M: Mem<Cell>>(
        &mut self,
        mem: &M,
        base: usize,
        len: usize,
        mut f: impl FnMut(&Cell),
    ) {
        if len == 1 {
            // A run of one cell is the per-cell call; level 0 is read
            // and written by every insert and must not pay for staging.
            return f(&mem.get(base));
        }
        let mut done = 0;
        while done < len {
            let chunk = &mut self.0[..(len - done).min(CHUNK)];
            mem.read_run(base + done, chunk);
            chunk.iter().for_each(&mut f);
            done += chunk.len();
        }
    }

    /// Builds the cascade aux of the run `mem[base..base + len]` by
    /// scanning it (reopen, and re-enabling the cascade; merges build
    /// the aux inline instead).
    pub(crate) fn scan_aux<M: Mem<Cell>>(&mut self, mem: &M, base: usize, len: usize) -> LevelAux {
        let mut b = AuxBuilder::new(len);
        self.for_each(mem, base, len, |c| b.push(c));
        b.finish()
    }

    /// Writes `next()`, called `len` times, to `mem[base..base + len]` in
    /// slot order.
    pub(crate) fn fill<M: Mem<Cell>>(
        &mut self,
        mem: &mut M,
        base: usize,
        len: usize,
        mut next: impl FnMut() -> Cell,
    ) {
        if len == 1 {
            return mem.set(base, next());
        }
        let mut done = 0;
        while done < len {
            let chunk = &mut self.0[..(len - done).min(CHUNK)];
            chunk.iter_mut().for_each(|c| *c = next());
            mem.write_run(base + done, chunk);
            done += chunk.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosbt_dam::PlainMem;

    fn round_trip(len: usize) {
        let mut mem = PlainMem::with_len(len + 5, Cell::default());
        let mut buf = RunBuf::new();
        let mut i = 0u64;
        buf.fill(&mut mem, 3, len, || {
            i += 1;
            Cell::item(i - 1, 2 * (i - 1))
        });
        let mut next = 0u64;
        buf.for_each(&mem, 3, len, |c| {
            assert_eq!(*c, Cell::item(next, 2 * next));
            next += 1;
        });
        assert_eq!(next, len as u64);
        // Nothing outside the run was written.
        for i in [0, 1, 2, len + 3, len + 4] {
            assert_eq!(mem.get(i), Cell::default());
        }
        if len > 0 {
            assert_eq!(buf.scan_aux(&mem, 3, len).len, len);
        }
    }

    #[test]
    fn fill_and_for_each_cross_chunk_boundaries() {
        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            round_trip(len);
        }
    }
}

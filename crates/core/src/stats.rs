//! Operation counters common to the COLA variants.

/// Logical work counters for a COLA. These count *elements*, not block
/// transfers — pair them with a [`cosbt_dam::IoSim`] backend to get
/// transfer counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct ColaStats {
    /// Insert operations (including deletes, which insert tombstones).
    pub inserts: u64,
    /// Merge events: carries, or, deamortized, extents written whole.
    pub merges: u64,
    /// Cells written during merges (the paper's "moves").
    pub cells_written: u64,
    /// Point-lookup operations.
    pub searches: u64,
    /// Cells examined during searches.
    pub cells_scanned: u64,
    /// Largest number of cells written by any single insert (worst case).
    pub max_cells_per_insert: u64,
    /// Levels (or a deamortized level's extents) skipped by a fence or filter
    /// during searches without touching any of their cells.
    pub filter_skips: u64,
    /// Cells a carry read and did not write back: versions shadowed by a
    /// newer one of the same key, and tombstones merged into the deepest
    /// occupied level, where nothing is left for them to shadow. Only
    /// the g-COLA drops cells; the other variants keep every version
    /// until `compact`.
    pub cells_dropped: u64,
    /// The most DRAM scratch the write path held at once, in 32-byte
    /// cells: the g-COLA's source chunks, its sweep buffer and the
    /// lookahead keys of a cascade. Fixed by the level geometry, not by
    /// the size of a carry.
    pub scratch_peak_cells: u64,
    /// Carries that first moved the target's old run to the right end of
    /// its level, because the free slots before it were fewer than the
    /// cells the carry brings (the g-COLA only; the moved cells count in
    /// `cells_written`).
    pub run_moves: u64,
}

impl ColaStats {
    /// Average cells written per insert (the amortized merge cost).
    pub fn amortized_writes(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.cells_written as f64 / self.inserts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortized_writes_safe_on_empty() {
        assert_eq!(ColaStats::default().amortized_writes(), 0.0);
        let s = ColaStats {
            inserts: 4,
            cells_written: 10,
            ..Default::default()
        };
        assert!((s.amortized_writes() - 2.5).abs() < 1e-12);
    }
}

//! The cache-oblivious lookahead array (COLA) family — the primary
//! contribution of *Cache-Oblivious Streaming B-trees* (Bender et al.,
//! SPAA 2007), Sections 3 and 4.
//!
//! * [`GCola`] — Section 4's implementation: growth factor `g`, pointer
//!   density `p`, fractional-cascading lookahead pointers, `O(log N)`
//!   search transfers. `GCola::cola(mem)` (g = 2) is the COLA of Lemma
//!   20; `GCola::cache_aware(mem, b, eps)` is the cache-aware lookahead
//!   array that matches the Bᵉ-tree bounds; `GCola::basic(mem)` (g = 2,
//!   p = 0) is Section 3's basic COLA: `log₂ N` levels, binary-carry
//!   merging, `O((log N)/B)` amortized insert transfers, `O(log² N)`
//!   search transfers without the cascade.
//! * [`DeamortCola`] — Theorem 22's deamortization: two arrays per
//!   level, safe/unsafe levels, `m = 2k + 2` moves per insert, worst-case
//!   `O(log N)` per insert, merges hidden from queries until they commit.
//!   Theorem 24's third array and lookahead pointers serve a search this
//!   tree does not make: each array's DRAM aux bounds its probe instead.
//! * [`legacy`] — the formats no engine writes any more, and one rebuild.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cascade;
pub mod cursor;
pub mod deamort;
pub mod dict;
pub mod entry;
pub mod epoch;
pub mod gcola;
pub mod legacy;
mod merge;
pub mod persist;
mod run;
mod runbuf;
pub mod stats;

pub use cascade::{AuxBuilder, LevelAux, LevelFilter, Probe};
pub use cursor::{MergeCursor, Run, RunMergeCursor};
pub use deamort::DeamortCola;
pub use dict::{BatchOp, Cursor, CursorOps, Dictionary, UpdateBatch, VecCursor};
pub use entry::Cell;
pub use epoch::{EpochManager, EpochStats, EpochVersion, PinnedEpoch};
pub use gcola::GCola;
pub use persist::{MetaError, MetaReader, MetaWriter, Persist};
pub use stats::ColaStats;

/// Section 3's basic COLA is [`GCola::basic`], the g-COLA at g = 2 and
/// p = 0. These tests pin what makes it the paper's binary counter, on
/// streams of distinct keys, where Invariant 1 still holds.
#[cfg(test)]
mod basic {
    mod tests {
        use cosbt_dam::PlainMem;

        use crate::{Dictionary, GCola};

        /// Level k is `2^k` slots at slot `2^k`: slot 0 is the merge
        /// spare, and each level ends where the next begins.
        #[test]
        fn level_offsets_are_contiguous() {
            let mut c = GCola::basic(PlainMem::new());
            for i in 0..1u64 << 10 {
                c.insert(i, i);
            }
            let shapes = c.level_shapes();
            assert_eq!(shapes.len(), 11);
            let mut next = 1;
            for (k, &(off, slots, _)) in shapes.iter().enumerate() {
                assert_eq!((off, slots), (next, 1 << k), "level {k}");
                next = off + slots;
            }
        }

        /// Invariant 1: level k ≥ 2 holds exactly `2^k` items iff bit k
        /// of N is set, after every insert; levels 0 and 1 are the head,
        /// which holds bits 0 and 1 of N, `N mod 4` items, in DRAM.
        #[test]
        fn insert_follows_binary_counter() {
            let mut c = GCola::basic(PlainMem::new());
            for i in 0..1u64 << 10 {
                c.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
                c.check_invariants();
                let n = c.insertions();
                assert_eq!(c.head_len() as u64, n % 4, "head after {n} inserts");
                for (k, &(_, _, items)) in c.level_shapes().iter().enumerate() {
                    let want = if k >= 2 && n >> k & 1 == 1 { 1 << k } else { 0 };
                    assert_eq!(items, want, "level {k} after {n} inserts");
                }
            }
            assert_eq!(c.insertions(), 1 << 10);
        }

        #[test]
        fn amortized_merge_cost_is_logarithmic() {
            let mut c = GCola::basic(PlainMem::new());
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
            // Insert 2^k elements: the last insert merges everything; this
            // is exactly the behaviour deamortization removes.
            let mut c = GCola::basic(PlainMem::new());
            for i in 0..(1u64 << 10) {
                c.insert(i, i);
            }
            assert_eq!(c.stats().max_cells_per_insert, 1 << 10);
        }
    }
}

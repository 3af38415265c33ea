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
//!   search transfers without the cascade. `GCola::deamortized(mem)` is
//!   Theorem 22's deamortization of it: the same levels, head and merge
//!   kernel with two extents per level and `m = 2k + 2` moves per insert,
//!   so an insert costs `O(log N)` in the worst case, and merges hidden
//!   from queries until they commit. Theorem 24's third array and
//!   lookahead pointers serve a search this tree does not make: each
//!   extent's DRAM aux bounds its probe instead.
//! * [`legacy`] — the formats no engine writes any more, and one rebuild.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cascade;
pub mod cursor;
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
pub use cursor::{Run, RunMergeCursor};
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

        /// Invariant 1: level k ≥ 7 holds exactly `2^k` items iff bit k
        /// of N is set, after every insert; levels 0 to 6 are the head,
        /// which holds bits 0 to 6 of N, `N mod 128` items, in DRAM.
        #[test]
        fn insert_follows_binary_counter() {
            let mut c = GCola::basic(PlainMem::new());
            for i in 0..1u64 << 10 {
                c.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
                c.check_invariants();
                let n = c.insertions();
                assert_eq!(c.head_len() as u64, n % 128, "head after {n} inserts");
                for (k, &(_, _, items)) in c.level_shapes().iter().enumerate() {
                    let want = if k >= 7 && n >> k & 1 == 1 { 1 << k } else { 0 };
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

/// Section 3's deamortized COLA is [`GCola::deamortized`]: the g-COLA at
/// g = 2 and p = 0 with the budgeted merge policy. These tests pin Lemma
/// 21's schedule (which `check_invariants` asserts) and Theorem 22's
/// worst-case bound, counted by `max_cells_per_insert`: the `2·levels +
/// 2` move budget plus the head's `2g = 4` cells an insert may seal.
#[cfg(test)]
mod deamort {
    mod tests {
        use std::collections::BTreeMap;

        use cosbt_dam::PlainMem;

        use crate::{Cell, Dictionary, GCola, Persist};

        type PlainCola = GCola<PlainMem<Cell>>;

        fn cola() -> PlainCola {
            GCola::deamortized(PlainMem::new())
        }

        /// Level k is two extents of `2^k` slots, listed in either order,
        /// that fill slots `2^{k+1}..2^{k+2}`, so each extent starts on a
        /// multiple of its size; levels 0 and 1, whose items the head
        /// holds, take slots 2 to 7.
        #[test]
        fn array_offsets_pack_levels() {
            let mut c = cola();
            for i in 0..1u64 << 10 {
                c.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
            }
            let mut extents = c.level_shapes();
            assert_eq!(extents.len(), 2 * c.num_levels());
            extents.sort_unstable();
            for (e, &(off, slots, _)) in extents.iter().enumerate() {
                assert_eq!(
                    (off, slots),
                    ((2 + e % 2) << (e / 2), 1 << (e / 2)),
                    "extent {e}"
                );
            }
        }

        /// Reopens `c` from its own `save_meta()`: the quiesced store
        /// carries the whole dictionary, merges in flight included.
        fn reopened(mut c: PlainCola) -> PlainCola {
            let meta = c.save_meta();
            let c = GCola::from_parts(c.mem().clone(), &meta).expect("own meta reopens");
            c.check_invariants();
            c
        }

        /// `ops` upserts of seeded keys below `keys`, spot-checked against
        /// a model every `every` inserts (reopening there when `reopen`),
        /// then every key checked.
        fn upserts_match_model(seed: u64, ops: u64, keys: u64, every: u64, reopen: bool) {
            let mut c = cola();
            let mut model = BTreeMap::new();
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
            let mut c = cola();
            let mut i = 0u64;
            for lg in [8u64, 11, 14] {
                while i < 1 << lg {
                    c.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i);
                    i += 1;
                }
                let worst = c.stats().max_cells_per_insert;
                assert!(worst <= 3 * lg, "worst case {worst} at N = 2^{lg}");
            }
        }

        #[test]
        fn worst_case_moves_bounded_by_m() {
            let mut c = cola();
            for i in 0..(1u64 << 14) {
                c.insert(i, i);
            }
            let k = c.num_levels() as u64;
            let worst = c.stats().max_cells_per_insert;
            assert!(
                worst <= 2 * k + 2 + 4,
                "worst case {worst}, m = {}",
                2 * k + 2
            );
            // Contrast: the amortized COLA's worst case is Θ(N).
            assert!(worst < 1 << 10);
        }

        #[test]
        fn no_adjacent_unsafe_levels_ever() {
            let mut c = cola();
            for i in 0..20_000u64 {
                c.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i);
                if i % 256 == 255 {
                    c.check_invariants();
                }
            }
            c.check_invariants();
        }

        /// Writes keys `0..n`, deletes every `del`-th, overwrites every
        /// `up`-th (reopening between the two when `reopen`), then checks
        /// each.
        fn deletes_then_upserts(n: u64, del: u64, up: u64, reopen: bool) {
            let mut c = cola();
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

        /// Inserts `(key(i), i)` for `i < n`, checking `range(lo, hi)`
        /// against a model at every `every`-th insert and at the end.
        fn ranges_match_model(n: u64, key: fn(u64) -> u64, (lo, hi): (u64, u64), every: u64) {
            let (mut c, mut model) = (cola(), BTreeMap::new());
            for i in 0..n {
                c.insert(key(i), i);
                model.insert(key(i), i);
                if i % every == 0 || i + 1 == n {
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(c.range(lo, hi), want, "at insert {i}");
                }
            }
        }

        #[test]
        fn range_sees_committed_state_only_but_completely() {
            ranges_match_model(777, |i| i * 37 % 1000, (100, 400), u64::MAX);
        }

        #[test]
        fn range_matches_model_mid_stream() {
            ranges_match_model(3000, |i| i * 131 % 4096, (512, 2048), 701);
        }

        #[test]
        fn search_cost_not_amortized() {
            // The paper's point versus the lazy-search BRT: a search never
            // triggers restructuring. Verify gets do not write.
            let mut c = cola();
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
            let mut c = cola();
            let n = 1u64 << 13;
            for i in 0..n {
                c.insert(i, i);
            }
            let per = c.stats().amortized_writes();
            assert!(
                per < 2.0 * 13.0,
                "amortized writes {per} should stay O(log N)"
            );
        }
    }
}

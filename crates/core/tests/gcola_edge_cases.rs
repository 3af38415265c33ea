//! Edge-case and property tests for the g-COLA beyond the unit suite:
//! boundary keys, pathological pointer densities, compaction behaviour,
//! and equivalence of the windowed search with an exhaustive scan.

use cosbt_core::entry::Cell;
use cosbt_core::{Dictionary, GCola};
use cosbt_dam::PlainMem;
use cosbt_testkit::{check_cases, Rng};

fn plain(g: usize, p: f64) -> GCola<PlainMem<Cell>> {
    GCola::new(PlainMem::new(), g, p)
}

#[test]
fn boundary_keys_u64_min_max() {
    let mut c = plain(2, 0.125);
    c.insert(0, 100);
    c.insert(u64::MAX, 200);
    c.insert(u64::MAX - 1, 300);
    for filler in 1..2000u64 {
        c.insert(filler * 2, filler);
    }
    assert_eq!(c.get(0), Some(100));
    assert_eq!(c.get(u64::MAX), Some(200));
    assert_eq!(c.get(u64::MAX - 1), Some(300));
    let top = c.range(u64::MAX - 1, u64::MAX);
    assert_eq!(top, vec![(u64::MAX - 1, 300), (u64::MAX, 200)]);
    c.check_invariants();
}

#[test]
fn all_same_key_hammering() {
    // Every insert shadows the previous one, and every carry keeps one
    // version of the key: at most one cell per level, however long the
    // stream, and the map stays a single live key.
    let mut c = plain(4, 0.1);
    for i in 0..10_000u64 {
        c.insert(7, i);
    }
    assert!(c.physical_len() <= c.num_levels());
    assert_eq!(
        c.stats().cells_dropped,
        10_000 - c.physical_len() as u64,
        "every cell is stored or counted as dropped"
    );
    c.check_invariants();
    assert_eq!(c.get(7), Some(9_999));
    assert_eq!(c.range(0, u64::MAX), vec![(7, 9_999)]);
    c.compact();
    assert_eq!(c.physical_len(), 1);
    assert_eq!(c.get(7), Some(9_999));
}

#[test]
fn delete_then_reinsert_cycles() {
    let mut c = plain(2, 0.125);
    for round in 0..50u64 {
        for k in 0..100u64 {
            c.insert(k, round * 1000 + k);
        }
        for k in (0..100u64).step_by(2) {
            c.delete(k);
        }
        for k in 0..100u64 {
            let want = if k % 2 == 0 {
                None
            } else {
                Some(round * 1000 + k)
            };
            assert_eq!(c.get(k), want, "round {round} key {k}");
        }
    }
    c.check_invariants();
}

#[test]
fn compact_empty_and_all_tombstones() {
    let mut c = plain(2, 0.125);
    c.compact(); // compacting empty is a no-op
    assert_eq!(c.physical_len(), 0);
    for k in 0..200u64 {
        c.insert(k, k);
    }
    for k in 0..200u64 {
        c.delete(k);
    }
    c.compact();
    assert_eq!(c.physical_len(), 0, "all-tombstone compaction empties");
    assert_eq!(c.get(5), None);
    c.insert(1, 1);
    assert_eq!(c.get(1), Some(1));
}

/// A tombstone has nothing left to shadow once it reaches the deepest
/// occupied level: the first carry into it after everything is deleted
/// empties the structure, with no `compact`.
#[test]
fn deleting_everything_empties_the_structure() {
    for (g, p) in [(2, 0.125), (4, 0.1)] {
        let mut c = plain(g, p);
        for k in 0..300u64 {
            c.insert(k, k);
        }
        for k in 0..300u64 {
            c.delete(k);
        }
        // Deleting again only adds tombstones, and brings that carry on.
        let mut again = 0u64;
        while c.physical_len() > 0 {
            c.delete(again % 300);
            again += 1;
            assert!(again <= 2048, "g={g}: no carry reached the deepest level");
        }
        assert_eq!(c.stats().cells_dropped, c.insertions(), "g={g}");
        c.check_invariants();
        assert_eq!(c.range(0, u64::MAX), vec![]);
        // Nothing is stored, so a delete is not either.
        c.delete(5);
        assert_eq!(c.physical_len(), 0);
        c.insert(5, 50);
        assert_eq!(c.get(5), Some(50));
        c.check_invariants();
    }
}

#[test]
fn extreme_growth_factor() {
    // A very large g behaves like a two-level structure.
    let mut c = plain(64, 0.05);
    for i in 0..20_000u64 {
        c.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i);
    }
    c.check_invariants();
    for i in (0..20_000u64).step_by(371) {
        assert_eq!(c.get(i.wrapping_mul(0x9E3779B97F4A7C15)), Some(i));
    }
    assert!(
        c.num_levels() <= 4,
        "g=64 should stay shallow: {}",
        c.num_levels()
    );
}

/// The windowed lookahead search agrees with the recency semantics on
/// arbitrary duplicate-heavy streams.
#[test]
fn windowed_search_agrees_with_model() {
    check_cases("windowed_search_agrees_with_model", 48, |rng: &mut Rng| {
        let keys = rng.vec_below(1, 500, 32);
        let probe = rng.below(40);
        let mut c = plain(2, 0.25);
        let mut model = std::collections::BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            c.insert(k, i as u64);
            model.insert(k, i as u64);
        }
        assert_eq!(c.get(probe), model.get(&probe).copied());
    });
}

/// Compaction preserves exactly the live content.
#[test]
fn compact_preserves_content() {
    check_cases("compact_preserves_content", 48, |rng: &mut Rng| {
        let len = 1 + rng.index(299);
        let mut c = plain(4, 0.1);
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..len {
            let (ins, k, v) = (rng.flag(), rng.below(64), rng.next_u64());
            if ins {
                c.insert(k, v);
                model.insert(k, v);
            } else {
                c.delete(k);
                model.remove(&k);
            }
        }
        let before: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        c.compact();
        assert_eq!(c.range(0, u64::MAX), before);
        assert_eq!(c.physical_len(), model.len());
        c.check_invariants();
    });
}

/// Level occupancy accounting never drifts: over distinct keys nothing
/// is shadowed, so the sum of per-level item counts equals inserts.
#[test]
fn physical_len_equals_operations() {
    check_cases("physical_len_equals_operations", 48, |rng: &mut Rng| {
        let n = rng.range(1, 2000);
        let mut c = plain(2, 0.125);
        for i in 0..n {
            c.insert(i, i);
        }
        assert_eq!(c.physical_len() as u64, n);
        assert_eq!(c.insertions(), n);
    });
}

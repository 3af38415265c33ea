//! The g-COLA's head, its front (levels 0 and 1's items) and its back
//! (the items of levels 2 to `h`, the deepest level whose capacities,
//! with the levels' below, sum to at most 127 cells), against a
//! `BTreeMap` model at g ∈ {2, 3, 4, 8}: seeded inserts of fresh keys,
//! overwrites, deletes, `apply` and `insert_batch` of 0 to 300 entries,
//! point lookups, cursor walks both ways over ranges that span the front,
//! the back and the levels, and `save_meta` → `from_parts` round trips,
//! with `check_invariants` after every operation. Each stream must fill
//! the back — a run of fresh keys after a carry does — and spill a full
//! front into a back that cannot hold it: the spill that carries. A second case deletes a key only the back holds,
//! with no level holding an item: the front keeps the tombstone until the
//! next spill drops both.

use std::collections::BTreeMap;

use cosbt_core::{Cell, Dictionary, GCola, Persist, UpdateBatch};
use cosbt_dam::PlainMem;
use cosbt_testkit::Rng;

type Cola = GCola<PlainMem<Cell>>;

/// `h` at growth factor `g`: the deepest level with `2g^h − 1 ≤ 127`.
fn head_top(g: usize) -> usize {
    (1..)
        .take_while(|&h| 2 * g.pow(h) - 1 <= 127)
        .last()
        .unwrap_or(1) as usize
}

/// The back's capacity: `cap(2) + … + cap(h) = 2g^h − 2g`.
fn back_cap(g: usize) -> usize {
    2 * g.pow(head_top(g) as u32) - 2 * g
}

/// `c` answers every key in `keys`, and walks of `[lo, hi]` both ways,
/// as `model` does.
fn agrees(c: &mut Cola, model: &BTreeMap<u64, u64>, keys: &[u64], (lo, hi): (u64, u64), at: &str) {
    for &k in keys {
        assert_eq!(c.get(k), model.get(&k).copied(), "get {k}, {at}");
    }
    let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
    let mut cur = c.cursor(lo, hi);
    let forward: Vec<_> = std::iter::from_fn(|| cur.next()).collect();
    let mut backward: Vec<_> = std::iter::from_fn(|| cur.prev()).collect();
    backward.reverse();
    drop(cur);
    assert_eq!(forward, want, "cursor forward {lo}..={hi}, {at}");
    assert_eq!(backward, want, "cursor backward {lo}..={hi}, {at}");
}

/// Reopens `c` from the meta a sync would commit: the reopened store
/// holds to its invariants, writes the same meta, and answers as the
/// model does.
fn round_trip(c: &mut Cola, model: &BTreeMap<u64, u64>, at: &str) {
    let meta = c.save_meta();
    let mut re = GCola::from_parts(c.mem().clone(), &meta).expect(at);
    re.check_invariants();
    assert_eq!(re.save_meta(), meta, "reopened meta, {at}");
    let live: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(re.range(0, u64::MAX), live, "reopened, {at}");
}

#[test]
fn the_head_tiers_answer_as_the_model_does() {
    const KEYS: u64 = 1 << 12;
    for g in [2usize, 3, 4, 8] {
        let (front_cap, back_cap) = (2 * g - 1, back_cap(g));
        assert!(back_cap > 0, "g = {g} has a back");
        let mut c: Cola = GCola::new(PlainMem::new(), g, 0.1);
        let mut model = BTreeMap::new();
        let mut rng = Rng::new(0x7135 ^ g as u64);
        let (mut full_backs, mut carrying_spills, mut batches) = (0, 0, 0);
        let mut fresh = KEYS;
        for i in 0..4000u64 {
            let at = format!("g={g} after op {i}");
            let (merges, before) = (c.stats().merges, c.head_shape());
            let key = rng.below(KEYS);
            let mut single = true;
            if i % 1000 == 500 {
                // Fresh keys until a carry empties the head, then as many
                // as levels 0 to h hold: their spills fill the back.
                let fill = |c: &mut Cola, model: &mut BTreeMap<u64, u64>, fresh: &mut u64| {
                    c.insert(*fresh, i);
                    model.insert(*fresh, i);
                    *fresh += 1;
                    c.check_invariants();
                };
                while c.stats().merges == merges {
                    fill(&mut c, &mut model, &mut fresh);
                }
                for _ in 0..front_cap + back_cap {
                    fill(&mut c, &mut model, &mut fresh);
                    full_backs += (c.head_shape().1 == back_cap) as u32;
                }
                assert_eq!(c.head_shape(), (front_cap, back_cap), "{at}");
                continue;
            }
            match rng.below(16) {
                0 => {
                    // A batch of 0 to 300 entries, one in four a delete.
                    let mut b = UpdateBatch::new();
                    for _ in 0..rng.below(301) {
                        let k = rng.below(KEYS);
                        if rng.chance(1, 4) {
                            b.delete(k);
                            model.remove(&k);
                        } else {
                            b.put(k, i);
                            model.insert(k, i);
                        }
                    }
                    c.apply(&mut b);
                    (single, batches) = (false, batches + 1);
                }
                1 => {
                    let mut pairs: Vec<(u64, u64)> =
                        (0..rng.below(301)).map(|_| (rng.below(KEYS), i)).collect();
                    pairs.sort_unstable();
                    pairs.dedup_by_key(|p| p.0);
                    c.insert_batch(&pairs);
                    model.extend(pairs.iter().copied());
                    (single, batches) = (false, batches + 1);
                }
                2..=4 => {
                    c.delete(key);
                    model.remove(&key);
                }
                5..=7 => {
                    // An overwrite of a live key, when there is one.
                    let k = model.range(key..).next().map_or(key, |(&k, _)| k);
                    c.insert(k, i);
                    model.insert(k, i);
                }
                _ => {
                    c.insert(key, i);
                    model.insert(key, i);
                }
            }
            c.check_invariants();
            let (front, back) = c.head_shape();
            assert!(front <= front_cap && back <= back_cap, "{at}");
            full_backs += (back == back_cap) as u32;
            let carried = c.stats().merges > merges;
            carrying_spills += (single && carried && before.0 == front_cap) as u32;
            if single && carried {
                assert_eq!((front, back), (0, 0), "a carry empties the head, {at}");
            }
            let lo = rng.below(KEYS);
            let span = (lo, lo + rng.below(KEYS / 4));
            let probes = [key, rng.below(KEYS), rng.below(KEYS + 64)];
            agrees(&mut c, &model, &probes, span, &at);
            if i % 97 == 96 {
                round_trip(&mut c, &model, &at);
            }
        }
        assert!(
            c.num_levels() > head_top(g) + 1,
            "g = {g}: no level past the head"
        );
        assert!(batches > 100, "g = {g}: {batches} batches");
        assert!(full_backs > 0, "g = {g}: the back never filled");
        assert!(carrying_spills > 0, "g = {g}: no spill carried");
        agrees(
            &mut c,
            &model,
            &[],
            (0, u64::MAX),
            &format!("g={g} at the end"),
        );
        round_trip(&mut c, &model, &format!("g={g} at the end"));
    }
}

#[test]
fn a_front_tombstone_shadows_a_key_only_the_back_holds() {
    for g in [2usize, 3, 4, 8] {
        let at = |what: &str| format!("g={g}: {what}");
        let mut c: Cola = GCola::new(PlainMem::new(), g, 0.1);
        let mut model = BTreeMap::new();
        // 2g keys: the 2g-th spills the front into the back, and no level
        // holds an item.
        for k in 0..2 * g as u64 {
            c.insert(k, k);
            model.insert(k, k);
        }
        assert_eq!(c.head_shape(), (0, 2 * g), "{}", at("the spill"));
        assert_eq!(c.stats().merges, 0);
        // Only the back holds key 3: its tombstone stays in the front.
        c.delete(3);
        model.remove(&3);
        c.check_invariants();
        assert_eq!(
            c.head_shape(),
            (1, 2 * g),
            "{}",
            at("the tombstone is kept")
        );
        assert_eq!(c.physical_len(), 2 * g + 1);
        agrees(&mut c, &model, &[2, 3, 4], (0, u64::MAX), &at("shadowed"));
        round_trip(&mut c, &model, &at("shadowed"));
        // A delete of a key nothing holds is dropped at once.
        c.delete(1000);
        assert_eq!(c.head_shape(), (1, 2 * g), "{}", at("a spent tombstone"));
        // The next spill meets the tombstone and the item: with no level
        // beneath, both go.
        let dropped = c.stats().cells_dropped;
        for k in 100..100 + 2 * g as u64 - 1 {
            c.insert(k, k);
            model.insert(k, k);
        }
        c.check_invariants();
        assert_eq!(c.head_shape(), (0, 4 * g - 2), "{}", at("the second spill"));
        assert_eq!(
            c.stats().cells_dropped,
            dropped + 2,
            "{}",
            at("both dropped")
        );
        assert_eq!(c.physical_len(), model.len());
        agrees(
            &mut c,
            &model,
            &[3, 100],
            (0, u64::MAX),
            &at("after the spill"),
        );
        round_trip(&mut c, &model, &at("after the spill"));
    }
}

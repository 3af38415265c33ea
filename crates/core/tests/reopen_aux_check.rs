//! Regression: the reopen path must validate the cascade accelerators it
//! rebuilds, the same way for every COLA. `from_parts` hands every
//! occupied run to one shared reopen: the persisted fence pair is held
//! against the run's first and last stored cell, the run's aux is
//! rebuilt from the committed cells and `LevelAux::check` runs on it — so
//! a store whose cells were corrupted between commit and reopen, or
//! metadata that describes another store, surfaces as a typed
//! `MetaError` naming what disagreed, never as a silently wrong search
//! window.
//!
//! The g-COLA's reopen validates one thing more. Its carry keeps a
//! level's stored lookahead cells instead of sampling the level above
//! again, so a corrupt one would be woven into every later rewrite of
//! its level; `GCola::from_parts` checks each against the midpoint
//! sample of the level above during the same scans.

mod common;

use common::Shared;
use cosbt_core::{Cell, Dictionary, GCola, Persist};
use cosbt_dam::{Mem, PlainMem};

struct Case {
    name: &'static str,
    new: fn(Shared) -> GCola<Shared>,
}

const CASES: [Case; 3] = [
    Case {
        name: "basic COLA",
        new: GCola::basic,
    },
    Case {
        name: "4-COLA",
        new: |m| GCola::new(m, 4, 0.1),
    },
    Case {
        name: "deamortized COLA",
        new: GCola::deamortized,
    },
];

const N: u64 = 1000;

/// A quiesced store of `N` distinct keys and its metadata.
fn sealed(case: &Case) -> (Shared, Vec<u8>) {
    let store = Shared::default();
    let mut cola = (case.new)(store.clone());
    for i in 0..N {
        cola.insert(i * 3 + 1, i);
    }
    let meta = cola.save_meta();
    (store, meta)
}

/// The run the metadata's last fence pair describes — the last occupied
/// array of the top level, which nothing but never-written slots follows
/// in the store — as `(base, len)`. The fence section ends the payload:
/// its last sixteen bytes are that run's first and last key.
fn last_run(store: &Shared, meta: &[u8]) -> (usize, usize) {
    let key = |at: usize| u64::from_le_bytes(meta[at..at + 8].try_into().unwrap());
    let (first, last) = (key(meta.len() - 16), key(meta.len() - 8));
    let end = (0..store.len())
        .rposition(|i| store.get(i).key == last)
        .expect("the last fence key is stored");
    let base = (0..end)
        .rposition(|i| store.get(i).key == first)
        .expect("the first fence key is stored");
    let sorted = (base..end).all(|i| store.get(i).key < store.get(i + 1).key);
    assert!(sorted && end - base >= 32, "located a run of distinct keys");
    (base, end + 1 - base)
}

#[test]
fn reopen_accepts_intact_cells() {
    for case in &CASES {
        let (store, meta) = sealed(case);
        let mut reopened = GCola::from_parts(store, &meta)
            .unwrap_or_else(|e| panic!("{}: intact store must reopen: {e}", case.name));
        reopened.check_invariants();
        for i in 0..N {
            assert_eq!(reopened.get(i * 3 + 1), Some(i), "{}: hit", case.name);
            assert_eq!(reopened.get(i * 3), None, "{}: miss", case.name);
        }
    }
}

#[test]
fn reopen_rejects_corrupted_sample_cells() {
    for case in &CASES {
        let (mut store, meta) = sealed(case);
        // Swap two interior ghost-sampled cells of the run (stride 8 ⇒
        // in-run offsets 8 and 24 are both sample points). The run's
        // first and last cells — its fence keys — are untouched, so the
        // persisted-fence cross-check cannot catch this; only the rebuilt
        // aux's own `check` (sorted ghost samples) can.
        let (base, _) = last_run(&store, &meta);
        let (a, b) = (store.get(base + 8), store.get(base + 24));
        store.set(base + 8, b);
        store.set(base + 24, a);
        let err = GCola::from_parts(store, &meta)
            .err()
            .unwrap_or_else(|| panic!("{}: corrupt samples must be rejected", case.name));
        let msg = err.to_string();
        assert!(
            msg.contains("cascade state"),
            "{}: error should name the cascade validation, got: {msg}",
            case.name
        );
    }
}

#[test]
fn reopen_rejects_a_flipped_fence_key() {
    for case in &CASES {
        let (store, mut meta) = sealed(case);
        // One bit of the last run's persisted last key: the metadata now
        // describes a store these cells are not.
        let at = meta.len() - 8;
        meta[at] ^= 1;
        let err = GCola::from_parts(store, &meta)
            .err()
            .unwrap_or_else(|| panic!("{}: a flipped fence key must be rejected", case.name));
        let msg = err.to_string();
        assert!(
            msg.contains("fence keys"),
            "{}: error should name the fence cross-check, got: {msg}",
            case.name
        );
    }
}

/// A 4-COLA of 3,000 scattered keys: items in the top level (6) and
/// lookahead cells in every level below it that has room for any.
fn linked_gcola() -> (PlainMem<Cell>, Vec<u8>) {
    let mut cola = GCola::new(PlainMem::new(), 4, 0.1);
    for i in 0..3000u64 {
        cola.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 8, i);
    }
    cola.check_invariants();
    let meta = cola.save_meta();
    (cola.mem().clone(), meta)
}

#[test]
fn gcola_reopen_rejects_corrupted_lookahead_cells() {
    let (mem, meta) = linked_gcola();
    GCola::from_parts(mem.clone(), &meta)
        .expect("intact store reopens")
        .check_invariants();

    // The last lookahead cell stored with a greater real cell after it:
    // the top level has never held one, so it is in the level below it —
    // a live cell, with the rest of that level's sample to its left and
    // an item after it, so not a fence key.
    let at = (1..mem.len() - 1)
        .rev()
        .find(|&i| {
            let (cell, after) = (mem.get(i), mem.get(i + 1));
            cell.is_redundant() && after.is_real() && cell.key < after.key
        })
        .expect("the store holds an interior lookahead cell");
    let (before, cell, after) = (mem.get(at - 1), mem.get(at), mem.get(at + 1));
    assert!(before.key < cell.key && cell.key < after.key && after.is_real());

    // Each corruption keeps the level sorted and its fence keys and
    // ghost samples plausible; only the lookahead check can see it.
    type Corrupt = fn(&mut Cell, &Cell);
    let corruptions: [(&str, Corrupt); 3] = [
        ("ptr", |c, _| c.ptr ^= 1),
        ("key", |c, before| c.key = before.key),
        ("flag", |c, _| *c = Cell::item(c.key, 0)),
    ];
    for (what, corrupt) in corruptions {
        let mut bad = mem.clone();
        let mut c = cell;
        corrupt(&mut c, &before);
        bad.set(at, c);
        let err = GCola::from_parts(bad, &meta).expect_err(what);
        let msg = err.to_string();
        assert!(
            msg.contains("lookahead"),
            "a corrupt {what} should fail the lookahead validation, got: {msg}"
        );
    }
}

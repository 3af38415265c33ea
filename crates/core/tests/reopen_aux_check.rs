//! Regression: the reopen path must validate the cascade accelerators it
//! rebuilds. `from_parts` rebuilds each sealed level's [`LevelAux`] from
//! the committed cells and runs `LevelAux::check` on it — so a store
//! whose cells were corrupted between commit and reopen surfaces as a
//! typed `MetaError`, never as a silently wrong search window.
//!
//! The g-COLA's reopen validates one thing more. Its carry keeps a
//! level's stored lookahead cells instead of sampling the level above
//! again, so a corrupt one would be woven into every later rewrite of
//! its level; `GCola::from_parts` checks each against the midpoint
//! sample of the level above during the same scans.

use cosbt_core::{BasicCola, Cell, Dictionary, GCola, Persist};
use cosbt_dam::{Mem, PlainMem};

/// A 128-insert basic COLA: level 7 is full, so the tail 128 cells of
/// the store are one sorted sealed array with ghost samples every 8.
fn sealed_cola() -> (PlainMem<Cell>, Vec<u8>) {
    let mut cola = BasicCola::new(PlainMem::new());
    for i in 0..128u64 {
        cola.insert(i * 3 + 1, i);
    }
    let meta = cola.save_meta();
    (cola.mem().clone(), meta)
}

#[test]
fn reopen_accepts_intact_cells() {
    let (mem, meta) = sealed_cola();
    let mut reopened = BasicCola::from_parts(mem, &meta).expect("intact store reopens");
    reopened.check_invariants();
    assert_eq!(reopened.get(1), Some(0));
    assert_eq!(reopened.get(3 * 127 + 1), Some(127));
}

#[test]
fn reopen_rejects_corrupted_sample_cells() {
    let (mem, meta) = sealed_cola();
    // Swap two interior ghost-sampled cells of the sealed level (stride
    // 8 ⇒ in-level offsets 8 and 80 are both sample points). The level's
    // first and last cells — its fence keys — are untouched, so the
    // persisted-fence cross-check cannot catch this; only the rebuilt
    // aux's own `check` (sorted ghost samples) can.
    let base = mem.len() - 128;
    let mut bad = mem;
    let (a, b) = (bad.get(base + 8), bad.get(base + 80));
    bad.set(base + 8, b);
    bad.set(base + 80, a);
    let err = BasicCola::from_parts(bad, &meta).expect_err("corrupt samples must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("cascade state"),
        "error should name the cascade validation, got: {msg}"
    );
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

    // The last lookahead cell stored: the top level has never held one,
    // so it is the last of the level below it, whose run is
    // right-justified — a live cell, with the rest of that level's
    // sample to its left and items after it, so not a fence key.
    let at = (0..mem.len())
        .rev()
        .find(|&i| mem.get(i).is_redundant())
        .expect("the store holds lookahead cells");
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

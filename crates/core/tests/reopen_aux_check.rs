//! Regression: the reopen path must validate the cascade accelerators it
//! rebuilds. `from_parts` rebuilds each sealed level's [`LevelAux`] from
//! the committed cells and runs `LevelAux::check` on it — so a store
//! whose cells were corrupted between commit and reopen surfaces as a
//! typed `MetaError`, never as a silently wrong search window.

use cosbt_core::{BasicCola, Cell, Dictionary, Persist};
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

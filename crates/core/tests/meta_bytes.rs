//! The stored control-state format of every COLA, pinned byte for byte:
//! one fixed seeded stream (inserts, overwrites, deletes) into each
//! structure, then the length and an FNV-1a hash of `save_meta()` against
//! literals, and `from_parts` on those very bytes answering like the
//! structure that wrote them. A change that moves the fence encoding — or
//! any other field — without meaning to change the format fails here; one
//! that means to bumps `META_VERSION` and records new literals.
//!
//! The retired formats are pinned by the stores their engines left
//! (`fixtures/legacy.rs`): each opens through `cosbt_core::legacy` and
//! answers as it did, the g-COLA's v2 and v3 and the two-array engine's
//! v2 included. No truncation or flipped bit of any meta here panics an
//! open.

mod common;
#[path = "fixtures/legacy.rs"]
mod legacy_fixtures;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use common::Shared;
use cosbt_core::persist::{TAG_DEAMORT_BASIC, TAG_GCOLA};
use cosbt_core::{legacy, Cell, Dictionary, GCola, MetaError, Persist};
use cosbt_dam::Mem;
use cosbt_testkit::Rng;
use legacy_fixtures::{fnv1a, Fixture};

const OPS: usize = 6000;
const KEYS: u64 = 1500;

/// 6,000 operations over 1,500 keys: every key is overwritten about
/// three times and one operation in five is a delete.
fn stream(d: &mut dyn Dictionary) -> BTreeMap<u64, u64> {
    let mut rng = Rng::new(0x3E7A_B17E);
    let mut model = BTreeMap::new();
    for i in 0..OPS as u64 {
        let k = rng.below(KEYS).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 4;
        if rng.chance(1, 5) {
            d.delete(k);
            model.remove(&k);
        } else {
            d.insert(k, i);
            model.insert(k, i);
        }
    }
    model
}

fn pinned(name: &str, new: impl Fn(Shared) -> GCola<Shared>, want: (usize, u64)) {
    let store = Shared::default();
    let mut d = new(store.clone());
    let model = stream(&mut d);
    let meta = d.save_meta();
    assert_eq!(
        (meta.len(), fnv1a(&meta)),
        want,
        "{name}: stored control state moved (got length {}, FNV-1a {:#018x})",
        meta.len(),
        fnv1a(&meta)
    );
    let reopened = GCola::from_parts(store.clone(), &meta);
    let mut reopened = reopened.unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(reopened.save_meta(), meta, "{name}: reopened meta");
    let mut rng = Rng::new(7);
    for _ in 0..2000 {
        let k = rng.below(KEYS + 200).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 4;
        assert_eq!(reopened.get(k), model.get(&k).copied(), "{name}: get {k}");
        assert_eq!(d.get(k), model.get(&k).copied(), "{name}: original get {k}");
    }
    let live: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(reopened.range(0, u64::MAX), live, "{name}: scan");
    never_panics(name, &meta, |bad| {
        GCola::from_parts(store.clone(), bad).map(drop)
    });
}

/// Opens `meta` cut to every shorter length, and with one bit flipped in
/// each byte (bit `i % 8` of byte `i`): `open` must answer, `Ok` or a
/// typed `MetaError`, and never panic.
fn never_panics(name: &str, meta: &[u8], open: impl Fn(&[u8]) -> Result<(), MetaError>) {
    let answers = |bad: &[u8], what: std::fmt::Arguments<'_>| {
        let opened = catch_unwind(AssertUnwindSafe(|| open(bad)));
        assert!(opened.is_ok(), "{name}: the meta {what} panicked an open");
    };
    for len in 0..meta.len() {
        answers(&meta[..len], format_args!("cut to {len} bytes"));
    }
    for i in 0..meta.len() {
        let mut bad = meta.to_vec();
        bad[i] ^= 1 << (i % 8);
        answers(&bad, format_args!("with bit {} of byte {i} flipped", i % 8));
    }
}

#[test]
fn stored_control_state_is_byte_identical() {
    pinned("basic COLA", GCola::basic, BASIC);
    pinned("4-COLA", |m| GCola::new(m, 4, 0.1), GCOLA);
    pinned("deamortized COLA", GCola::deamortized, DEAMORT_BASIC);
}

// (length, FNV-1a) of `save_meta()` after `stream`, recorded at ff2d039.
// `BASIC` was re-recorded when the basic COLA became the g-COLA at g = 2,
// p = 0: it pins the g-COLA format that `GCola::basic` writes. The basic
// COLA's own format is pinned by `legacy_fixtures::basic`. Both g-COLA
// rows were re-recorded for format v3, which adds a lead per level (8
// bytes each: 818 → 922 and 482 → 538 bytes) and whose levels sample the
// level above at a fixed stride; v2 is pinned by `legacy_fixtures::gcola_v2`.
// Both were re-recorded again for format v4, which writes the head (8
// bytes of count, 17 a cell) between the level directory and the fences,
// and whose levels 0 and 1 hold no item, so persist no fence pair: 922 →
// 898 bytes (the basic COLA's head ends the stream empty) and 538 → 599
// (the 4-COLA's holds cells); v3 is pinned by `legacy_fixtures::gcola_v3`.
// Both were re-recorded, in the same v4 format, when the head came to
// hold every level whose capacities sum to at most 127 cells (levels 0–6
// of the basic COLA, 0–3 of the 4-COLA), written as one list, front over
// back: 898 → 1,310 bytes (the basic COLA's head ends the stream with
// 28 cells, and four fewer levels hold items to persist fences for) and
// 599 → 719 (the 4-COLA's with 13); a v4 store a smaller head wrote, with
// items in those levels, is pinned by `legacy_fixtures::gcola_v4`.
// `DEAMORT_BASIC` is what `GCola::deamortized` writes under
// `TAG_DEAMORT_BASIC`, format v3: the g-COLA body with a state byte per
// extent. It was (220, 0x4adf_6ccb_8c62_f504) while the two-array engine
// wrote its own v2, now pinned by `legacy_fixtures::two_array`; the
// retired three-array format is pinned by `legacy_fixtures::three_array`.
const BASIC: (usize, u64) = (1310, 0xf7b2_16a6_813e_de29);
const GCOLA: (usize, u64) = (719, 0x5495_d5ba_9d7a_123d);
const DEAMORT_BASIC: (usize, u64) = (1652, 0x4d7f_f664_7d11_7776);

/// The fixture's cells in a store of their own.
fn store(fx: &Fixture) -> Shared {
    let mut mem = Shared::default();
    mem.resize(fx.cells.len(), Cell::default());
    mem.write_run(0, &fx.cells);
    mem
}

/// The live entries `legacy` reads off the fixture's store.
fn live_entries(fx: &Fixture, mem: &Shared) -> Vec<Cell> {
    let live = legacy::live_entries(mem, &fx.meta).expect("a retired store opens");
    live.expect("a retired format")
}

/// `d`, rebuilt from a retired store in `mem`, holds one version per key
/// and answers as the store did; after writes it answers as the model
/// does, commits in the current `format` (tag and version), and reopens
/// from that.
fn converges(mut d: GCola<Shared>, mut model: BTreeMap<u64, u64>, mem: &Shared, format: [u8; 2]) {
    let live =
        |m: &BTreeMap<u64, u64>| -> Vec<(u64, u64)> { m.iter().map(|(&k, &v)| (k, v)).collect() };
    d.check_invariants();
    assert_eq!(d.physical_len(), model.len(), "one version per key");
    for key in 0..50 {
        assert_eq!(d.get(key), model.get(&key).copied(), "key {key}");
    }
    assert_eq!(d.range(0, u64::MAX), live(&model), "rebuilt");
    for i in 100..200u64 {
        let key = i * 7 % 40;
        d.insert(key, i);
        model.insert(key, i);
    }
    d.check_invariants();
    assert_eq!(d.range(0, u64::MAX), live(&model), "after writes");
    let meta = d.save_meta();
    assert_eq!(meta[..2], format, "written in the current format");
    let mut re = GCola::from_parts(mem.clone(), &meta).expect("the rewritten store reopens");
    re.check_invariants();
    assert_eq!(re.range(0, u64::MAX), live(&model), "reopened");
}

/// A store the basic COLA's own engine wrote opens through the rebuild
/// into the g-COLA at g = 2, p = 0, answers as it did, takes writes and
/// is written back in the g-COLA format. A full bit that disagrees with
/// N is a typed error.
#[test]
fn basic_format_stores_open_and_converge() {
    let fx = legacy_fixtures::basic();
    let mem = store(&fx);
    let c = GCola::bulk_load(mem.clone(), 2, 0.0, &live_entries(&fx, &mem));
    let n = fx.model.len() as u64;
    assert_eq!(
        (c.growth(), c.pointer_density(), c.insertions()),
        (2, 0.0, n)
    );
    converges(c, fx.model.clone(), &mem, [TAG_GCOLA, 4]);

    let mut bad = fx.meta.clone();
    bad[18 + 2] = 0; // level 2's full bit
    match legacy::live_entries(&store(&fx), &bad) {
        Err(MetaError::Invalid(why)) => assert!(why.contains("level 2 occupancy"), "{why}"),
        other => panic!("a flipped full bit opened: {:?}", other.map(|_| ())),
    }
}

/// A store the three-array engine wrote opens through the rebuild into
/// the deamortized COLA, answers as it did, takes writes and is written
/// back in the current format. A flipped fence byte is a typed error.
#[test]
fn three_array_stores_open_and_converge() {
    let fx = legacy_fixtures::three_array();
    let mem = store(&fx);
    let c = GCola::deamortized_bulk_load(mem.clone(), &live_entries(&fx, &mem));
    // Nine live entries: one extent of level 4.
    assert_eq!((c.insertions(), c.num_levels()), (9, 5));
    converges(c, fx.model.clone(), &mem, [TAG_DEAMORT_BASIC, 3]);

    let mut bad = fx.meta.clone();
    let at = bad.len() - 1;
    bad[at] ^= 1; // the last occupied array's last fence key
    match legacy::live_entries(&store(&fx), &bad) {
        Err(MetaError::Invalid(why)) => assert!(why.contains("fence keys"), "{why}"),
        other => panic!("a flipped fence byte opened: {:?}", other.map(|_| ())),
    }
}

/// A store the two-array engine left — a key's versions side by side in
/// its arrays — is a typed `BadVersion` to `from_parts`, opens through
/// the rebuild into the deamortized COLA, answers as it did, takes
/// writes, and is written back and reopened as v3. An array state byte
/// past "full" is a typed error.
#[test]
fn deamort_v2_stores_open_and_converge() {
    let fx = legacy_fixtures::two_array();
    let mem = store(&fx);
    match GCola::from_parts(mem.clone(), &fx.meta) {
        Err(MetaError::BadVersion(2)) => {}
        other => panic!("a v2 meta reopened in place: {:?}", other.map(|_| ())),
    }
    let c = GCola::deamortized_bulk_load(mem.clone(), &live_entries(&fx, &mem));
    assert_eq!(c.insertions(), fx.model.len() as u64);
    converges(c, fx.model.clone(), &mem, [TAG_DEAMORT_BASIC, 3]);

    let mut bad = fx.meta.clone();
    bad[2 + 3 * 8 + 9 + 1] = 2; // level 1 side 0's state byte
    match legacy::live_entries(&store(&fx), &bad) {
        Err(MetaError::Invalid(why)) => assert!(why.contains("level 1 side 0"), "{why}"),
        other => panic!("a filling array opened: {:?}", other.map(|_| ())),
    }
}

/// A store the g-COLA's v2 format left — right-justified runs, midpoint
/// lookahead samples — is a typed `BadVersion` to `from_parts`, opens
/// through the rebuild into a 4-COLA of the current format, answers as it
/// did, takes writes, and is written back and reopened as v4. A level
/// whose items outgrow its capacity is a typed error.
#[test]
fn gcola_v2_stores_open_and_converge() {
    let fx = legacy_fixtures::gcola_v2();
    let mem = store(&fx);
    match GCola::from_parts(mem.clone(), &fx.meta) {
        Err(MetaError::BadVersion(2)) => {}
        other => panic!("a v2 meta reopened in place: {:?}", other.map(|_| ())),
    }
    let c = GCola::bulk_load(mem.clone(), 4, 0.1, &live_entries(&fx, &mem));
    assert_eq!(c.insertions(), fx.model.len() as u64);
    converges(c, fx.model.clone(), &mem, [TAG_GCOLA, 4]);

    let mut bad = fx.meta.clone();
    bad[2 + 3 * 8 + 8 + 2 * 48 + 4 * 8] = 25; // level 2's items, past its 24
    match legacy::live_entries(&store(&fx), &bad) {
        Err(MetaError::Invalid(why)) => assert!(why.contains("level 2 geometry"), "{why}"),
        other => panic!("an overfull level opened: {:?}", other.map(|_| ())),
    }
}

/// A store the g-COLA's v3 format left — items in levels 0 and 1, each
/// run after its level's lead — is a typed `BadVersion` to `from_parts`,
/// opens through the rebuild into a v4 4-COLA, answers as it did, takes
/// writes, and is written back and reopened as v4. A lead that puts a
/// run past its level is a typed error.
#[test]
fn gcola_v3_stores_open_and_converge() {
    let fx = legacy_fixtures::gcola_v3();
    let mem = store(&fx);
    match GCola::from_parts(mem.clone(), &fx.meta) {
        Err(MetaError::BadVersion(3)) => {}
        other => panic!("a v3 meta reopened in place: {:?}", other.map(|_| ())),
    }
    let c = GCola::bulk_load(mem.clone(), 4, 0.1, &live_entries(&fx, &mem));
    assert_eq!(c.insertions(), fx.model.len() as u64);
    converges(c, fx.model.clone(), &mem, [TAG_GCOLA, 4]);

    let mut bad = fx.meta.clone();
    bad[2 + 3 * 8 + 8 + 56 + 6 * 8] = 5; // level 1's lead: 5 + 2 cells > 6 slots
    match legacy::live_entries(&store(&fx), &bad) {
        Err(MetaError::Invalid(why)) => assert!(why.contains("level 1 geometry"), "{why}"),
        other => panic!("a run past its level opened: {:?}", other.map(|_| ())),
    }
}

/// A store the g-COLA's v4 format left while its head held levels 0 and
/// 1 only — items in levels 2 and 3, which the head holds since — opens
/// in place through `from_parts`, answers as it did, writes back the meta
/// it opened, and carries those levels out at its next carry: after it
/// levels 0 to 3 hold no item and the invariants hold, a delete of a key
/// level 3 held stays deleted, and the store reopens from its new meta. No truncation or flipped bit of that meta panics an open.
#[test]
fn gcola_v4_stores_with_items_in_levels_2_and_3_open_and_converge() {
    let fx = legacy_fixtures::gcola_v4();
    let mem = store(&fx);
    let live =
        |m: &BTreeMap<u64, u64>| -> Vec<(u64, u64)> { m.iter().map(|(&k, &v)| (k, v)).collect() };
    let mut d = GCola::from_parts(mem.clone(), &fx.meta).expect("a v4 store opens in place");
    let mut model = fx.model.clone();
    for key in 0..100 {
        assert_eq!(d.get(key), model.get(&key).copied(), "key {key}");
    }
    assert_eq!(d.range(0, u64::MAX), live(&model), "opened");
    assert_eq!(d.save_meta(), fx.meta, "the meta it opened");
    // A key level 3 holds: the tombstone must shadow it until the carry
    // drops both.
    let deleted = fx.cells[34 + 18].key;
    assert!(model.contains_key(&deleted));
    d.delete(deleted);
    model.remove(&deleted);
    let mut key = 1000;
    while d.num_levels() == GCOLA_V4_LEVELS {
        d.insert(key, key);
        model.insert(key, key);
        key += 1;
        assert_eq!(d.get(deleted), None, "after insert {key}");
    }
    d.check_invariants();
    assert_eq!(d.range(0, u64::MAX), live(&model), "after the carry");
    let meta = d.save_meta();
    let mut re = GCola::from_parts(mem.clone(), &meta).expect("the rewritten store reopens");
    re.check_invariants();
    assert_eq!(re.range(0, u64::MAX), live(&model), "reopened");
    never_panics("g-COLA v4 format", &fx.meta, |bad| {
        GCola::from_parts(mem.clone(), bad).map(drop)
    });
}

/// Levels of `legacy_fixtures::gcola_v4`'s store.
const GCOLA_V4_LEVELS: usize = 4;

/// No truncation or flipped bit of a retired store's meta panics its
/// open; `pinned` sweeps the metas of the formats written today.
#[test]
fn corrupt_legacy_meta_never_panics() {
    let fixtures = [
        ("basic format", legacy_fixtures::basic()),
        ("three-array format", legacy_fixtures::three_array()),
        ("two-array format", legacy_fixtures::two_array()),
        ("g-COLA v2 format", legacy_fixtures::gcola_v2()),
        ("g-COLA v3 format", legacy_fixtures::gcola_v3()),
    ];
    for (name, fx) in fixtures {
        let mem = store(&fx);
        never_panics(name, &fx.meta, |bad| {
            legacy::live_entries(&mem, bad).map(drop)
        });
    }
}

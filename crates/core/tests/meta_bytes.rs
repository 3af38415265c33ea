//! The stored control-state format of every COLA, pinned byte for byte:
//! one fixed seeded stream (inserts, overwrites, deletes) into each
//! structure, then the length and an FNV-1a hash of `save_meta()` against
//! literals, and `from_parts` on those very bytes answering like the
//! structure that wrote them. A change that moves the fence encoding — or
//! any other field — without meaning to change the format fails here; one
//! that means to bumps `META_VERSION` and records new literals.

mod common;

use std::collections::BTreeMap;

use common::Shared;
use cosbt_core::{DeamortCola, Dictionary, GCola, MetaError, Persist};
use cosbt_testkit::Rng;

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

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pinned<D: Dictionary + Persist>(
    name: &str,
    new: impl Fn(Shared) -> D,
    from_parts: impl Fn(Shared, &[u8]) -> Result<D, MetaError>,
    want: (usize, u64),
) {
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
    let mut reopened = from_parts(store, &meta).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(reopened.save_meta(), meta, "{name}: reopened meta");
    let mut rng = Rng::new(7);
    for _ in 0..2000 {
        let k = rng.below(KEYS + 200).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 4;
        assert_eq!(reopened.get(k), model.get(&k).copied(), "{name}: get {k}");
        assert_eq!(d.get(k), model.get(&k).copied(), "{name}: original get {k}");
    }
    let live: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(reopened.range(0, u64::MAX), live, "{name}: scan");
}

#[test]
fn stored_control_state_is_byte_identical() {
    pinned("basic COLA", GCola::basic, GCola::from_parts, BASIC);
    pinned(
        "4-COLA",
        |m| GCola::new(m, 4, 0.1),
        GCola::from_parts,
        GCOLA,
    );
    pinned(
        "deamortized COLA",
        DeamortCola::new,
        DeamortCola::from_parts,
        DEAMORT_BASIC,
    );
}

// (length, FNV-1a) of `save_meta()` after `stream`, recorded at ff2d039.
// `BASIC` was re-recorded when the basic COLA became the g-COLA at g = 2,
// p = 0: it pins the g-COLA format that `GCola::basic` writes, and the
// basic COLA's own format, still read, is pinned by a fixture in gcola.rs.
// `DEAMORT_BASIC` is the two-array format `DeamortCola` writes under
// `TAG_DEAMORT_BASIC`; the three-array format it still reads is pinned
// by a fixture in deamort.rs.
const BASIC: (usize, u64) = (818, 0x9ea3_64b1_94fe_5df2);
const GCOLA: (usize, u64) = (482, 0x629c_74d6_dade_48b9);
const DEAMORT_BASIC: (usize, u64) = (220, 0x4adf_6ccb_8c62_f504);

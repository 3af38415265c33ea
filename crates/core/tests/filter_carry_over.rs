//! A carry that can drop no key keeps its target level's filter: an
//! amortized carry into any level but the deepest occupied one drops only
//! shadowed versions, whose key the newer version keeps, so the target's
//! filter stays and only the keys the newer sources bring are inserted.
//! A carry into the deepest level drops tombstones, and with them keys,
//! so it builds its filter fresh, as a level's first fill and the
//! budgeted policy do. Either way the filter must be, bit for bit, what a
//! fresh build over the level's cells gives: `check_invariants` holds
//! every level's aux to exactly that.
//!
//! Each structure runs a seeded stream of fresh keys, overwrites and
//! deletes over a few thousand keys — enough for five or more levels, so
//! carries land both below the deepest occupied level and on it, where
//! tombstones meet nothing older and are dropped — checked after every
//! operation, then saved and reopened and checked again, and every key
//! is looked up against a model.

mod common;

use std::collections::BTreeMap;

use common::Shared;
use cosbt_core::{Dictionary, GCola, Persist};
use cosbt_testkit::Rng;

struct Case {
    name: &'static str,
    new: fn(Shared) -> GCola<Shared>,
}

const CASES: [Case; 4] = [
    Case {
        name: "basic COLA",
        new: GCola::basic,
    },
    Case {
        name: "4-COLA",
        new: |m| GCola::new(m, 4, 0.1),
    },
    Case {
        name: "8-COLA",
        new: |m| GCola::new(m, 8, 0.1),
    },
    Case {
        name: "deamortized COLA",
        new: GCola::deamortized,
    },
];

/// Operations per stream.
const OPS: u64 = 5_000;

/// Every key the model holds answers as the model says, and a key it
/// deleted answers `None`.
fn agrees(cola: &mut GCola<Shared>, model: &BTreeMap<u64, Option<u64>>, what: &str) {
    for (&key, &want) in model {
        assert_eq!(cola.get(key), want, "{what}: key {key}");
    }
}

#[test]
fn kept_and_fresh_filters_equal_a_fresh_build() {
    for case in &CASES {
        let store = Shared::default();
        let mut cola = (case.new)(store.clone());
        let mut rng = Rng::new(0xF117_E4C0);
        let mut model: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        let mut keys: Vec<u64> = Vec::new();
        for i in 0..OPS {
            // Fresh keys are half the stream, so the store keeps growing
            // and the deepest level keeps moving up.
            let op = rng.below(10);
            if op < 5 || keys.is_empty() {
                let key = rng.next_u64();
                keys.push(key);
                cola.insert(key, i);
                model.insert(key, Some(i));
            } else if op < 8 {
                let key = keys[rng.index(keys.len())];
                cola.insert(key, i);
                model.insert(key, Some(i));
            } else {
                let key = keys[rng.index(keys.len())];
                cola.delete(key);
                model.insert(key, None);
            }
            cola.check_invariants();
        }
        assert!(
            cola.num_levels() >= 5,
            "{}: {} levels",
            case.name,
            cola.num_levels()
        );
        assert!(
            cola.stats().cells_dropped > 0,
            "{}: nothing dropped",
            case.name
        );
        agrees(&mut cola, &model, case.name);

        let meta = cola.save_meta();
        cola.check_invariants();
        let mut reopened = GCola::from_parts(store, &meta)
            .unwrap_or_else(|e| panic!("{}: the store must reopen: {e}", case.name));
        reopened.check_invariants();
        agrees(&mut reopened, &model, case.name);
    }
}

//! Cross-crate integration: every dictionary in the workspace — the basic
//! COLA, three g-COLAs, the deamortized COLA, B-tree, BRT, shuttle tree —
//! replays the same operation stream and must agree with a `BTreeMap`
//! reference model at every checkpoint, for point lookups and range
//! queries alike.

use std::collections::BTreeMap;

use cosbt::brt::Brt;
use cosbt::btree::BTree;
use cosbt::cola::{Dictionary, GCola};
use cosbt::dam::PlainMem;
use cosbt::shuttle::ShuttleTree;

fn dicts() -> Vec<Box<dyn Dictionary>> {
    vec![
        Box::new(GCola::basic(PlainMem::new())),
        Box::new(GCola::new_plain(2)),
        Box::new(GCola::new_plain(4)),
        Box::new(GCola::new_plain(8)),
        Box::new(GCola::deamortized(PlainMem::new())),
        Box::new(BTree::new_plain()),
        Box::new(Brt::new_plain()),
        Box::new(ShuttleTree::new(4)),
    ]
}

/// Deterministic op stream: ~70% inserts, 20% deletes, keys in a bounded
/// space to force upserts and tombstone traffic.
fn op_stream(len: u64, key_space: u64, seed: u64) -> Vec<(u8, u64)> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let op = (x % 10) as u8;
            let key = (x >> 8) % key_space;
            (op, key)
        })
        .collect()
}

#[test]
fn all_structures_agree_on_mixed_workload() {
    let ops = op_stream(30_000, 5_000, 0xABCD);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut ds = dicts();

    for (i, &(op, key)) in ops.iter().enumerate() {
        let val = i as u64;
        match op {
            0..=6 => {
                model.insert(key, val);
                for d in ds.iter_mut() {
                    d.insert(key, val);
                }
            }
            7..=8 => {
                model.remove(&key);
                for d in ds.iter_mut() {
                    d.delete(key);
                }
            }
            _ => {
                let want = model.get(&key).copied();
                for d in ds.iter_mut() {
                    assert_eq!(d.get(key), want, "{} at op {i} key {key}", d.name());
                }
            }
        }
        if i % 7_500 == 7_499 {
            let (lo, hi) = (key.saturating_sub(400), key + 400);
            let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            for d in ds.iter_mut() {
                assert_eq!(d.range(lo, hi), want, "{} range at op {i}", d.name());
            }
        }
    }

    // Full-content comparison at the end.
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    for d in ds.iter_mut() {
        assert_eq!(d.range(0, u64::MAX), want, "{} final content", d.name());
    }
}

#[test]
fn all_structures_agree_on_adversarial_keys() {
    // Clustered keys with long equal-prefix runs, min/max boundaries, and
    // repeated hammering of one key.
    let mut ds = dicts();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let special = [0u64, 1, u64::MAX - 1, u64::MAX, 1 << 63, (1 << 63) - 1];
    let mut i = 0u64;
    for round in 0..200u64 {
        for &k in &special {
            model.insert(k, i);
            for d in ds.iter_mut() {
                d.insert(k, i);
            }
            i += 1;
        }
        if round % 3 == 0 {
            model.remove(&special[(round % 6) as usize]);
            for d in ds.iter_mut() {
                d.delete(special[(round % 6) as usize]);
            }
        }
    }
    for &k in &special {
        let want = model.get(&k).copied();
        for d in ds.iter_mut() {
            assert_eq!(d.get(k), want, "{} special key {k}", d.name());
        }
    }
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    for d in ds.iter_mut() {
        assert_eq!(d.range(0, u64::MAX), want, "{}", d.name());
    }
}

#[test]
fn sorted_workloads_agree() {
    for desc in [false, true] {
        let n = 20_000u64;
        let mut ds = dicts();
        for i in 0..n {
            let k = if desc { n - 1 - i } else { i };
            for d in ds.iter_mut() {
                d.insert(k, k * 2);
            }
        }
        for d in ds.iter_mut() {
            assert_eq!(d.get(0), Some(0), "{} desc={desc}", d.name());
            assert_eq!(d.get(n - 1), Some((n - 1) * 2));
            assert_eq!(d.get(n), None);
            assert_eq!(
                d.range(100, 110),
                (100..=110).map(|k| (k, k * 2)).collect::<Vec<_>>(),
                "{} desc={desc}",
                d.name()
            );
        }
    }
}

//! Differential battery for the fractional-cascading read path: every
//! COLA cell of the `DbBuilder` matrix (amortized and deamortized, all
//! growth factors, mem and file backends, unsharded and sharded) replays
//! a seeded workload three ways — cascaded (default), with cascading
//! disabled via the builder toggle, and against a `BTreeMap` model — and
//! all three must agree on every point lookup (hits *and* misses), every
//! range query, and on keys that were deleted and later reinserted.
//! Fence keys, Bloom-style filters, and ghost-pointer windows are pure
//! accelerators; any observable divergence is a bug.

use std::collections::BTreeMap;
use std::path::PathBuf;

use cosbt::testkit::{Rng, TempPath};
use cosbt::{Backend, Db, DbBuilder, Structure};

/// The COLA cells of the matrix — the structures whose read path the
/// cascade machinery accelerates. Tree structures ignore the toggle.
fn cola_cells() -> Vec<(Structure, bool)> {
    vec![
        (Structure::BasicCola, false),
        (Structure::BasicCola, true),
        (Structure::GCola { g: 2 }, false),
        (Structure::GCola { g: 2 }, true),
        (Structure::GCola { g: 4 }, false),
        (Structure::GCola { g: 8 }, false),
    ]
}

fn builder(
    s: Structure,
    deamortized: bool,
    shards: usize,
    cascade: bool,
    file: Option<PathBuf>,
) -> DbBuilder {
    let mut b = DbBuilder::new()
        .structure(s)
        .shards(shards)
        .cascade(cascade);
    if deamortized {
        b = b.deamortized();
    }
    if let Some(p) = file {
        b = b.backend(Backend::file(p)).cache_bytes(256 * 1024);
    }
    b
}

fn tmp(name: &str) -> TempPath {
    TempPath::new(&format!("cascade-{name}.db"))
}

/// Keys sit on even positions of a bounded space so the odd positions
/// are guaranteed misses that land *inside* every level's fence span —
/// they exercise the filter, not just the fence short-circuit.
const KEY_SPACE: u64 = 4_000;

fn key_at(slot: u64) -> u64 {
    slot % KEY_SPACE * 2
}

/// Drives the cascaded db, the cascade-off twin, and the model with one
/// seeded op stream, checking agreement as it goes.
fn drive(with: &mut Db, without: &mut Db, seed: u64, ops: usize, label: &str) {
    let mut rng = Rng::new(seed);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..ops {
        match rng.below(10) {
            0..=5 => {
                let (k, v) = (key_at(rng.next_u64()), rng.next_u64());
                with.insert(k, v);
                without.insert(k, v);
                model.insert(k, v);
            }
            6..=7 => {
                let k = key_at(rng.next_u64());
                with.delete(k);
                without.delete(k);
                model.remove(&k);
            }
            _ => {
                // A present-or-absent even key, plus a guaranteed-miss
                // odd key and a beyond-the-fences miss.
                let k = key_at(rng.next_u64());
                let want = model.get(&k).copied();
                assert_eq!(with.get(k), want, "{label} cascaded get({k}) at op {i}");
                assert_eq!(without.get(k), want, "{label} plain get({k}) at op {i}");
                assert_eq!(with.get(k + 1), None, "{label} cascaded miss({})", k + 1);
                assert_eq!(without.get(k + 1), None, "{label} plain miss({})", k + 1);
                let far = u64::MAX - rng.below(1 << 20);
                assert_eq!(with.get(far), None, "{label} cascaded far miss");
                assert_eq!(without.get(far), None, "{label} plain far miss");
            }
        }
        if i % 1_000 == 999 {
            let lo = key_at(rng.next_u64());
            let hi = lo + rng.below(1_200);
            let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(with.range(lo, hi), want, "{label} cascaded range at op {i}");
            assert_eq!(without.range(lo, hi), want, "{label} plain range at op {i}");
        }
    }

    // Deleted-then-reinserted keys: tombstone a slice of live keys, check
    // both paths observe the deletion, resurrect with new values, check
    // both paths observe the reinsertion (not the stale pre-delete value).
    let victims: Vec<u64> = model.keys().copied().step_by(7).take(64).collect();
    for &k in &victims {
        with.delete(k);
        without.delete(k);
        model.remove(&k);
    }
    for &k in &victims {
        assert_eq!(with.get(k), None, "{label} cascaded sees delete({k})");
        assert_eq!(without.get(k), None, "{label} plain sees delete({k})");
    }
    for (i, &k) in victims.iter().enumerate() {
        let v = u64::MAX - i as u64;
        with.insert(k, v);
        without.insert(k, v);
        model.insert(k, v);
    }
    for (i, &k) in victims.iter().enumerate() {
        let want = Some(u64::MAX - i as u64);
        assert_eq!(with.get(k), want, "{label} cascaded reinsert({k})");
        assert_eq!(without.get(k), want, "{label} plain reinsert({k})");
    }

    // Full-content sweep at the end.
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(
        with.range(0, u64::MAX),
        want,
        "{label} cascaded final content"
    );
    assert_eq!(
        without.range(0, u64::MAX),
        want,
        "{label} plain final content"
    );
}

#[test]
fn mem_matrix_cascade_agrees_with_model_and_plain_search() {
    for (s, deamortized) in cola_cells() {
        for shards in [1usize, 3] {
            let mut with = builder(s, deamortized, shards, true, None).build().unwrap();
            let mut without = builder(s, deamortized, shards, false, None)
                .build()
                .unwrap();
            let label = with.label().to_string();
            drive(
                &mut with,
                &mut without,
                0xCA5CADE ^ shards as u64,
                6_000,
                &format!("{label} (mem, {shards} shard(s))"),
            );
        }
    }
}

#[test]
fn file_matrix_cascade_agrees_with_model_and_plain_search() {
    for (i, (s, deamortized)) in cola_cells().into_iter().enumerate() {
        for shards in [1usize, 3] {
            let pw = tmp(&format!("with-{i}-{shards}"));
            let po = tmp(&format!("without-{i}-{shards}"));
            let bw = builder(s, deamortized, shards, true, Some(pw.to_path_buf()));
            let bo = builder(s, deamortized, shards, false, Some(po.to_path_buf()));
            let mut with = bw.build().unwrap();
            let mut without = bo.build().unwrap();
            with.discard_on_drop();
            without.discard_on_drop();
            let label = with.label().to_string();
            drive(
                &mut with,
                &mut without,
                0xF11E ^ (i as u64) << 4 ^ shards as u64,
                3_000,
                &format!("{label} (file, {shards} shard(s))"),
            );
        }
    }
}

/// Reopening a cascaded file-backed db rebuilds the accelerators from
/// persisted fences; reopening with the toggle off must serve identical
/// answers through the plain per-level binary search.
#[test]
fn reopen_preserves_equivalence_across_toggle() {
    for (i, (s, deamortized)) in cola_cells().into_iter().enumerate() {
        let path = tmp(&format!("reopen-{i}"));
        let mk = || builder(s, deamortized, 1, true, Some(path.to_path_buf()));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        {
            let mut db = mk().build().unwrap();
            let mut rng = Rng::new(0xD0E ^ i as u64);
            for _ in 0..4_000 {
                let (k, v) = (key_at(rng.next_u64()), rng.next_u64());
                if rng.chance(1, 6) {
                    db.delete(k);
                    model.remove(&k);
                } else {
                    db.insert(k, v);
                    model.insert(k, v);
                }
            }
            db.sync().unwrap();
        }
        for cascade in [true, false] {
            let mut db = builder(s, deamortized, 1, cascade, Some(path.to_path_buf()))
                .open()
                .unwrap();
            let mut rng = Rng::new(0xBEEF);
            for _ in 0..600 {
                let k = key_at(rng.next_u64());
                assert_eq!(
                    db.get(k),
                    model.get(&k).copied(),
                    "reopen cascade={cascade} get({k})"
                );
                assert_eq!(db.get(k + 1), None, "reopen cascade={cascade} miss");
            }
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(db.range(0, u64::MAX), want, "reopen cascade={cascade}");
        }
    }
}

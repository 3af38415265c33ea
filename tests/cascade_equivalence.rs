//! Model battery for the fractional-cascading read path: every COLA
//! cell of the `DbBuilder` matrix (amortized and deamortized, all growth
//! factors, mem and file backends, unsharded and sharded) replays a
//! seeded workload against a `BTreeMap` model and must agree with it on
//! every point lookup (hits *and* misses), every range query, and on
//! keys that were deleted and later reinserted. Fence keys, Bloom-style
//! filters, and ghost-pointer windows are pure accelerators; any
//! observable divergence is a bug. (The cascade against the paper's
//! plain search, `get_plain`, is a unit differential in `cosbt-core`.)

use std::collections::BTreeMap;
use std::path::PathBuf;

use cosbt::testkit::{Rng, TempPath};
use cosbt::{Backend, Db, DbBuilder, Structure};

/// The COLA cells of the matrix — the structures whose read path the
/// cascade machinery accelerates.
fn cola_cells() -> Vec<Structure> {
    vec![
        Structure::BasicCola,
        Structure::DeamortizedCola,
        Structure::GCola { g: 2 },
        Structure::GCola { g: 4 },
        Structure::GCola { g: 8 },
    ]
}

fn builder(s: Structure, shards: usize, file: Option<PathBuf>) -> DbBuilder {
    let mut b = DbBuilder::new().structure(s).shards(shards);
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

/// Drives the db and the model with one seeded op stream, checking
/// agreement as it goes.
fn drive(db: &mut Db, seed: u64, ops: usize, label: &str) {
    let mut rng = Rng::new(seed);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..ops {
        match rng.below(10) {
            0..=5 => {
                let (k, v) = (key_at(rng.next_u64()), rng.next_u64());
                db.insert(k, v);
                model.insert(k, v);
            }
            6..=7 => {
                let k = key_at(rng.next_u64());
                db.delete(k);
                model.remove(&k);
            }
            _ => {
                // A present-or-absent even key, plus a guaranteed-miss
                // odd key and a beyond-the-fences miss.
                let k = key_at(rng.next_u64());
                let want = model.get(&k).copied();
                assert_eq!(db.get(k), want, "{label} get({k}) at op {i}");
                assert_eq!(db.get(k + 1), None, "{label} miss({})", k + 1);
                let far = u64::MAX - rng.below(1 << 20);
                assert_eq!(db.get(far), None, "{label} far miss");
            }
        }
        if i % 1_000 == 999 {
            let lo = key_at(rng.next_u64());
            let hi = lo + rng.below(1_200);
            let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(db.range(lo, hi), want, "{label} range at op {i}");
        }
    }

    // Deleted-then-reinserted keys: tombstone a slice of live keys, check
    // the deletion is observed, resurrect with new values, check the
    // reinsertion is observed (not the stale pre-delete value).
    let victims: Vec<u64> = model.keys().copied().step_by(7).take(64).collect();
    for &k in &victims {
        db.delete(k);
        model.remove(&k);
    }
    for &k in &victims {
        assert_eq!(db.get(k), None, "{label} sees delete({k})");
    }
    for (i, &k) in victims.iter().enumerate() {
        let v = u64::MAX - i as u64;
        db.insert(k, v);
        model.insert(k, v);
    }
    for (i, &k) in victims.iter().enumerate() {
        let want = Some(u64::MAX - i as u64);
        assert_eq!(db.get(k), want, "{label} reinsert({k})");
    }

    // Full-content sweep at the end.
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(db.range(0, u64::MAX), want, "{label} final content");
}

#[test]
fn mem_matrix_agrees_with_model() {
    for s in cola_cells() {
        for shards in [1usize, 3] {
            let mut db = builder(s, shards, None).build().unwrap();
            let label = db.label().to_string();
            drive(
                &mut db,
                0xCA5CADE ^ shards as u64,
                6_000,
                &format!("{label} (mem, {shards} shard(s))"),
            );
        }
    }
}

#[test]
fn file_matrix_agrees_with_model() {
    for (i, s) in cola_cells().into_iter().enumerate() {
        for shards in [1usize, 3] {
            let path = tmp(&format!("{i}-{shards}"));
            let mut db = builder(s, shards, Some(path.to_path_buf()))
                .build()
                .unwrap();
            db.discard_on_drop();
            let label = db.label().to_string();
            drive(
                &mut db,
                0xF11E ^ (i as u64) << 4 ^ shards as u64,
                3_000,
                &format!("{label} (file, {shards} shard(s))"),
            );
        }
    }
}

/// Reopening a file-backed db rebuilds the accelerators from the
/// committed cells and must serve the model's answers through them.
#[test]
fn reopened_db_agrees_with_model() {
    for (i, s) in cola_cells().into_iter().enumerate() {
        let path = tmp(&format!("reopen-{i}"));
        let mk = || builder(s, 1, Some(path.to_path_buf()));
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
        let mut db = mk().open().unwrap();
        let mut rng = Rng::new(0xBEEF);
        for _ in 0..600 {
            let k = key_at(rng.next_u64());
            assert_eq!(db.get(k), model.get(&k).copied(), "reopen get({k})");
            assert_eq!(db.get(k + 1), None, "reopen miss");
        }
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(db.range(0, u64::MAX), want, "reopen");
    }
}

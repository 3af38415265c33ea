//! Differential battery for the vEB-layout read path: representative
//! cells of the `DbBuilder` matrix (COLA family and the B-tree, mem and
//! file backends) replay one seeded workload through all four
//! `veb_layout × cascade` toggle combinations and against a `BTreeMap`
//! model — every point lookup (hits *and* misses) and every range query
//! must agree. The vEB mirrors and the branchless probes are pure
//! accelerators; any observable divergence is a bug. A reopen leg flips
//! both toggles across restarts of the same store, mirroring the cascade
//! battery's reopen-across-toggle discipline.

use std::collections::BTreeMap;
use std::path::PathBuf;

use cosbt::testkit::{Rng, TempPath};
use cosbt::{Backend, Db, DbBuilder, Structure};

/// Cells whose static search surfaces the vEB layout accelerates: the
/// COLAs (ghost-sample mirrors) and the B-tree (leaf directory). A
/// subset of the matrix — the cascade battery already sweeps every COLA
/// cell; this one crosses both toggles.
fn veb_cells() -> Vec<(Structure, bool)> {
    vec![
        (Structure::BasicCola, false),
        (Structure::BasicCola, true),
        (Structure::GCola { g: 2 }, true),
        (Structure::GCola { g: 4 }, false),
        (Structure::BTree, false),
    ]
}

fn builder(
    s: Structure,
    deamortized: bool,
    veb: bool,
    cascade: bool,
    file: Option<PathBuf>,
) -> DbBuilder {
    let mut b = DbBuilder::new()
        .structure(s)
        .veb_layout(veb)
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
    TempPath::new(&format!("veb-{name}.db"))
}

/// Even keys in a bounded space: the odd positions are guaranteed misses
/// that land inside the fence spans, exercising the probe loops rather
/// than the short-circuits.
const KEY_SPACE: u64 = 4_000;

fn key_at(slot: u64) -> u64 {
    slot % KEY_SPACE * 2
}

/// Drives all toggle twins and the model with one seeded op stream,
/// checking agreement as it goes. `dbs[i].0` labels the combination.
fn drive(dbs: &mut [(String, Db)], seed: u64, ops: usize, label: &str) {
    let mut rng = Rng::new(seed);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..ops {
        match rng.below(10) {
            0..=5 => {
                let (k, v) = (key_at(rng.next_u64()), rng.next_u64());
                for (_, db) in dbs.iter_mut() {
                    db.insert(k, v);
                }
                model.insert(k, v);
            }
            6..=7 => {
                let k = key_at(rng.next_u64());
                for (_, db) in dbs.iter_mut() {
                    db.delete(k);
                }
                model.remove(&k);
            }
            _ => {
                let k = key_at(rng.next_u64());
                let want = model.get(&k).copied();
                let far = u64::MAX - rng.below(1 << 20);
                for (combo, db) in dbs.iter_mut() {
                    assert_eq!(db.get(k), want, "{label} [{combo}] get({k}) at op {i}");
                    assert_eq!(db.get(k + 1), None, "{label} [{combo}] miss({})", k + 1);
                    assert_eq!(db.get(far), None, "{label} [{combo}] far miss");
                }
            }
        }
        if i % 1_000 == 999 {
            let lo = key_at(rng.next_u64());
            let hi = lo + rng.below(1_200);
            let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            for (combo, db) in dbs.iter_mut() {
                assert_eq!(db.range(lo, hi), want, "{label} [{combo}] range at op {i}");
            }
        }
    }

    // Deleted-then-reinserted keys: every toggle combination must see the
    // deletion, then the fresh value — never the stale pre-delete one.
    let victims: Vec<u64> = model.keys().copied().step_by(7).take(64).collect();
    for &k in &victims {
        for (_, db) in dbs.iter_mut() {
            db.delete(k);
        }
        model.remove(&k);
    }
    for &k in &victims {
        for (combo, db) in dbs.iter_mut() {
            assert_eq!(db.get(k), None, "{label} [{combo}] sees delete({k})");
        }
    }
    for (i, &k) in victims.iter().enumerate() {
        let v = u64::MAX - i as u64;
        for (_, db) in dbs.iter_mut() {
            db.insert(k, v);
        }
        model.insert(k, v);
    }
    for (i, &k) in victims.iter().enumerate() {
        let want = Some(u64::MAX - i as u64);
        for (combo, db) in dbs.iter_mut() {
            assert_eq!(db.get(k), want, "{label} [{combo}] reinsert({k})");
        }
    }

    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    for (combo, db) in dbs.iter_mut() {
        assert_eq!(
            db.range(0, u64::MAX),
            want,
            "{label} [{combo}] final content"
        );
    }
}

fn combos() -> [(bool, bool); 4] {
    [(false, false), (false, true), (true, false), (true, true)]
}

#[test]
fn mem_cells_agree_across_veb_and_cascade_toggles() {
    for (s, deamortized) in veb_cells() {
        let mut dbs: Vec<(String, Db)> = combos()
            .into_iter()
            .map(|(veb, cascade)| {
                (
                    format!("veb={veb} cascade={cascade}"),
                    builder(s, deamortized, veb, cascade, None).build().unwrap(),
                )
            })
            .collect();
        let label = format!("{} (mem)", dbs[0].1.label());
        drive(&mut dbs, 0x0EB ^ deamortized as u64, 5_000, &label);
    }
}

#[test]
fn file_cells_agree_across_veb_and_cascade_toggles() {
    for (i, (s, deamortized)) in veb_cells().into_iter().enumerate() {
        // One scratch directory per cell; the four stores are siblings.
        let base = tmp(&format!("file-{i}"));
        let mut dbs: Vec<(String, Db)> = combos()
            .into_iter()
            .enumerate()
            .map(|(j, (veb, cascade))| {
                let b = builder(
                    s,
                    deamortized,
                    veb,
                    cascade,
                    Some(base.with_file_name(format!("file-{i}-{j}.db"))),
                );
                let mut db = b.build().unwrap();
                db.discard_on_drop();
                (format!("veb={veb} cascade={cascade}"), db)
            })
            .collect();
        let label = format!("{} (file)", dbs[0].1.label());
        drive(&mut dbs, 0xF0EB ^ (i as u64) << 3, 2_500, &label);
    }
}

/// One store, many restarts: a database written with both accelerators
/// on must serve identical answers when reopened under any of the four
/// toggle combinations — the layouts are DRAM-only and rebuilt at open.
#[test]
fn reopen_preserves_equivalence_across_both_toggles() {
    for (i, (s, deamortized)) in veb_cells().into_iter().enumerate() {
        let path = tmp(&format!("reopen-{i}"));
        let mk = |veb: bool, cascade: bool| {
            builder(s, deamortized, veb, cascade, Some(path.to_path_buf()))
        };
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        {
            let mut db = mk(true, true).build().unwrap();
            let mut rng = Rng::new(0x0EB0 ^ i as u64);
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
        for (veb, cascade) in combos() {
            let mut db = mk(veb, cascade).open().unwrap();
            let mut rng = Rng::new(0xBEEF);
            for _ in 0..600 {
                let k = key_at(rng.next_u64());
                assert_eq!(
                    db.get(k),
                    model.get(&k).copied(),
                    "reopen veb={veb} cascade={cascade} get({k})"
                );
                assert_eq!(
                    db.get(k + 1),
                    None,
                    "reopen veb={veb} cascade={cascade} miss"
                );
            }
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(
                db.range(0, u64::MAX),
                want,
                "reopen veb={veb} cascade={cascade}"
            );
        }
    }
}

//! Seeded cursor scripts: random runs of `seek`, `next` and `prev`, with
//! direction switches, played on a cursor and on a `VecCursor` over the
//! model's live entries in the same window, step by step.
//!
//! Two engines are covered: the snapshot overlay's cursor over random
//! newest-first run stacks (up to nine runs, a third of the operations
//! tombstones, keys 0 and `u64::MAX` included), and the cursor of a
//! sharded `Db`, which chains its shards' cursors (two to four shards,
//! some empty, and windows with `lo > hi`).

use std::collections::BTreeMap;

use cosbt::cola::epoch::Run;
use cosbt::cola::EpochManager;
use cosbt::testkit::{check_cases, Rng};
use cosbt::{BatchOp, CursorOps, Db, DbBuilder, Structure, VecCursor};

/// Keys drawn from `0..space`, with 0 and `u64::MAX` a tenth each.
fn key(rng: &mut Rng, space: u64) -> u64 {
    match rng.below(10) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.below(space),
    }
}

/// `len` arrival-ordered operations, a third of them tombstones.
fn random_ops(rng: &mut Rng, len: usize, space: u64) -> Vec<BatchOp> {
    (0..len)
        .map(|_| (key(rng, space), (!rng.chance(1, 3)).then(|| rng.next_u64())))
        .collect()
}

fn apply(model: &mut BTreeMap<u64, u64>, ops: &[BatchOp]) {
    for &(k, op) in ops {
        match op {
            Some(v) => model.insert(k, v),
            None => model.remove(&k),
        };
    }
}

/// A window over `0..space`: the whole key space, one key, a random
/// interval, or (one time in eight) an empty one with `lo > hi`.
fn window(rng: &mut Rng, space: u64) -> (u64, u64) {
    match rng.below(8) {
        0 => (0, u64::MAX),
        1 => {
            let k = key(rng, space);
            (k, k)
        }
        2 => {
            let (a, b) = (key(rng, space), key(rng, space));
            (a.max(b), a.min(b))
        }
        _ => {
            let (a, b) = (key(rng, space), key(rng, space));
            (a.min(b), a.max(b))
        }
    }
}

/// Plays one random script on `cur`, a cursor over `[lo, hi]` of
/// `model`, and on a `VecCursor` over the same live entries, asserting
/// that every step returns the same entry.
fn follow_script(
    name: &str,
    cur: &mut impl CursorOps,
    model: &BTreeMap<u64, u64>,
    (lo, hi): (u64, u64),
    rng: &mut Rng,
) {
    let live: Vec<(u64, u64)> = if lo <= hi {
        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
    } else {
        Vec::new()
    };
    let mut want = VecCursor::new(live.clone());
    let mut forward = rng.chance(1, 2);
    let mut trace = Vec::new();
    for _ in 0..64 {
        match rng.below(8) {
            0 => {
                let to = match rng.below(4) {
                    0 if !live.is_empty() => {
                        let k = live[rng.index(live.len())].0;
                        [k, k.wrapping_sub(1), k.wrapping_add(1)][rng.index(3)]
                    }
                    1 => [0, u64::MAX, lo, hi][rng.index(4)],
                    _ => key(rng, u64::MAX),
                };
                trace.push(format!("seek({to})"));
                cur.seek(to);
                want.seek(to);
            }
            1 => forward = !forward,
            _ => {
                let (got, expect) = match forward {
                    true => (cur.next(), want.next()),
                    false => (cur.prev(), want.prev()),
                };
                trace.push(if forward { "next" } else { "prev" }.to_string());
                assert_eq!(got, expect, "{name} [{lo}, {hi}] after {trace:?}");
            }
        }
    }
}

#[test]
fn snapshot_cursors_follow_random_scripts() {
    check_cases("snapshot_cursors_follow_random_scripts", 150, |rng| {
        // A stack of one to nine runs published straight onto a
        // manager: the cursor a `DbSnapshot` hands out for its pin.
        let mgr = EpochManager::new();
        let mut model = BTreeMap::new();
        for _ in 0..1 + rng.index(9) {
            let (len, space) = match rng.below(4) {
                0 => (rng.index(2), 100),
                1 => (rng.index(600), 2_000),
                _ => (rng.index(60), 100),
            };
            let ops = random_ops(rng, len, space);
            apply(&mut model, &ops);
            let run = Run::from_ops(ops);
            mgr.publish_with(|cur| {
                let mut runs = vec![run];
                runs.extend_from_slice(cur.runs());
                (runs, cur.store_epochs_arc())
            });
        }
        let pin = mgr.pin();
        for _ in 0..3 {
            let w = window(rng, 2_000);
            follow_script("stack", &mut pin.cursor(w.0, w.1), &model, w, rng);
        }

        // The same through a `Db`'s overlay, which compacts past eight
        // runs.
        let mut db = DbBuilder::new().build().unwrap();
        let mut model = BTreeMap::new();
        for round in 0..2 + rng.index(9) {
            let len = if round == 0 { 200 } else { rng.index(40) };
            let ops = random_ops(rng, len, 300);
            for &(k, op) in &ops {
                match op {
                    Some(v) => db.insert(k, v),
                    None => db.delete(k),
                }
            }
            apply(&mut model, &ops);
            db.snapshot();
        }
        let snap = db.snapshot();
        for _ in 0..3 {
            let w = window(rng, 300);
            follow_script("db", &mut snap.cursor(w.0, w.1), &model, w, rng);
        }
    });
}

#[test]
fn sharded_cursors_follow_random_scripts() {
    const SPACE: u64 = 400;
    check_cases("sharded_cursors_follow_random_scripts", 60, |rng| {
        let shards = 2 + rng.index(3);
        // Splitters up to half again past the key space, so the upper
        // shards are often empty and small ones may be.
        let mut splitters: Vec<u64> = Vec::new();
        while splitters.len() < shards - 1 {
            let s = 1 + rng.below(SPACE + SPACE / 2);
            if !splitters.contains(&s) {
                splitters.push(s);
            }
        }
        splitters.sort_unstable();
        let structure = [
            Structure::GCola { g: 4 },
            Structure::BTree,
            Structure::Brt,
            Structure::Shuttle { c: 4 },
        ][rng.index(4)];
        let mut db: Db = DbBuilder::new()
            .structure(structure)
            .shards(shards)
            .shard_splitters(splitters.clone())
            .build()
            .unwrap();
        let mut model = BTreeMap::new();
        let len = rng.index(300);
        let ops = random_ops(rng, len, SPACE);
        for &(k, op) in &ops {
            match op {
                Some(v) => db.insert(k, v),
                None => db.delete(k),
            }
        }
        apply(&mut model, &ops);
        for _ in 0..4 {
            let w = match rng.below(4) {
                // Across every shard boundary, backwards.
                0 => (splitters[shards - 2], splitters[0] - 1),
                _ => window(rng, SPACE + SPACE / 2),
            };
            let name = format!("{shards} shards at {splitters:?}");
            follow_script(&name, &mut db.cursor(w.0, w.1), &model, w, rng);
        }
    });
}

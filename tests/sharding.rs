//! Property suite for the sharded front-end: a sharded `Db` must be
//! observationally identical to the equivalent unsharded structure —
//! point ops, batches, and above all cursors (forward, backward, and
//! after a `seek` across a shard boundary). The unsharded structure *is*
//! the model here; the `BTreeMap`-backed batteries already pin its
//! behaviour. A batch applied on worker threads must leave every shard's
//! store exactly as the sequential path does.

use std::path::PathBuf;

use cosbt::shard::PARALLEL_MIN_OPS;
use cosbt::testkit::{check_cases, Rng, TempPath};
use cosbt::{Backend, Db, DbBuilder, Structure, UpdateBatch};

const SPLITTERS: [u64; 3] = [64, 160, 320];
const KEY_SPACE: u64 = 512;

fn structures() -> Vec<(&'static str, Structure)> {
    vec![
        ("basic-COLA", Structure::BasicCola),
        ("4-COLA", Structure::GCola { g: 4 }),
        ("B-tree", Structure::BTree),
        ("BRT", Structure::Brt),
        ("shuttle", Structure::Shuttle { c: 4 }),
    ]
}

fn sharded(s: Structure) -> Db {
    DbBuilder::new()
        .structure(s)
        .shards(SPLITTERS.len() + 1)
        .shard_splitters(SPLITTERS.to_vec())
        .build()
        .unwrap()
}

fn unsharded(s: Structure) -> Db {
    DbBuilder::new().structure(s).build().unwrap()
}

/// Drives both databases with the same random traffic: point ops,
/// `apply` batches, and sorted `insert_batch` runs.
fn drive_pair(rng: &mut Rng, a: &mut Db, b: &mut Db, ops: usize) {
    for _ in 0..ops {
        match rng.below(10) {
            0..=3 => {
                let (k, v) = (rng.below(KEY_SPACE), rng.next_u64());
                a.insert(k, v);
                b.insert(k, v);
            }
            4..=5 => {
                let k = rng.below(KEY_SPACE);
                a.delete(k);
                b.delete(k);
            }
            6..=7 => {
                let mut batch_a = UpdateBatch::new();
                let mut batch_b = UpdateBatch::new();
                for _ in 0..1 + rng.index(32) {
                    let k = rng.below(KEY_SPACE);
                    if rng.chance(1, 4) {
                        batch_a.delete(k);
                        batch_b.delete(k);
                    } else {
                        let v = rng.next_u64();
                        batch_a.put(k, v);
                        batch_b.put(k, v);
                    }
                }
                a.apply(&mut batch_a);
                b.apply(&mut batch_b);
            }
            _ => {
                let mut run: Vec<(u64, u64)> = (0..1 + rng.index(48))
                    .map(|_| (rng.below(KEY_SPACE), rng.next_u64()))
                    .collect();
                run.sort_unstable_by_key(|&(k, _)| k);
                a.insert_batch(&run);
                b.insert_batch(&run);
            }
        }
    }
}

/// Forward walk, backward walk, and boundary seeks of the sharded cursor
/// must match the unsharded one entry for entry.
fn assert_cursors_agree(name: &str, sharded: &mut Db, plain: &mut Db, lo: u64, hi: u64) {
    let want = plain.range(lo, hi);
    assert_eq!(sharded.range(lo, hi), want, "{name} range({lo},{hi})");

    let mut cur = sharded.cursor(lo, hi);
    let mut fwd = Vec::new();
    while let Some(kv) = cur.next() {
        fwd.push(kv);
    }
    assert_eq!(fwd, want, "{name} sharded cursor forward ({lo},{hi})");
    let mut bwd = Vec::new();
    while let Some(kv) = cur.prev() {
        bwd.push(kv);
    }
    bwd.reverse();
    assert_eq!(bwd, want, "{name} sharded cursor backward ({lo},{hi})");
    drop(cur);

    // Seek at every shard boundary inside the window: the gap lands just
    // before the splitter key, `next` continues in the upper shard and
    // `prev` walks back into the lower one.
    for sp in SPLITTERS {
        if sp <= lo || sp > hi {
            continue;
        }
        let at = want.partition_point(|&(k, _)| k < sp);
        {
            let mut cur = sharded.cursor(lo, hi);
            cur.seek(sp);
            assert_eq!(
                cur.next(),
                want.get(at).copied(),
                "{name} seek({sp}) then next crosses into the upper shard"
            );
        }
        {
            let mut cur = sharded.cursor(lo, hi);
            cur.seek(sp);
            assert_eq!(
                cur.prev(),
                at.checked_sub(1).and_then(|i| want.get(i)).copied(),
                "{name} seek({sp}) then prev walks back into the lower shard"
            );
        }
    }
}

#[test]
fn sharded_matches_unsharded_under_random_traffic() {
    for (name, s) in structures() {
        check_cases(&format!("sharded_{name}"), 24, |rng: &mut Rng| {
            let mut sh = sharded(s);
            let mut plain = unsharded(s);
            let n = 1 + rng.index(199);
            drive_pair(rng, &mut sh, &mut plain, n);
            assert_cursors_agree(name, &mut sh, &mut plain, 0, u64::MAX);
            let (a, b) = (rng.below(KEY_SPACE), rng.below(KEY_SPACE));
            assert_cursors_agree(name, &mut sh, &mut plain, a.min(b), a.max(b));
            for _ in 0..16 {
                let k = rng.below(KEY_SPACE);
                assert_eq!(sh.get(k), plain.get(k), "{name} get({k})");
            }
        });
    }
}

#[test]
fn parallel_ingest_is_deterministic() {
    let route = |k: u64| SPLITTERS.partition_point(|&s| s <= k);
    for (name, s) in structures() {
        check_cases(&format!("parallel_{name}"), 12, |rng: &mut Rng| {
            let mut par = sharded(s);
            let mut seq = sharded(s);
            let n = 1 + rng.index(149);
            drive_pair(rng, &mut par, &mut seq, n);
            // One batch big enough to cross the parallel threshold, so
            // the scoped workers spawn on a machine with several cores;
            // the other store takes it one shard's piece at a time, which
            // always runs on the calling thread.
            let mut run: Vec<(u64, u64)> = (0..2 * PARALLEL_MIN_OPS)
                .map(|_| (rng.below(KEY_SPACE), rng.next_u64()))
                .collect();
            run.sort_unstable_by_key(|&(k, _)| k);
            par.insert_batch(&run);
            for piece in run.chunk_by(|a, b| route(a.0) == route(b.0)) {
                seq.insert_batch(piece);
            }
            assert_eq!(
                par.range(0, u64::MAX),
                seq.range(0, u64::MAX),
                "{name}: threaded and sequential sharding must agree"
            );
        });
    }
}

#[test]
fn boundary_keys_route_consistently() {
    // Keys on and adjacent to every splitter: the most likely off-by-one
    // sites in routing and sub-batch splitting.
    for (name, s) in structures() {
        let mut sh = sharded(s);
        let mut plain = unsharded(s);
        let mut keys = Vec::new();
        for sp in SPLITTERS {
            keys.extend([sp - 1, sp, sp + 1]);
        }
        keys.extend([0, KEY_SPACE - 1]);
        let run: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k * 10)).collect();
        let mut sorted = run.clone();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        sh.insert_batch(&sorted);
        plain.insert_batch(&sorted);
        for &k in &keys {
            assert_eq!(sh.get(k), Some(k * 10), "{name} get({k})");
        }
        assert_cursors_agree(name, &mut sh, &mut plain, 0, u64::MAX);
        // Delete exactly the splitter keys and re-check.
        for sp in SPLITTERS {
            sh.delete(sp);
            plain.delete(sp);
        }
        assert_cursors_agree(name, &mut sh, &mut plain, 0, u64::MAX);
    }
}

#[test]
fn even_splitters_cover_the_full_keyspace() {
    // Default even splitting with keys spread over all of u64: every
    // quadrant takes traffic and the spliced cursor stays ordered.
    check_cases("even_splitters_full_range", 16, |rng: &mut Rng| {
        let mut sh = DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .shards(4)
            .build()
            .unwrap();
        let mut plain = unsharded(Structure::GCola { g: 4 });
        let mut run: Vec<(u64, u64)> = (0..1 + rng.index(999))
            .map(|_| (rng.next_u64(), rng.next_u64()))
            .collect();
        run.sort_unstable_by_key(|&(k, _)| k);
        sh.insert_batch(&run);
        plain.insert_batch(&run);
        assert_eq!(sh.range(0, u64::MAX), plain.range(0, u64::MAX));
        let mut cur = sh.cursor(0, u64::MAX);
        let mut prev_key = None;
        while let Some((k, _)) = cur.next() {
            assert!(prev_key.is_none_or(|p| p < k), "spliced cursor ordered");
            prev_key = Some(k);
        }
    });
}

#[test]
fn apply_preserves_arrival_order_per_key_across_shards() {
    // Intra-batch last-wins must survive the split into sub-batches, for
    // keys in every shard and on the boundaries.
    let mut sh = sharded(Structure::GCola { g: 4 });
    let mut batch = UpdateBatch::new();
    for sp in SPLITTERS {
        batch.put(sp, 1).delete(sp).put(sp, 2); // last wins: 2
        batch.put(sp - 1, 7).put(sp - 1, 8); // last wins: 8
    }
    batch.put(400, 1).delete(400); // delete wins
    sh.apply(&mut batch);
    assert!(batch.is_empty(), "apply drains through the router");
    for sp in SPLITTERS {
        assert_eq!(sh.get(sp), Some(2), "splitter key {sp}");
        assert_eq!(sh.get(sp - 1), Some(8), "below-boundary key {}", sp - 1);
    }
    assert_eq!(sh.get(400), None);
}

/// Shard boundaries of the file-backed stores below: four even quarters
/// of `[0, 2^20)`.
const QUARTERS: [u64; 3] = [1 << 18, 2 << 18, 3 << 18];

/// A 4-shard file-backed 4-COLA at a fresh path named `name`.
fn file_builder(name: &str) -> (TempPath, DbBuilder) {
    let base = TempPath::new(name);
    let builder = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(base.to_path_buf()))
        .cache_bytes(4 * 64 * 1024)
        .shards(QUARTERS.len() + 1)
        .shard_splitters(QUARTERS.to_vec());
    (base, builder)
}

/// The structure meta committed in each shard file of `builder`'s store.
fn committed_shard_metas(builder: &DbBuilder) -> Vec<Vec<u8>> {
    use cosbt::cola::entry::Cell;
    use cosbt::dam::{DirectFile, FileMem};

    let shard_files = builder.data_paths().into_iter().take(QUARTERS.len() + 1);
    let open = |p: PathBuf| DirectFile::open(&p, false).unwrap();
    let meta = |p| {
        FileMem::<Cell, DirectFile>::open_on(open(p), 4, 32)
            .unwrap()
            .1
    };
    shard_files.map(meta).collect()
}

/// One stream fed to two 4-shard file-backed stores: to the first as
/// `apply` and `insert_batch` batches of more than `PARALLEL_MIN_OPS`
/// operations that reach every shard (threaded on a machine with more
/// than one core), to the second as each batch's per-shard pieces, each
/// below the threshold and reaching one shard (sequential). Every shard
/// applies the same sub-batches in the same order either way, so both
/// end with the same contents, the same summed `IoStats`, and the same
/// meta committed in every shard.
#[test]
fn threaded_and_sequential_batches_leave_identical_stores() {
    let route = |k: u64| QUARTERS.partition_point(|&s| s <= k);
    let ((_t, threaded_at), (_s, sequential_at)) = (file_builder("t"), file_builder("s"));
    let mut threaded = threaded_at.clone().build().unwrap();
    let mut sequential = sequential_at.clone().build().unwrap();
    let mut rng = Rng::new(0x5EED);
    let n = PARALLEL_MIN_OPS + PARALLEL_MIN_OPS / 2;
    for _ in 0..4 {
        let mut batch = UpdateBatch::new();
        let mut pieces: Vec<UpdateBatch> = (0..4).map(|_| UpdateBatch::new()).collect();
        for _ in 0..n {
            let (k, v) = (rng.below(1 << 20), rng.next_u64());
            if rng.chance(1, 5) {
                batch.delete(k);
                pieces[route(k)].delete(k);
            } else {
                batch.put(k, v);
                pieces[route(k)].put(k, v);
            }
        }
        threaded.apply(&mut batch);
        for piece in &mut pieces {
            assert!(!piece.is_empty() && piece.len() < PARALLEL_MIN_OPS);
            sequential.apply(piece);
        }
        let mut run: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.below(1 << 20), rng.next_u64()))
            .collect();
        run.sort_unstable_by_key(|&(k, _)| k);
        threaded.insert_batch(&run);
        for piece in run.chunk_by(|a, b| route(a.0) == route(b.0)) {
            assert!(piece.len() < PARALLEL_MIN_OPS);
            sequential.insert_batch(piece);
        }
    }
    assert_eq!(threaded.range(0, u64::MAX), sequential.range(0, u64::MAX));
    assert_eq!(threaded.io().snapshot(), sequential.io().snapshot());
    threaded.sync().unwrap();
    sequential.sync().unwrap();
    drop((threaded, sequential));
    assert_eq!(
        committed_shard_metas(&threaded_at),
        committed_shard_metas(&sequential_at)
    );
}

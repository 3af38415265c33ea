//! Multi-threaded stress suite for the epoch-snapshot subsystem.
//!
//! Readers validate pinned [`cosbt::DbSnapshot`]s against `BTreeMap`
//! models captured at the same epoch while a writer keeps mutating and
//! publishing newer epochs — a snapshot must never show a torn state or
//! a write from its future. Thread counts and round counts scale with
//! `COSBT_STRESS_READERS` / `COSBT_STRESS_ROUNDS` (CI's stress job
//! raises them; the defaults keep `cargo test` quick).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use cosbt::testkit::{Rng, TempPath};
use cosbt::{Backend, CursorOps, Db, DbBuilder, DbSnapshot, Structure};

/// Run count past which `snapshot()` compacts (the facade's
/// `MAX_SNAPSHOT_RUNS`).
const MAX_SNAPSHOT_RUNS: usize = 8;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn readers() -> usize {
    env_or("COSBT_STRESS_READERS", 4)
}

fn rounds() -> usize {
    env_or("COSBT_STRESS_ROUNDS", 6)
}

fn tmp(name: &str) -> TempPath {
    TempPath::new(&format!("conc-{name}.db"))
}

/// One seeded round of mixed mutations applied to db and model alike.
fn mutate_round(db: &mut Db, model: &mut BTreeMap<u64, u64>, rng: &mut Rng, ops: usize) {
    const KEYSPACE: u64 = 20_000;
    for _ in 0..ops {
        let k = rng.below(KEYSPACE);
        if rng.chance(1, 5) {
            db.delete(k);
            model.remove(&k);
        } else {
            let v = rng.next_u64();
            db.insert(k, v);
            model.insert(k, v);
        }
    }
    // A batched pass too, so the mirror's batch path is exercised.
    let mut batch: Vec<(u64, u64)> = (0..64)
        .map(|_| (rng.below(KEYSPACE), rng.next_u64()))
        .collect();
    batch.sort_unstable_by_key(|&(k, _)| k);
    db.insert_batch(&batch);
    for &(k, v) in cosbt::cola::dict::dedup_sorted_last_wins(&batch).iter() {
        model.insert(k, v);
    }
}

/// Checks a snapshot against the model frozen at the same epoch:
/// seeded point gets (hits and misses), a range window, and a cursor
/// walked both ways across a gap.
fn validate_pair(snap: &DbSnapshot, model: &BTreeMap<u64, u64>, rng: &mut Rng) {
    for _ in 0..60 {
        let k = rng.below(22_000);
        assert_eq!(snap.get(k), model.get(&k).copied(), "get({k}) diverged");
    }
    let lo = rng.below(18_000);
    let hi = lo + rng.below(3_000);
    let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
    assert_eq!(snap.range(lo, hi), want, "range [{lo}, {hi}] diverged");
    let mut cur = snap.cursor(lo, hi);
    let first = cur.next();
    assert_eq!(first, want.first().copied(), "cursor first");
    if first.is_some() {
        assert_eq!(cur.prev(), first, "cursor gap semantics (next then prev)");
    }
}

/// N readers validate pinned snapshots against per-epoch models while
/// one writer keeps publishing newer epochs on the same database, over
/// memory, a file and an `O_DIRECT` file. The file stores get a cache of
/// four pages a shard and a commit after every publish, so the writer
/// evicts pages and retires shadow slots whose reuse the readers' pins
/// hold back while they validate.
#[test]
fn readers_on_pinned_snapshots_race_one_writer() {
    const SHARDS: usize = 3;
    let path = tmp("race");
    let direct = tmp("race-direct");
    for backend in [
        Backend::Mem,
        Backend::file(path.to_path_buf()),
        Backend::file_direct(direct.to_path_buf()),
    ] {
        let on_file = !matches!(backend, Backend::Mem);
        let db = DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .shards(SHARDS)
            .backend(backend)
            .cache_bytes(SHARDS * 4 * cosbt::dam::DEFAULT_PAGE_SIZE)
            .build()
            .unwrap();
        let io = race_readers_against_writer(db).io().take();
        if on_file {
            assert!(io.evictions > 0, "the cache never evicted: {io:?}");
        }
    }
}

/// Runs the race on `db` and returns it after checking its final state.
fn race_readers_against_writer(mut db: Db) -> Db {
    type Pair = (DbSnapshot, Arc<BTreeMap<u64, u64>>);
    let published: Arc<Mutex<Vec<Pair>>> = Arc::new(Mutex::new(Vec::new()));
    let done = Arc::new(AtomicBool::new(false));
    let n_rounds = rounds();

    let writer = {
        let published = Arc::clone(&published);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut model = BTreeMap::new();
            let mut rng = Rng::new(0xC0_1A);
            for _ in 0..n_rounds {
                mutate_round(&mut db, &mut model, &mut rng, 800);
                let snap = db.snapshot();
                published
                    .lock()
                    .unwrap()
                    .push((snap, Arc::new(model.clone())));
                db.sync().unwrap();
            }
            // ordering: Release pairs with the readers' Acquire loads.
            done.store(true, Ordering::Release);
            (db, model)
        })
    };

    let handles: Vec<_> = (0..readers())
        .map(|r| {
            let published = Arc::clone(&published);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut rng = Rng::new(0xBEEF + r as u64);
                let mut validated = 0usize;
                loop {
                    // Clone the pairs out so the writer is never blocked
                    // on our validation work.
                    let pairs: Vec<Pair> = published.lock().unwrap().clone();
                    for (snap, model) in &pairs {
                        validate_pair(snap, model, &mut rng);
                        validated += 1;
                    }
                    // ordering: Acquire pairs with the writer's Release
                    // store of `done`.
                    if done.load(Ordering::Acquire) && pairs.len() >= n_rounds {
                        break;
                    }
                    thread::yield_now();
                }
                validated
            })
        })
        .collect();

    for h in handles {
        let validated = h.join().unwrap();
        assert!(validated >= n_rounds, "reader starved: {validated} checks");
    }
    let (mut db, model) = writer.join().unwrap();
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(db.range(0, u64::MAX), want, "final live state diverged");
    let stats = db.snapshot_stats();
    assert!(
        stats.published as usize >= n_rounds,
        "expected ≥{n_rounds} epochs, saw {}",
        stats.published
    );
    db
}

/// The compactions `snapshot()` runs keep the run stack bounded without
/// pinned snapshots ever observing a wrong or torn result, and dropped
/// pins release retired runs for reclamation.
#[test]
fn compactions_bound_runs_and_never_corrupt_reads() {
    let mut db = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .build()
        .unwrap();

    let mut model = BTreeMap::new();
    let mut rng = Rng::new(0xD00D);
    let n_rounds = rounds().max(12); // enough rounds to force compactions
    let mut snaps: Vec<(DbSnapshot, BTreeMap<u64, u64>)> = Vec::new();
    for _ in 0..n_rounds {
        mutate_round(&mut db, &mut model, &mut rng, 300);
        let snap = db.snapshot();
        // Compaction finishes inside `snapshot()`, so the bound holds
        // on every epoch it returns.
        assert!(
            snap.run_count() <= MAX_SNAPSHOT_RUNS,
            "run stack unbounded: {}",
            snap.run_count()
        );
        snaps.push((snap, model.clone()));
        // Keep only a sliding window pinned so older epochs retire.
        if snaps.len() > 3 {
            snaps.remove(0);
        }
    }
    for (snap, frozen) in &snaps {
        let mut check_rng = Rng::new(snap.epoch());
        validate_pair(snap, frozen, &mut check_rng);
    }
    let stats = db.snapshot_stats();
    assert!(
        stats.retired_runs > 0,
        "compactions should have retired superseded runs"
    );
    // Whether any run is *already* reclaimed depends on where the pinned
    // window sits relative to the compaction's retire tag — drop every
    // pin to make reclamation unconditional, then assert.
    drop(snaps);
    let stats = db.snapshot_stats();
    assert!(
        stats.reclaimed_runs > 0,
        "dropping all pins must let retired runs be reclaimed"
    );
    assert_eq!(stats.pinned_epochs, 0, "no pins should remain");
}

/// Crash injection mid-compaction: copy the store file after post-sync
/// writes and snapshot compactions, reopen the copy, and recover exactly
/// the last committed epoch.
#[test]
fn crash_mid_snapshot_compaction_recovers_last_committed_epoch() {
    let path = tmp("crash-bg");
    let copy = tmp("crash-bg-copy");

    let builder = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(path.to_path_buf()))
        .cache_bytes(256 * 1024);

    let mut rng = Rng::new(0x5EED);
    let mut model = BTreeMap::new();
    let mut db = builder.clone().build().unwrap();
    for _ in 0..4 {
        mutate_round(&mut db, &mut model, &mut rng, 500);
        let _pin = db.snapshot(); // exercise the overlay pre-crash
    }
    db.sync().unwrap();
    let committed = model.clone(); // ← the state a crash must recover

    // Keep writing and snapshotting past the commit point so snapshot
    // compactions and page writebacks have happened when we "crash".
    let mut post = model.clone();
    let long_pin = db.snapshot(); // pinned epoch holds committed pages live
    for _ in 0..4 {
        mutate_round(&mut db, &mut post, &mut rng, 500);
        let _ = db.snapshot();
    }
    std::fs::copy(&path, &copy).unwrap(); // the crash image
    drop(long_pin);
    db.discard_on_drop();
    drop(db);

    let mut recovered = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(copy.to_path_buf()))
        .cache_bytes(256 * 1024)
        .open()
        .unwrap();
    let want: Vec<(u64, u64)> = committed.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(
        recovered.range(0, u64::MAX),
        want,
        "crash image must recover the last committed epoch exactly"
    );
    recovered.discard_on_drop();
    drop(recovered);
}

/// A snapshot, a reader and a cursor keep answering from their pinned
/// epoch after the `Db` that published it is dropped — for a file
/// backend, after its sync-on-drop — and drop cleanly afterwards.
#[test]
fn pins_outlive_their_db() {
    let path = tmp("pins-outlive");
    for backend in [Backend::Mem, Backend::file(path.to_path_buf())] {
        let mut db = DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .backend(backend)
            .cache_bytes(64 * 1024)
            .build()
            .unwrap();
        let want: Vec<(u64, u64)> = (0..2_000u64).map(|k| (k, k * 3)).collect();
        db.insert_batch(&want);
        let snap = db.snapshot();
        let mut reader = db.reader();
        let mut cursor = snap.cursor(0, u64::MAX);
        assert_eq!(cursor.next(), Some((0, 0)));
        // Unpublished writes make the drop commit on a file backend.
        db.insert(5, 0);
        db.delete(6);
        let epoch = snap.epoch();
        drop(db);

        assert_eq!(snap.epoch(), epoch);
        assert_eq!(snap.get(5), Some(15));
        assert_eq!(snap.range(0, u64::MAX), want);
        assert_eq!(reader.get(6), Some(18));
        assert_eq!(reader.epoch(), epoch, "nothing newer was published");
        assert_eq!(reader.range(1_990, u64::MAX), want[1_990..]);
        assert_eq!(cursor.next(), Some((1, 3)));
        assert_eq!(cursor.prev(), Some((1, 3)));
        drop(cursor);
        drop(reader);
        drop(snap);
    }
}

/// Regression for the `take_io_stats` race: a monitor thread repeatedly
/// swapping the counters while a writer does file I/O must account for
/// every transfer exactly once — the sum over phases equals an
/// identical serial run's total.
#[test]
fn take_io_stats_loses_nothing_under_concurrent_swaps() {
    fn workload(db: &mut Db) {
        let mut rng = Rng::new(0x10_57);
        for _ in 0..6 {
            let mut batch: Vec<(u64, u64)> = (0..2_000)
                .map(|_| (rng.next_u64() >> 20, rng.next_u64()))
                .collect();
            batch.sort_unstable_by_key(|&(k, _)| k);
            db.insert_batch(&batch);
        }
        db.sync().unwrap();
    }

    // Serial baseline: same workload, stats taken once at the end.
    let serial_path = tmp("stats-serial");
    let mut serial = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(serial_path.to_path_buf()))
        .cache_bytes(128 * 1024)
        .build()
        .unwrap();
    workload(&mut serial);
    let expected = serial.io().take();
    serial.discard_on_drop();
    drop(serial);

    // Concurrent run: monitor thread drains the counters in a tight
    // loop (lock-free — it cannot be starved by the writer holding the
    // store lock) while the writer runs the identical workload.
    let conc_path = tmp("stats-conc");
    let mut db = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(conc_path.to_path_buf()))
        .cache_bytes(128 * 1024)
        .build()
        .unwrap();
    let probe = db.io();
    let done = Arc::new(AtomicBool::new(false));
    let monitor = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut acc = cosbt::dam::IoStats::default();
            // ordering: Acquire pairs with the driver's Release store.
            while !done.load(Ordering::Acquire) {
                acc += probe.take();
            }
            acc += probe.take(); // final drain after writer stops
            acc
        })
    };
    let writer = thread::spawn(move || {
        workload(&mut db);
        db.discard_on_drop();
        drop(db);
    });
    writer.join().unwrap();
    done.store(true, Ordering::Release);
    let accumulated = monitor.join().unwrap();

    assert_eq!(
        accumulated, expected,
        "phase sums must equal the serial total — no transfer lost or double-counted"
    );
}

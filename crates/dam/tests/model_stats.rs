//! Model-checked exactly-once accounting for [`AtomicIoStats`]: a
//! `take()` racing concurrent increments must attribute every
//! increment to exactly one window — never lost, never double-counted
//! — in every interleaving up to the preemption bound.
//!
//! Compiled only under `--cfg cosbt_model` (see `.github/workflows/ci.yml`
//! for the invocation and expected runtimes).
#![cfg(cosbt_model)]

use cosbt_dam::{AtomicIoStats, IoStats};
use cosbt_testkit::model::{check_opts, ModelOpts};
use cosbt_testkit::sync::{thread, Arc, Mutex};

/// Two increments race a mid-stream `take()` plus a post-join `take()`:
/// the two windows must sum to exactly the increments performed.
#[test]
fn take_is_exactly_once_against_racing_increments() {
    let report = check_opts(ModelOpts::bound(2), || {
        let stats = Arc::new(AtomicIoStats::new());
        let s = Arc::clone(&stats);
        let writer = thread::spawn(move || {
            s.inc_fetches();
            s.inc_writebacks();
            s.inc_fetches();
        });
        // A window boundary cut at an arbitrary point in the stream.
        let mid = stats.take();
        writer.join().unwrap();
        let rest = stats.take();
        let total = mid + rest;
        assert_eq!(total.fetches, 2, "fetches lost or double-counted");
        assert_eq!(total.writebacks, 1, "writebacks lost or double-counted");
        // And the accumulator is empty: both windows drained it.
        assert_eq!(stats.snapshot(), IoStats::default());
    });
    assert!(
        report.preemption_bound >= 2 && report.schedules > 1,
        "expected a real exploration: {report:?}"
    );
}

/// The store's contract: increments are not atomic read-modify-writes,
/// so two writers must hand the counters off through the store lock.
/// Each writer's load sees the other's store through the lock's
/// happens-before edge, while an observer, which never takes that lock,
/// closes two windows mid-stream: the three windows sum exactly.
#[test]
fn writers_handing_off_the_store_lock_lose_no_increment() {
    let report = check_opts(ModelOpts::bound(2), || {
        let stats = Arc::new(AtomicIoStats::new());
        let store_lock = Arc::new(Mutex::new(()));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&stats);
                let lock = Arc::clone(&store_lock);
                thread::spawn(move || {
                    let _held = lock.lock().unwrap();
                    s.inc_fetches();
                    s.add_accesses(2, 1);
                })
            })
            .collect();
        let first = stats.take();
        let second = stats.take();
        for w in writers {
            w.join().unwrap();
        }
        let total = first + second + stats.take();
        assert_eq!(total.fetches, 2, "fetches lost or double-counted");
        assert_eq!(
            (total.accesses, total.hits),
            (4, 2),
            "accesses lost or double-counted"
        );
        assert_eq!(stats.snapshot(), IoStats::default());
    });
    assert!(
        report.preemption_bound >= 2 && report.schedules > 1,
        "expected a real exploration: {report:?}"
    );
}

/// `snapshot()` never resets: concurrent snapshots racing a writer are
/// monotone (each counter only grows) and the final post-join snapshot
/// sees every increment.
#[test]
fn snapshot_is_monotone_and_complete() {
    check_opts(ModelOpts::bound(2), || {
        let stats = Arc::new(AtomicIoStats::new());
        let s = Arc::clone(&stats);
        let writer = thread::spawn(move || {
            s.inc_accesses();
            s.inc_hits();
            s.inc_accesses();
        });
        let a = stats.snapshot();
        let b = stats.snapshot();
        assert!(
            b.accesses >= a.accesses && b.hits >= a.hits,
            "snapshot went backwards: {a:?} then {b:?}"
        );
        writer.join().unwrap();
        let fin = stats.snapshot();
        assert_eq!(fin.accesses, 2);
        assert_eq!(fin.hits, 1);
    });
}

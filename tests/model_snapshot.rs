//! Model-checked MVCC facade protocols: a `DbReader` racing the
//! writer's inline compaction, and a `DbReader` re-pinning racing the
//! writer's publish — explored exhaustively up to the preemption bound
//! via the `cosbt_testkit::model` scheduler.
//!
//! Compiled only under `--cfg cosbt_model` (see `.github/workflows/ci.yml`
//! for the invocation and expected runtimes).
#![cfg(cosbt_model)]

use cosbt::DbBuilder;
use cosbt_testkit::model::{check_opts, ModelOpts};
use cosbt_testkit::sync::atomic::{AtomicBool, Ordering};
use cosbt_testkit::sync::{thread, Arc};

/// A `DbReader` thread reading while the writer publishes past
/// `MAX_SNAPSHOT_RUNS` (8) runs — so `snapshot()` compacts inline and
/// publishes the merged epoch. In every interleaving the reader sees no
/// torn or resurrected value (key 0 lives only in the base run, key 2's
/// tombstone is merged away with it), a monotone epoch and value, and
/// one answer per epoch; after the join nothing stays pinned or parked.
#[test]
fn inline_compaction_vs_reader_is_safe() {
    let report = check_opts(ModelOpts::bound(2), || {
        let mut db = DbBuilder::new().build().unwrap();
        db.insert_batch(&[(0, 0), (1, 0), (2, 2)]);
        db.snapshot(); // seed: the base run
        db.delete(2);
        db.snapshot();
        for v in 2..=7u64 {
            db.insert(1, v);
            db.snapshot(); // 8 runs after this loop: at the threshold
        }
        let mut r = db.reader();
        let reader = thread::spawn(move || {
            let mut last: Option<(u64, u64)> = None;
            for _ in 0..2 {
                let snap = r.pin();
                let (e, v) = (snap.epoch(), snap.get(1));
                assert_eq!(snap.get(0), Some(0), "base-run key lost at epoch {e}");
                assert_eq!(snap.get(2), None, "deleted key resurrected at epoch {e}");
                let v = match v {
                    Some(v @ (7 | 8)) => v,
                    other => panic!("torn read at epoch {e}: {other:?}"),
                };
                if let Some((e0, v0)) = last {
                    assert!(e >= e0, "pinned epoch went backwards: {e0} -> {e}");
                    assert!(v >= v0, "value went backwards: {v0} -> {v}");
                    if e == e0 {
                        assert_eq!(v, v0, "same epoch must read the same value");
                    }
                }
                last = Some((e, v));
            }
        });
        db.insert(1, 8);
        let compacted = db.snapshot(); // 9 runs: merges the oldest 5
        assert_eq!(compacted.run_count(), 5, "compaction ran inline");
        drop(compacted);
        reader.join().unwrap();
        let stats = db.snapshot_stats();
        assert_eq!(stats.pinned_epochs, 0, "a pin outlived its reader");
        assert_eq!(stats.retired_pending, 0, "retired runs left parked");
    });
    assert!(
        report.preemption_bound >= 2 && report.schedules > 1,
        "expected a real exploration: {report:?}"
    );
}

/// A `DbReader` reading while the writer publishes a new
/// epoch: every read returns a committed value (never torn), the
/// reader's pinned epoch is monotone, and two reads from the same
/// epoch agree. The reader checks its pin with one atomic load of the
/// newest sequence number, not under the manager's lock: once it has
/// seen the writer's flag, set after `snapshot()` returned, that load
/// must find the new epoch and the read must return the new value.
#[test]
fn reader_refresh_vs_publish_is_safe() {
    let report = check_opts(ModelOpts::bound(2), || {
        let mut db = DbBuilder::new().build().unwrap();
        db.insert(1, 10);
        let mut r = db.reader(); // publishes and pins epoch 1
        let published = Arc::new(AtomicBool::new(false));
        let seen = published.clone();
        let reader = thread::spawn(move || {
            let v1 = r.get(1);
            let e1 = r.epoch();
            let v2 = r.get(1);
            let e2 = r.epoch();
            assert!(v1 == Some(10) || v1 == Some(20), "torn read: {v1:?}");
            assert!(v2 == Some(10) || v2 == Some(20), "torn read: {v2:?}");
            assert!(e2 >= e1, "pinned epoch went backwards: {e1} -> {e2}");
            if e1 == e2 {
                assert_eq!(v1, v2, "same epoch must read the same value");
            }
            // ordering: Acquire pairs with the writer's Release store
            // below, which follows the publish.
            if seen.load(Ordering::Acquire) {
                assert_eq!(r.get(1), Some(20), "a fresh reader missed the publish");
            }
        });
        db.insert(1, 20);
        db.snapshot(); // publish epoch 2

        // ordering: Release, after the publish: a reader that acquires
        // the flag must find epoch 2.
        published.store(true, Ordering::Release);
        reader.join().unwrap();
        // After the join, a fresh reader must observe the newest epoch.
        let mut r2 = db.reader();
        assert_eq!(r2.get(1), Some(20));
    });
    assert!(
        report.preemption_bound >= 2 && report.schedules > 1,
        "expected a real exploration: {report:?}"
    );
}

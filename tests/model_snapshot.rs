//! Model-checked MVCC facade protocols: background single-flight
//! compaction racing a `dict_mut` reseed, and `DbReader` staleness
//! re-pinning racing the writer's publish — explored exhaustively up
//! to the preemption bound via the `cosbt_testkit::model` scheduler.
//!
//! Compiled only under `--cfg cosbt_model` (see `.github/workflows/ci.yml`
//! for the invocation and expected runtimes).
#![cfg(cosbt_model)]

use cosbt::DbBuilder;
use cosbt_testkit::model::{check_opts, ModelOpts};
use cosbt_testkit::sync::atomic::{AtomicBool, Ordering};
use cosbt_testkit::sync::{thread, Arc};

/// A background compaction submitted just before a `dict_mut` reseed:
/// the job's `compact_once` must either finish before the reseed
/// publishes or abort on its suffix `ptr_eq` check — in no
/// interleaving may it resurrect pre-reseed runs or corrupt contents.
#[test]
fn background_compaction_vs_reseed_is_safe() {
    let report = check_opts(ModelOpts::bound(2), || {
        let mut db = DbBuilder::new().background_merge(1).build().unwrap();
        db.insert(0, 0);
        db.snapshot(); // seed: 1 base run
        for k in 1..=8u64 {
            db.insert(k, k);
            db.snapshot(); // 9 runs after this loop: queues a compaction
        }
        // Race the in-flight compaction with a raw write + reseed.
        db.dict_mut().insert(100, 100);
        let reseeded = db.snapshot();
        assert_eq!(reseeded.get(100), Some(100), "reseed saw the raw write");
        db.sync().expect("in-memory sync cannot fail"); // drains the pool
        let fin = db.snapshot();
        for k in 0..=8u64 {
            assert_eq!(fin.get(k), Some(k), "key {k} lost across compact/reseed");
        }
        assert_eq!(fin.get(100), Some(100));
        // MAX_SNAPSHOT_RUNS is 8; one extra pending run may ride along.
        assert!(
            fin.run_count() <= 9,
            "run stack unbounded: {}",
            fin.run_count()
        );
    });
    assert!(
        report.preemption_bound >= 2 && report.schedules > 1,
        "expected a real exploration: {report:?}"
    );
}

/// A `DbReader` (staleness 0) reading while the writer publishes a new
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

//! Model-checked protocol tests for the MVCC core: epoch
//! pin/publish/retire races, explored exhaustively up to the preemption
//! bound by the deterministic scheduler in `cosbt_testkit::model`.
//!
//! Compiled only under `--cfg cosbt_model` (see `.github/workflows/ci.yml`
//! for the invocation and expected runtimes).
#![cfg(cosbt_model)]

use cosbt_core::epoch::Run;
use cosbt_core::EpochManager;
use cosbt_testkit::model::{check_opts, ModelOpts};
use cosbt_testkit::sync::{thread, Arc};

/// A reader pins an epoch while a writer concurrently publishes a
/// replacement run (retiring the one the reader may hold). In every
/// interleaving the pinned reads must be repeatable, the value must be
/// one of the two committed states (never torn), and once the pin is
/// gone every retired run must be reclaimed.
#[test]
fn epoch_pin_publish_retire_is_safe() {
    let report = check_opts(ModelOpts::bound(2), || {
        let mgr = EpochManager::new();
        let run_a = Run::from_ops(vec![(1, Some(10))]);
        // The manager takes the only handle to `run_a`: a run's last
        // `Arc` frees it, so one kept here would hold it past every pin.
        mgr.publish_with(|cur| (vec![run_a], cur.store_epochs_arc()));
        let mgr2 = Arc::clone(&mgr);
        let reader = thread::spawn(move || {
            let pin = mgr2.pin();
            let first = pin.get(1);
            let second = pin.get(1);
            assert_eq!(first, second, "repeatable read under pin");
            assert!(
                first == Some(10) || first == Some(20),
                "torn value observed: {first:?}"
            );
        });
        // Replace the stack wholesale: retires `run_a`; the reader's pin
        // (if it raced ahead) holds it.
        let run_b = Run::from_ops(vec![(1, Some(20))]);
        mgr.publish_with(|cur| (vec![run_b.clone()], cur.store_epochs_arc()));
        reader.join().unwrap();
        // The reader's pin is gone, and with it the last handle to
        // `run_a`: nothing may remain held.
        let s = mgr.stats();
        assert_eq!(s.pinned_epochs, 0);
        assert_eq!(s.retired_pending, 0, "retired runs reclaimed once unpinned");
        assert_eq!(s.reclaimed_runs, s.retired_runs);
        assert_eq!(mgr.current().get(1), Some(20));
    });
    assert!(
        report.preemption_bound >= 2 && report.schedules > 1,
        "expected a real exploration: {report:?}"
    );
}

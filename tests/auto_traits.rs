//! Compile-time assertions that the concurrency-facing types implement
//! the auto traits the snapshot subsystem's contract promises. A
//! regression here (say, a non-`Sync` field slipping into `Db`) fails
//! this crate's *build*, not a runtime test.

use cosbt::cola::{EpochManager, PinnedEpoch};
use cosbt::{Db, DbReader, DbSnapshot, IoHandle, SnapshotCursor};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}
fn assert_send_sync<T: Send + Sync>() {}
fn assert_clone<T: Clone>() {}
fn assert_static<T: 'static>() {}

#[test]
fn db_is_send_and_sync() {
    // `Send` lets a Db move to a writer thread; `Sync` lets `&Db`
    // methods (io, snapshot_stats, drop_cache) be called from
    // anywhere. All mutation goes through `&mut self`, so `Sync` adds
    // no data-race surface.
    assert_send::<Db>();
    assert_sync::<Db>();
}

#[test]
fn snapshot_handles_are_shareable() {
    // The whole point of a snapshot: clone it across reader threads.
    assert_send_sync::<DbSnapshot>();
    assert_clone::<DbSnapshot>();
    assert_static::<DbSnapshot>();
    // Cursors own a pin, so they may also cross threads (though each
    // cursor is used by one thread at a time via &mut).
    assert_send_sync::<SnapshotCursor>();
    assert_static::<SnapshotCursor>();
    // A reader moves to its client thread and lives for the thread's
    // lifetime; refresh happens through `&mut self`, so `Sync` is not
    // required (and not promised).
    assert_send::<DbReader>();
    assert_static::<DbReader>();
}

#[test]
fn probe_and_internals_are_shareable() {
    // IoHandle must be usable from a monitoring thread while a writer
    // thread owns the Db.
    assert_send_sync::<IoHandle>();
    assert_clone::<IoHandle>();
    // Subsystem internals that cross thread boundaries by design.
    assert_send_sync::<EpochManager>();
    assert_send_sync::<PinnedEpoch>();
}

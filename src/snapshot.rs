//! MVCC snapshots of a [`Db`](crate::Db): lock-free readers over pinned
//! epochs, one writer that also compacts.
//!
//! [`Db::snapshot`](crate::Db::snapshot) publishes the database's current
//! logical contents as an immutable epoch — a newest-first stack of
//! sorted runs managed by [`cosbt_core::EpochManager`] — and returns a
//! [`DbSnapshot`] pinning it. Snapshots are `Send + Sync + Clone` and
//! `'static`: any number of reader threads can run gets, ranges, and
//! bidirectional cursors against their pinned epochs while the single
//! writer keeps mutating the underlying structures and publishing newer
//! epochs. Reads never touch the writer's structures, caches, or locks:
//! a point read hashes its key once and tests each run's split-block
//! filter (one 32-byte block) before binary-searching only the runs the
//! filter passes, and a [`DbReader`] learns whether its pin is stale
//! from one atomic load. A lock is taken only to pin an epoch: a
//! reader's refresh, a cursor, a snapshot clone.
//!
//! The overlay is **lazy**: until the first `snapshot()` call a `Db`
//! carries no mirror and its single-threaded behaviour (including
//! block-transfer counts) is bit-for-bit unchanged. The first call seeds
//! a base run with a full scan; afterwards every write through the `Db`
//! facade is also appended to a pending delta, and each `snapshot()`
//! publishes the delta as a new run. When the run stack grows past 8
//! runs, the same `snapshot()` call merges its oldest half into one run
//! on the writer's thread before it returns.
//! Readers never wait for that merge: they keep reading the epochs they
//! pinned, and the compacted epoch is one more publish.

use cosbt_testkit::sync::Arc;

use cosbt_core::epoch::{merge_runs, Run};
use cosbt_core::{BatchOp, CursorOps, EpochManager, PinnedEpoch};

/// Compact when an epoch's run stack exceeds this many runs. Small
/// enough to keep point reads cheap (one filter block per run, a binary
/// search where it passes), large enough that compaction is batched
/// COLA-style work, not per-publish.
pub(crate) const MAX_SNAPSHOT_RUNS: usize = 8;

/// Per-`Db` MVCC state: the epoch manager and the mirror of writes not
/// yet published.
pub(crate) struct MvccState {
    pub(crate) mgr: Arc<EpochManager>,
    /// Writes since the last published epoch, in arrival order. Only
    /// mirrored while `active`.
    pending: Vec<BatchOp>,
    /// Whether the overlay has been seeded and is mirroring writes.
    active: bool,
}

impl MvccState {
    pub(crate) fn new() -> MvccState {
        MvccState {
            mgr: EpochManager::new(),
            pending: Vec::new(),
            active: false,
        }
    }

    /// Mirrors one write (no-op until the overlay is active).
    #[inline]
    pub(crate) fn record(&mut self, key: u64, op: Option<u64>) {
        if self.active {
            self.pending.push((key, op));
        }
    }

    /// Mirrors a batch of writes in arrival order.
    #[inline]
    pub(crate) fn record_ops(&mut self, ops: &[BatchOp]) {
        if self.active {
            self.pending.extend_from_slice(ops);
        }
    }

    /// Mirrors a sorted insert run.
    #[inline]
    pub(crate) fn record_inserts(&mut self, sorted: &[(u64, u64)]) {
        if self.active {
            self.pending
                .extend(sorted.iter().map(|&(k, v)| (k, Some(v))));
        }
    }

    /// Whether the next snapshot must seed the overlay with a full scan.
    pub(crate) fn needs_seed(&self) -> bool {
        !self.active
    }

    /// Publishes `base` (the full logical contents) as a fresh
    /// single-run epoch and arms the mirror.
    pub(crate) fn seed(&mut self, base: Vec<(u64, u64)>, store_epochs: Arc<[u64]>) {
        self.active = true;
        let run = Run::from_sorted(base.into_iter().map(|(k, v)| (k, Some(v))).collect());
        self.mgr.publish_with(|_| (vec![run], store_epochs));
    }

    /// Publishes the pending delta (if any) as a new run on top of the
    /// current epoch.
    pub(crate) fn publish_pending(&mut self, store_epochs: Arc<[u64]>) {
        if self.pending.is_empty() {
            return;
        }
        let run = Run::from_ops(std::mem::take(&mut self.pending));
        self.mgr.publish_with(|cur| {
            let mut runs = Vec::with_capacity(cur.runs().len() + 1);
            runs.push(run);
            runs.extend_from_slice(cur.runs());
            (runs, store_epochs)
        });
    }

    /// Compacts the run stack if it outgrew `MAX_SNAPSHOT_RUNS`:
    /// merges the oldest half of the current epoch's runs (which always
    /// includes the base run, so tombstones can be dropped) into one run
    /// and publishes it under the newest half. Only the writer publishes,
    /// and it is here, so the stack it merged is the stack it replaces.
    pub(crate) fn maybe_compact(&self) {
        let cur = self.mgr.current();
        let n = cur.runs().len();
        if n <= MAX_SNAPSHOT_RUNS {
            return;
        }
        let keep = n / 2;
        let mut runs = cur.runs()[..keep].to_vec();
        runs.push(merge_runs(&cur.runs()[keep..], true));
        self.mgr.publish_with(|_| (runs, cur.store_epochs_arc()));
    }
}

/// A read-only, point-in-time view of a [`Db`](crate::Db), pinned to
/// one published epoch.
///
/// Obtained from [`Db::snapshot`](crate::Db::snapshot). `Clone` is
/// cheap (re-pins the same epoch); the handle is `Send + Sync` and
/// `'static`, so it can be handed to any number of reader threads.
/// Reads are lock-free — one filter block per immutable `Arc`-shared
/// run, and a binary search of the runs it passes — and are never
/// affected by later writes, merges, or syncs on the originating
/// database. While any clone (or cursor) is alive, the
/// epoch's runs are retained and the backing stores will not recycle
/// pages its committed store epochs reference.
///
/// ```
/// use cosbt::DbBuilder;
///
/// let mut db = DbBuilder::new().build().unwrap();
/// db.insert(1, 10);
/// let snap = db.snapshot();
/// db.insert(1, 99); // later write, invisible to `snap`
/// db.delete(1);
/// assert_eq!(snap.get(1), Some(10));
/// assert_eq!(db.get(1), None);
/// ```
#[derive(Clone)]
pub struct DbSnapshot {
    pinned: PinnedEpoch,
}

impl std::fmt::Debug for DbSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbSnapshot")
            .field("epoch", &self.pinned.seq())
            .field("runs", &self.pinned.runs().len())
            .finish()
    }
}

impl DbSnapshot {
    pub(crate) fn new(pinned: PinnedEpoch) -> DbSnapshot {
        DbSnapshot { pinned }
    }

    /// The pinned epoch's sequence number (monotone per database).
    pub fn epoch(&self) -> u64 {
        self.pinned.seq()
    }

    /// Per-shard committed store epochs this snapshot corresponds to
    /// (the cross-shard epoch vector; empty for memory backends).
    pub fn store_epochs(&self) -> &[u64] {
        self.pinned.store_epochs()
    }

    /// Number of runs in the pinned epoch (diagnostics; bounded by
    /// compaction).
    pub fn run_count(&self) -> usize {
        self.pinned.runs().len()
    }

    /// Looks up `key` in the pinned epoch. Lock-free.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.pinned.get(key)
    }

    /// All live entries with `lo <= key <= hi` in the pinned epoch.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut cur = self.cursor(lo, hi);
        let mut out = Vec::new();
        while let Some(e) = cur.next() {
            out.push(e);
        }
        out
    }

    /// A bidirectional streaming cursor over live entries in
    /// `[lo, hi]`, with the same gap semantics as
    /// [`Dictionary::cursor`](cosbt_core::Dictionary::cursor). The
    /// cursor owns a pin on the epoch, so it may outlive the snapshot
    /// handle it came from.
    pub fn cursor(&self, lo: u64, hi: u64) -> SnapshotCursor {
        SnapshotCursor::new(self.pinned.clone(), lo, hi)
    }
}

/// A concurrent read handle over a [`Db`](crate::Db): a
/// [`DbSnapshot`] that re-pins the newest *published* epoch whenever
/// the writer has published past its own view.
///
/// Obtained from [`Db::reader`](crate::Db::reader); this is the
/// documented read path for "many readers, one writer" deployments.
/// Reads are lock-free and never block the writer; the handle is
/// [`Send`], so each reader thread owns one. The read methods take
/// `&mut self` only to check whether the view is stale — one atomic load
/// of the newest published sequence number; a lock is taken only when
/// it is, to re-pin. They never mutate the database.
///
/// Freshness is bounded by publication: a reader observes writes only
/// once the writer publishes them with
/// [`Db::snapshot`](crate::Db::snapshot) (or another
/// [`Db::reader`](crate::Db::reader) call), and then its next read sees
/// the newest published epoch.
///
/// ```
/// use cosbt::DbBuilder;
///
/// let mut db = DbBuilder::new().build().unwrap();
/// db.insert(1, 10);
/// let mut reader = db.reader();
/// assert_eq!(reader.get(1), Some(10));
/// db.insert(1, 20);
/// db.snapshot(); // publish
/// assert_eq!(reader.get(1), Some(20), "auto-refreshed");
/// ```
pub struct DbReader {
    mgr: Arc<EpochManager>,
    local: DbSnapshot,
}

impl std::fmt::Debug for DbReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbReader")
            .field("epoch", &self.local.epoch())
            .finish()
    }
}

impl DbReader {
    pub(crate) fn new(mgr: Arc<EpochManager>, local: DbSnapshot) -> DbReader {
        DbReader { mgr, local }
    }

    /// The epoch of the currently pinned view.
    pub fn epoch(&self) -> u64 {
        self.local.epoch()
    }

    /// Unconditionally re-pins the newest published epoch.
    pub fn refresh(&mut self) {
        self.local = DbSnapshot::new(self.mgr.pin());
    }

    /// Re-pins if a newer epoch has been published. The check is one
    /// atomic load; only a re-pin takes the lock.
    #[inline]
    fn maybe_refresh(&mut self) {
        if self.mgr.newest_seq() > self.local.epoch() {
            self.refresh();
        }
    }

    /// Looks up `key` in the (refreshed-if-stale) pinned view.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.maybe_refresh();
        self.local.get(key)
    }

    /// All live entries with `lo <= key <= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.maybe_refresh();
        self.local.range(lo, hi)
    }

    /// A bidirectional cursor over `[lo, hi]` of the current view. The
    /// cursor pins its epoch independently, so it stays consistent even
    /// if the reader refreshes afterwards.
    pub fn cursor(&mut self, lo: u64, hi: u64) -> SnapshotCursor {
        self.maybe_refresh();
        self.local.cursor(lo, hi)
    }

    /// A pinned [`DbSnapshot`] of the current view, for code that wants
    /// explicit (non-refreshing) snapshot semantics.
    pub fn pin(&mut self) -> DbSnapshot {
        self.maybe_refresh();
        self.local.clone()
    }
}

/// One run restricted to the cursor's key window.
struct RunWindow {
    run: Run,
    /// First entry index inside the window.
    lo: usize,
    /// One past the last entry index inside the window.
    hi: usize,
    /// Gap position in `[lo, hi]`.
    pos: usize,
}

impl RunWindow {
    fn at(&self, i: usize) -> BatchOp {
        self.run.entries()[i]
    }
}

/// A bidirectional cursor over a pinned epoch (see
/// [`DbSnapshot::cursor`]): a k-way walk of the epoch's runs, newest
/// run winning on key ties, tombstones skipped. Owns its pin, so the
/// epoch stays alive for the cursor's lifetime; implements
/// [`CursorOps`] with the dictionary-wide gap semantics (`next` then
/// `prev` revisits the same entry).
pub struct SnapshotCursor {
    /// Newest-first, like the epoch's run stack.
    windows: Vec<RunWindow>,
    _pin: PinnedEpoch,
}

impl std::fmt::Debug for SnapshotCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCursor")
            .field("runs", &self.windows.len())
            .finish()
    }
}

impl SnapshotCursor {
    fn new(pin: PinnedEpoch, lo: u64, hi: u64) -> SnapshotCursor {
        let windows = pin
            .runs()
            .iter()
            .map(|run| {
                let entries = run.entries();
                let start = entries.partition_point(|&(k, _)| k < lo);
                let end = if lo > hi {
                    start
                } else {
                    entries.partition_point(|&(k, _)| k <= hi)
                };
                RunWindow {
                    run: run.clone(),
                    lo: start,
                    hi: end.max(start),
                    pos: start,
                }
            })
            .collect();
        SnapshotCursor { windows, _pin: pin }
    }
}

impl CursorOps for SnapshotCursor {
    fn seek(&mut self, key: u64) {
        for w in &mut self.windows {
            let entries = w.run.entries();
            let p = entries[w.lo..w.hi].partition_point(|&(k, _)| k < key);
            w.pos = w.lo + p;
        }
    }

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            // Smallest key just after the gap; on ties the newest run
            // (lowest index) wins.
            let mut best: Option<(u64, usize)> = None;
            for (i, w) in self.windows.iter().enumerate() {
                if w.pos < w.hi {
                    let k = w.at(w.pos).0;
                    if best.is_none_or(|(bk, _)| k < bk) {
                        best = Some((k, i));
                    }
                }
            }
            let (key, winner) = best?;
            let op = {
                let w = &self.windows[winner];
                w.at(w.pos).1
            };
            // Move the gap past `key` in every run.
            for w in &mut self.windows {
                if w.pos < w.hi && w.at(w.pos).0 == key {
                    w.pos += 1;
                }
            }
            if let Some(v) = op {
                return Some((key, v));
            }
            // Tombstone: the key is dead at this epoch; keep walking.
        }
    }

    fn prev(&mut self) -> Option<(u64, u64)> {
        loop {
            // Largest key just before the gap; ties → newest run wins.
            let mut best: Option<(u64, usize)> = None;
            for (i, w) in self.windows.iter().enumerate() {
                if w.pos > w.lo {
                    let k = w.at(w.pos - 1).0;
                    if best.is_none_or(|(bk, _)| k > bk) {
                        best = Some((k, i));
                    }
                }
            }
            let (key, winner) = best?;
            let op = {
                let w = &self.windows[winner];
                w.at(w.pos - 1).1
            };
            for w in &mut self.windows {
                if w.pos > w.lo && w.at(w.pos - 1).0 == key {
                    w.pos -= 1;
                }
            }
            if let Some(v) = op {
                return Some((key, v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DbBuilder;

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut db = DbBuilder::new().build().unwrap();
        for k in 0..100u64 {
            db.insert(k, k * 10);
        }
        let snap = db.snapshot();
        for k in 0..100u64 {
            db.insert(k, 1);
        }
        db.delete(5);
        let snap2 = db.snapshot();
        for k in 0..100u64 {
            assert_eq!(snap.get(k), Some(k * 10));
        }
        assert_eq!(snap2.get(5), None);
        assert_eq!(snap2.get(6), Some(1));
        assert!(snap2.epoch() > snap.epoch());
    }

    #[test]
    fn snapshot_cursor_merges_runs_with_gap_semantics() {
        let mut db = DbBuilder::new().build().unwrap();
        db.insert_batch(&[(10, 1), (20, 2), (30, 3), (40, 4)]);
        let _e1 = db.snapshot(); // base epoch
        db.insert(20, 22); // shadowed in a newer run
        db.delete(30); // tombstone in a newer run
        db.insert(35, 5);
        let snap = db.snapshot();
        assert_eq!(
            snap.range(0, u64::MAX),
            vec![(10, 1), (20, 22), (35, 5), (40, 4)]
        );
        let mut cur = snap.cursor(15, 40);
        assert_eq!(cur.next(), Some((20, 22)));
        assert_eq!(cur.prev(), Some((20, 22)), "next then prev revisits");
        assert_eq!(cur.prev(), None);
        cur.seek(30);
        assert_eq!(cur.next(), Some((35, 5)), "tombstoned 30 is skipped");
        assert_eq!(cur.next(), Some((40, 4)));
        assert_eq!(cur.next(), None);
        assert_eq!(cur.prev(), Some((40, 4)));
    }

    #[test]
    fn compaction_bounds_run_count_and_preserves_contents() {
        let mut db = DbBuilder::new().build().unwrap();
        let mut last = None;
        for round in 0..40u64 {
            db.insert(round, round);
            db.delete(round / 2 + 1000); // tombstones for absent keys too
            last = Some(db.snapshot());
        }
        let snap = last.unwrap();
        assert!(
            snap.run_count() <= MAX_SNAPSHOT_RUNS,
            "compaction keeps the stack bounded (got {})",
            snap.run_count()
        );
        let expect: Vec<(u64, u64)> = (0..40).map(|k| (k, k)).collect();
        assert_eq!(snap.range(0, 999), expect);
    }

    #[test]
    fn reader_auto_refreshes_on_publish() {
        let mut db = DbBuilder::new().build().unwrap();
        db.insert(1, 10);
        let mut r = db.reader();
        assert_eq!(r.get(1), Some(10));
        let e0 = r.epoch();
        // Unpublished writes stay invisible.
        db.insert(1, 20);
        assert_eq!(r.get(1), Some(10), "publication bounds freshness");
        db.snapshot();
        assert_eq!(r.get(1), Some(20), "refreshes past published epochs");
        assert!(r.epoch() > e0);
    }

    #[test]
    fn reader_is_send_and_cursor_outlives_refresh() {
        fn assert_send<T: Send>() {}
        assert_send::<DbReader>();
        let mut db = DbBuilder::new().build().unwrap();
        db.insert_batch(&[(1, 1), (2, 2), (3, 3)]);
        let mut r = db.reader();
        let mut cur = r.cursor(0, u64::MAX);
        db.delete(2);
        db.snapshot();
        assert_eq!(r.get(2), None, "reader sees the delete");
        // The cursor pinned the older epoch and is unaffected.
        assert_eq!(cur.next(), Some((1, 1)));
        assert_eq!(cur.next(), Some((2, 2)));
        assert_eq!(cur.next(), Some((3, 3)));
    }

    #[test]
    fn empty_db_snapshot_works() {
        let mut db = DbBuilder::new().build().unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.get(7), None);
        assert_eq!(snap.range(0, u64::MAX), Vec::new());
        assert_eq!(snap.cursor(0, u64::MAX).next(), None);
    }
}

//! Epoch/snapshot manager: pinned committed versions over shared,
//! reference-counted runs.
//!
//! This is the MVCC core of the concurrency subsystem. The mutable
//! write-optimized structures stay single-writer (their caches mutate on
//! reads), and *readers never touch them*: every committed version of
//! the database is represented as an [`EpochVersion`] — an immutable,
//! newest-first stack of sorted [`Run`]s, exactly a COLA level structure
//! lifted onto the heap and shared via `Arc`. The one writer publishes
//! every next version, compactions included, atomically
//! ([`EpochManager::publish_with`]); readers
//! [`pin`](EpochManager::pin) a version and query it lock-free: a key is
//! hashed once, each run's split-block filter costs one 32-byte block,
//! and only a run the filter passes is binary-searched. Whether a pin is
//! stale is one atomic load ([`EpochManager::newest_seq`]), so a reader
//! whose pin is fresh takes no lock and moves no reference count.
//!
//! A stack is read the COLA's way, by one walk: of the entries next to
//! the gap, the first in the walk's direction wins, and of equal keys
//! the newest run's. [`SnapshotCursor`] steps the walk either way,
//! skipping tombstones; compaction ([`merge_runs`]) drains it forward and
//! copies at once the entries of a run that lie below every other run's
//! head.
//!
//! Reclamation is by reference count, as in Twigg et al.'s persistent
//! streaming indexes, where a superseded run is freed once no pinned
//! version references it: that is when its last `Arc` goes. A publish
//! keeps weak handles to the runs it drops only to count them
//! ([`EpochStats`]). The pin table serves the backing stores: projected
//! per shard onto their committed *store* epochs, it gates physical page
//! recycling in the shadow-paged file layer (see
//! [`EpochManager::shard_gate`]).

use cosbt_testkit::sync::atomic::{AtomicU64, Ordering};
use cosbt_testkit::sync::{Arc, Mutex, MutexGuard};
use std::collections::BTreeMap;
// The shim's `Arc` is the std type in every configuration.
use std::sync::Weak;

use crate::cascade::{LevelFilter, Probe};
use crate::dict::{normalize, BatchOp, CursorOps};

/// An immutable sorted run of update operations: strictly increasing
/// keys, each mapped to `Some(value)` (upsert) or `None` (tombstone),
/// with the split-block [`LevelFilter`] a COLA level carries, built over
/// every key (tombstones included), so a lookup rules the run out in one
/// 32-byte block before any binary search. Cheap to clone (one
/// `Arc`); the shared unit of an [`EpochVersion`].
#[derive(Clone)]
pub struct Run {
    inner: Arc<RunInner>,
}

struct RunInner {
    filter: LevelFilter,
    entries: Box<[BatchOp]>,
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run").field("len", &self.len()).finish()
    }
}

impl Run {
    /// Wraps entries already sorted by strictly increasing key and
    /// builds their filter.
    pub fn from_sorted(entries: Vec<BatchOp>) -> Run {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let mut filter = LevelFilter::with_capacity(entries.len());
        for &(k, _) in &entries {
            filter.insert(k);
        }
        Run::with_filter(entries, filter)
    }

    /// Wraps sorted entries and a filter already built over their keys.
    fn with_filter(entries: Vec<BatchOp>, filter: LevelFilter) -> Run {
        Run {
            inner: Arc::new(RunInner {
                filter,
                entries: entries.into_boxed_slice(),
            }),
        }
    }

    /// Builds a run from arrival-ordered operations, normalized as
    /// [`UpdateBatch::normalized`](crate::UpdateBatch::normalized) does:
    /// sorted by key, the last operation per key kept (tombstones
    /// included).
    pub fn from_ops(ops: Vec<BatchOp>) -> Run {
        Run::from_sorted(normalize(ops))
    }

    /// The operation recorded for `key`, if any: `Some(Some(v))` =
    /// upsert, `Some(None)` = tombstone, `None` = key not in this run.
    pub fn get(&self, key: u64) -> Option<Option<u64>> {
        self.find(&Probe::new(key))
    }

    /// [`Run::get`] for a key already hashed: the filter's one block,
    /// then, unless it rules the key out, a binary search.
    #[inline]
    pub(crate) fn find(&self, probe: &Probe) -> Option<Option<u64>> {
        if !self.inner.filter.contains(probe) {
            return None;
        }
        let entries = self.entries();
        entries
            .binary_search_by_key(&probe.key(), |&(k, _)| k)
            .ok()
            .map(|i| entries[i].1)
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[BatchOp] {
        &self.inner.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.entries.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.entries.is_empty()
    }

    /// Identity comparison: do two handles share the same backing
    /// allocation? Used by a publish to find the runs it supersedes.
    pub fn ptr_eq(&self, other: &Run) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// One run's entries inside a key window, and the walk's gap in them.
struct Window {
    run: Run,
    /// First entry index inside the window.
    lo: usize,
    /// One past the last entry index inside the window.
    hi: usize,
    /// Gap position in `lo..=hi`.
    pos: usize,
}

impl Window {
    /// The entry just past the gap, forward or backward, if any.
    #[inline]
    fn head(&self, forward: bool) -> Option<BatchOp> {
        let i = match forward {
            true if self.pos < self.hi => self.pos,
            false if self.pos > self.lo => self.pos - 1,
            _ => return None,
        };
        Some(self.run.entries()[i])
    }
}

/// The newest-wins walk over a newest-first stack of run windows.
struct RunWalk {
    windows: Vec<Window>,
}

impl RunWalk {
    /// A walk over the entries of `runs` with `lo <= key <= hi`, its
    /// gap before the first.
    fn new(runs: &[Run], lo: u64, hi: u64) -> RunWalk {
        let windows = (runs.iter())
            .map(|run| {
                let entries = run.entries();
                let start = entries.partition_point(|&(k, _)| k < lo);
                let end = entries.partition_point(|&(k, _)| k <= hi).max(start);
                Window {
                    run: run.clone(),
                    lo: start,
                    hi: end,
                    pos: start,
                }
            })
            .collect();
        RunWalk { windows }
    }

    /// Places the gap before the first key ≥ `key` (clamped into the
    /// window).
    fn seek(&mut self, key: u64) {
        for w in &mut self.windows {
            w.pos = w.lo + w.run.entries()[w.lo..w.hi].partition_point(|&(k, _)| k < key);
        }
    }

    /// Moves the gap past the winning entry — of the entries next to it,
    /// the first in the walk's direction, and of equal keys the newest
    /// run's — and past every older version of its key. Returns the
    /// winning window and its entry, tombstones included.
    fn step(&mut self, forward: bool) -> Option<(usize, BatchOp)> {
        let mut best: Option<(usize, BatchOp)> = None;
        for (i, w) in self.windows.iter().enumerate() {
            if let Some(e) = w.head(forward) {
                let first = |b: BatchOp| if forward { e.0 < b.0 } else { e.0 > b.0 };
                if best.is_none_or(|(_, b)| first(b)) {
                    best = Some((i, e));
                }
            }
        }
        let (_, (key, _)) = best?;
        for w in &mut self.windows {
            if w.head(forward).is_some_and(|(k, _)| k == key) {
                w.pos = if forward { w.pos + 1 } else { w.pos - 1 };
            }
        }
        best
    }

    /// [`RunWalk::step`] forward, with the winning run's further entries
    /// that lie below every other window's head: one stretch of one
    /// run, in key order.
    fn next_stretch(&mut self) -> Option<&[BatchOp]> {
        let (w, _) = self.step(true)?;
        let bound = (self.windows.iter().enumerate())
            .filter(|&(i, _)| i != w)
            .filter_map(|(_, other)| Some(other.head(true)?.0))
            .min();
        let win = &mut self.windows[w];
        let start = win.pos - 1;
        let rest = &win.run.entries()[win.pos..win.hi];
        win.pos += bound.map_or(rest.len(), |b| rest.partition_point(|&(k, _)| k < b));
        Some(&win.run.entries()[start..win.pos])
    }
}

/// Merges a newest-first stack of runs into one run, newer entries
/// shadowing older ones. With `drop_tombstones`, deletions are removed
/// from the result — only valid when the stack's oldest run is the
/// logical base (nothing older exists for a tombstone to shadow).
///
/// The run walk drained forward a stretch at a time, so a large base is
/// copied in slices and never compared entry by entry with the deltas.
/// The filter is built as the entries stream out, sized for the inputs'
/// total.
pub fn merge_runs(newest_first: &[Run], drop_tombstones: bool) -> Run {
    let total = newest_first.iter().map(Run::len).sum();
    let mut out: Vec<BatchOp> = Vec::with_capacity(total);
    let mut filter = LevelFilter::with_capacity(total);
    let mut walk = RunWalk::new(newest_first, 0, u64::MAX);
    while let Some(stretch) = walk.next_stretch() {
        for &(k, op) in stretch {
            if op.is_some() || !drop_tombstones {
                out.push((k, op));
                filter.insert(k);
            }
        }
    }
    Run::with_filter(out, filter)
}

/// One committed, immutable version of the database: a monotone
/// sequence number, the newest-first run stack, and the per-shard
/// committed *store* epochs it corresponds to (the cross-shard epoch
/// vector; empty for in-memory backends).
#[derive(Clone, Debug)]
pub struct EpochVersion {
    seq: u64,
    runs: Vec<Run>,
    store_epochs: Arc<[u64]>,
}

impl EpochVersion {
    /// The version's sequence number (0 = the empty initial version).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The newest-first run stack.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Per-shard committed store epochs at publish time.
    pub fn store_epochs(&self) -> &[u64] {
        &self.store_epochs
    }

    /// Shared handle to the store-epoch vector.
    pub fn store_epochs_arc(&self) -> Arc<[u64]> {
        self.store_epochs.clone()
    }

    /// Point lookup: newest run containing the key wins; a tombstone
    /// reads as absent. The key is hashed once; each run then costs one
    /// filter block, and a binary search only where the filter passes.
    pub fn get(&self, key: u64) -> Option<u64> {
        let probe = Probe::new(key);
        self.runs.iter().find_map(|run| run.find(&probe))?
    }

    /// Total physical entries across runs (≥ live keys; superseded
    /// entries and tombstones count until compaction).
    pub fn physical_entries(&self) -> usize {
        self.runs.iter().map(Run::len).sum()
    }
}

/// Per-pinned-epoch bookkeeping.
struct PinSlot {
    count: usize,
    store_epochs: Arc<[u64]>,
}

struct State {
    current: Arc<EpochVersion>,
    pins: BTreeMap<u64, PinSlot>,
    /// Runs dropped by a publish that were still alive at the last one.
    /// Their last `Arc` frees them; these handles only count them.
    dropped: Vec<Weak<RunInner>>,
    published: u64,
    retired_total: u64,
}

/// A point-in-time reading of the manager's counters, for tests and
/// diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Versions published so far (including compactions).
    pub published: u64,
    /// Runs ever retired by a publish.
    pub retired_runs: u64,
    /// Retired runs freed: their last `Arc` is gone.
    pub reclaimed_runs: u64,
    /// Distinct epochs currently pinned by at least one reader.
    pub pinned_epochs: usize,
    /// Retired runs still held by a pinned version, a cursor or another
    /// handle.
    pub retired_pending: usize,
}

/// The epoch/snapshot manager (used through `Arc<EpochManager>`).
///
/// One short critical section guards version publication and pinning;
/// reads against a pinned version never take it, nor does asking for
/// the newest sequence number ([`EpochManager::newest_seq`]).
pub struct EpochManager {
    state: Mutex<State>,
    /// The current version's sequence number, stored by `publish_with`
    /// under the lock so a reader can check its pin without taking it.
    newest: AtomicU64,
}

impl std::fmt::Debug for EpochManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("EpochManager")
            .field("published", &s.published)
            .field("pinned_epochs", &s.pinned_epochs)
            .field("retired_pending", &s.retired_pending)
            .finish()
    }
}

impl EpochManager {
    /// A manager holding the empty initial version (seq 0, no runs).
    pub fn new() -> Arc<EpochManager> {
        Arc::new(EpochManager {
            state: Mutex::new(State {
                current: Arc::new(EpochVersion {
                    seq: 0,
                    runs: Vec::new(),
                    store_epochs: Arc::from([]),
                }),
                pins: BTreeMap::new(),
                dropped: Vec::new(),
                published: 0,
                retired_total: 0,
            }),
            newest: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("epoch manager mutex poisoned")
    }

    /// The current (newest committed) version.
    pub fn current(&self) -> Arc<EpochVersion> {
        self.lock().current.clone()
    }

    /// The current version's sequence number, without the lock and
    /// without touching the version's reference count: what a reader
    /// compares with its pin to decide whether to re-pin.
    #[inline]
    pub fn newest_seq(&self) -> u64 {
        // ordering: Acquire pairs with the Release store in
        // `publish_with`: a reader that sees seq n and re-pins finds
        // version n (or newer) behind the lock.
        self.newest.load(Ordering::Acquire)
    }

    /// Pins the current version and returns a guard; the version's runs
    /// (and, via the shard gates, its store pages) outlive every pin.
    pub fn pin(self: &Arc<Self>) -> PinnedEpoch {
        let mut st = self.lock();
        let version = st.current.clone();
        let slot = st.pins.entry(version.seq).or_insert_with(|| PinSlot {
            count: 0,
            store_epochs: version.store_epochs_arc(),
        });
        slot.count += 1;
        drop(st);
        PinnedEpoch {
            mgr: self.clone(),
            version,
        }
    }

    /// Publishes the next version. The closure runs under the manager's
    /// lock with the current version and returns the new run stack plus
    /// its store-epoch vector; the publish cannot be refused. Runs
    /// present in the old version but absent from the new one are
    /// retired: each is freed as soon as no pinned version, cursor or
    /// other handle holds it.
    pub fn publish_with<F>(&self, f: F) -> Arc<EpochVersion>
    where
        F: FnOnce(&EpochVersion) -> (Vec<Run>, Arc<[u64]>),
    {
        let mut st = self.lock();
        let cur = st.current.clone();
        let (runs, store_epochs) = f(&cur);
        let new = Arc::new(EpochVersion {
            seq: cur.seq + 1,
            runs,
            store_epochs,
        });
        st.dropped.retain(|run| run.strong_count() > 0);
        let dropped = cur
            .runs
            .iter()
            .filter(|r| !new.runs.iter().any(|n| n.ptr_eq(r)));
        for run in dropped {
            st.dropped.push(Arc::downgrade(&run.inner));
            st.retired_total += 1;
        }
        st.current = new.clone();
        // ordering: Release, under the lock, pairs with the Acquire load
        // in `newest_seq`; a thread that learns of this publish through
        // its own synchronisation (a join, a flag) then reads seq ≥ it.
        self.newest.store(new.seq, Ordering::Release);
        st.published += 1;
        new
    }

    fn unpin(&self, seq: u64) {
        let mut st = self.lock();
        let slot = st.pins.get_mut(&seq).expect("unpin of unpinned epoch");
        slot.count -= 1;
        if slot.count == 0 {
            st.pins.remove(&seq);
        }
    }

    fn repin(&self, seq: u64) {
        let mut st = self.lock();
        st.pins
            .get_mut(&seq)
            .expect("repin of unpinned epoch")
            .count += 1;
    }

    /// The lowest committed *store* epoch of shard `shard` referenced
    /// by any pin, or `u64::MAX` when nothing constrains reclamation —
    /// the horizon behind [`EpochManager::shard_gate`].
    pub fn min_pinned_store_epoch(&self, shard: usize) -> u64 {
        let st = self.lock();
        st.pins
            .values()
            .filter_map(|p| p.store_epochs.get(shard).copied())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// A [`ReclaimGate`](cosbt_dam::ReclaimGate) projecting the pin set
    /// onto shard `shard`'s store epochs, for installation on that
    /// shard's backing store: pages superseded at a store epoch some
    /// pin still references are not recycled.
    pub fn shard_gate(self: &Arc<Self>, shard: usize) -> Arc<dyn cosbt_dam::ReclaimGate> {
        Arc::new(ShardGate {
            mgr: self.clone(),
            shard,
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EpochStats {
        let st = self.lock();
        let pending = st.dropped.iter().filter(|r| r.strong_count() > 0).count();
        EpochStats {
            published: st.published,
            retired_runs: st.retired_total,
            reclaimed_runs: st.retired_total - pending as u64,
            pinned_epochs: st.pins.len(),
            retired_pending: pending,
        }
    }
}

/// Projects an [`EpochManager`]'s pin set onto one shard's committed
/// store epochs (see [`EpochManager::shard_gate`]).
struct ShardGate {
    mgr: Arc<EpochManager>,
    shard: usize,
}

impl cosbt_dam::ReclaimGate for ShardGate {
    fn reclaim_horizon(&self) -> u64 {
        self.mgr.min_pinned_store_epoch(self.shard)
    }
}

/// A pinned committed version: dereferences to the [`EpochVersion`] it
/// holds. While any clone is alive, the version's runs are retained and
/// the backing stores will not recycle pages its store epochs
/// reference. Dropping the last clone lifts the pin and frees the runs
/// no other handle holds.
pub struct PinnedEpoch {
    mgr: Arc<EpochManager>,
    version: Arc<EpochVersion>,
}

impl PinnedEpoch {
    /// A bidirectional cursor over the live entries with
    /// `lo <= key <= hi`. It holds a pin of its own, so it may outlive
    /// this one.
    pub fn cursor(&self, lo: u64, hi: u64) -> SnapshotCursor {
        SnapshotCursor {
            walk: RunWalk::new(self.runs(), lo, hi),
            _pin: self.clone(),
        }
    }
}

impl std::fmt::Debug for PinnedEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedEpoch")
            .field("seq", &self.version.seq)
            .finish()
    }
}

impl Clone for PinnedEpoch {
    fn clone(&self) -> Self {
        self.mgr.repin(self.version.seq);
        PinnedEpoch {
            mgr: self.mgr.clone(),
            version: self.version.clone(),
        }
    }
}

impl Drop for PinnedEpoch {
    fn drop(&mut self) {
        self.mgr.unpin(self.version.seq);
    }
}

impl std::ops::Deref for PinnedEpoch {
    type Target = EpochVersion;

    fn deref(&self) -> &EpochVersion {
        &self.version
    }
}

/// A bidirectional cursor over a pinned version's live entries in a key
/// window ([`PinnedEpoch::cursor`]): the run walk, tombstones skipped.
/// Owns its pin, so the version stays alive for the cursor's lifetime;
/// implements [`CursorOps`] with the dictionary-wide gap semantics
/// (`next` then `prev` revisits the same entry).
pub struct SnapshotCursor {
    walk: RunWalk,
    _pin: PinnedEpoch,
}

impl std::fmt::Debug for SnapshotCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCursor")
            .field("runs", &self.walk.windows.len())
            .finish()
    }
}

impl SnapshotCursor {
    /// The next live entry in the walk's direction.
    fn live(&mut self, forward: bool) -> Option<(u64, u64)> {
        loop {
            if let (_, (k, Some(v))) = self.walk.step(forward)? {
                return Some((k, v));
            }
        }
    }
}

impl CursorOps for SnapshotCursor {
    fn seek(&mut self, key: u64) {
        self.walk.seek(key);
    }

    fn next(&mut self) -> Option<(u64, u64)> {
        self.live(true)
    }

    fn prev(&mut self) -> Option<(u64, u64)> {
        self.live(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosbt_testkit::{check_cases, Rng};

    fn publish_run(mgr: &Arc<EpochManager>, ops: Vec<BatchOp>) {
        publish_run_handle(mgr, Run::from_ops(ops));
    }

    /// Publishes `run` on top of the current stack.
    fn publish_run_handle(mgr: &Arc<EpochManager>, run: Run) {
        mgr.publish_with(|cur| {
            let mut runs = Vec::with_capacity(cur.runs().len() + 1);
            runs.push(run);
            runs.extend_from_slice(cur.runs());
            (runs, cur.store_epochs_arc())
        });
    }

    #[test]
    fn runs_normalize_and_shadow() {
        let r = Run::from_ops(vec![(3, Some(30)), (1, Some(10)), (3, None)]);
        assert_eq!(r.entries(), &[(1, Some(10)), (3, None)]);
        assert_eq!(r.get(1), Some(Some(10)));
        assert_eq!(r.get(3), Some(None));
        assert_eq!(r.get(2), None);
        assert!(!r.is_empty());
    }

    #[test]
    fn merge_newer_wins_and_tombstones_drop_at_base() {
        let old = Run::from_sorted(vec![(1, Some(1)), (2, Some(2)), (3, Some(3))]);
        let new = Run::from_sorted(vec![(2, None), (4, Some(4))]);
        let kept = merge_runs(&[new.clone(), old.clone()], false);
        assert_eq!(
            kept.entries(),
            &[(1, Some(1)), (2, None), (3, Some(3)), (4, Some(4))]
        );
        let base = merge_runs(&[new, old], true);
        assert_eq!(base.entries(), &[(1, Some(1)), (3, Some(3)), (4, Some(4))]);
    }

    #[test]
    fn pinned_version_is_immutable_under_later_publishes() {
        let mgr = EpochManager::new();
        publish_run(&mgr, vec![(1, Some(10)), (2, Some(20))]);
        let pin = mgr.pin();
        assert_eq!(pin.seq(), 1);
        publish_run(&mgr, vec![(2, None), (3, Some(30))]);
        // The pin still reads the old version; current reads the new.
        assert_eq!(pin.get(2), Some(20));
        assert_eq!(pin.get(3), None);
        let cur = mgr.current();
        assert_eq!(cur.get(2), None);
        assert_eq!(cur.get(3), Some(30));
    }

    #[test]
    fn retirement_waits_for_pins() {
        let mgr = EpochManager::new();
        publish_run(&mgr, vec![(1, Some(1))]);
        let pin = mgr.pin();
        // Compact: replace the whole stack with one merged run.
        publish_run(&mgr, vec![(2, Some(2))]);
        let merged = merge_runs(mgr.current().runs(), true);
        mgr.publish_with(|cur| (vec![merged], cur.store_epochs_arc()));
        let s = mgr.stats();
        assert!(s.retired_pending > 0, "pin holds retired runs");
        drop(pin);
        // Reclamation happens at the next state change.
        publish_run(&mgr, vec![(3, Some(3))]);
        let s = mgr.stats();
        assert_eq!(s.retired_pending, 0);
        assert_eq!(s.reclaimed_runs, s.retired_runs);
    }

    /// The counters' invariant: every retired run is freed or held.
    fn accounted(mgr: &EpochManager) -> EpochStats {
        let s = mgr.stats();
        let held = s.retired_pending as u64;
        assert_eq!(s.retired_runs, s.reclaimed_runs + held, "{s:?}");
        s
    }

    #[test]
    fn a_run_no_pin_holds_is_freed_while_an_older_pin_lives() {
        let mgr = EpochManager::new();
        publish_run(&mgr, vec![(1, Some(1))]);
        let pin = mgr.pin();
        let own = Arc::downgrade(&pin.runs()[0].inner);
        accounted(&mgr);
        let r = Run::from_ops(vec![(2, Some(2))]);
        let r_alive = Arc::downgrade(&r.inner);
        publish_run_handle(&mgr, r);
        accounted(&mgr);
        // Compact R and the pinned run into one: both retire, but only
        // the pin's version still holds one of them.
        let merged = merge_runs(mgr.current().runs(), true);
        mgr.publish_with(|cur| (vec![merged], cur.store_epochs_arc()));
        let s = accounted(&mgr);
        assert!(r_alive.upgrade().is_none(), "R waits for the older pin");
        assert!(own.upgrade().is_some(), "the pin's own run was freed");
        assert_eq!(
            (s.retired_runs, s.reclaimed_runs, s.retired_pending),
            (2, 1, 1)
        );
        assert_eq!((pin.get(1), pin.get(2)), (Some(1), None));
        drop(pin);
        let s = accounted(&mgr);
        assert!(own.upgrade().is_none(), "unpinned, the last run goes too");
        assert_eq!((s.reclaimed_runs, s.retired_pending), (2, 0));
    }

    #[test]
    fn clone_repins_and_drop_unpins() {
        let mgr = EpochManager::new();
        publish_run(&mgr, vec![(1, Some(1))]);
        let a = mgr.pin();
        let b = a.clone();
        assert_eq!(mgr.stats().pinned_epochs, 1);
        drop(a);
        assert_eq!(mgr.stats().pinned_epochs, 1);
        drop(b);
        assert_eq!(mgr.stats().pinned_epochs, 0);
    }

    #[test]
    fn shard_gate_tracks_min_pinned_store_epoch() {
        let mgr = EpochManager::new();
        mgr.publish_with(|_| (Vec::new(), Arc::from([5u64, 7u64])));
        let pin = mgr.pin();
        mgr.publish_with(|_| (Vec::new(), Arc::from([9u64, 9u64])));
        let _pin2 = mgr.pin();
        let g0 = mgr.shard_gate(0);
        let g1 = mgr.shard_gate(1);
        assert_eq!(g0.reclaim_horizon(), 5);
        assert_eq!(g1.reclaim_horizon(), 7);
        drop(pin);
        assert_eq!(g0.reclaim_horizon(), 9);
        // A shard index no pin has an epoch for → unconstrained.
        assert_eq!(mgr.min_pinned_store_epoch(7), u64::MAX);
    }

    #[test]
    fn newest_seq_reads_without_the_lock() {
        let mgr = EpochManager::new();
        assert_eq!(mgr.newest_seq(), 0);
        // The closure runs under the manager's lock, which is not
        // reentrant: a `newest_seq` that locked would deadlock here.
        let mut inside = None;
        let published = mgr.publish_with(|cur| {
            inside = Some(mgr.newest_seq());
            (Vec::new(), cur.store_epochs_arc())
        });
        assert_eq!(inside, Some(0), "the closure runs before the store");
        assert_eq!(mgr.newest_seq(), 1);
        assert_eq!(published.seq(), 1);
        assert_eq!(mgr.newest_seq(), mgr.current().seq());
    }

    /// Two-way sorted merge; on equal keys `newer` wins.
    fn merge_two(older: &[BatchOp], newer: &[BatchOp]) -> Vec<BatchOp> {
        let mut out = Vec::with_capacity(older.len() + newer.len());
        let (mut i, mut j) = (0, 0);
        while i < older.len() && j < newer.len() {
            match older[i].0.cmp(&newer[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(older[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(newer[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(newer[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&older[i..]);
        out.extend_from_slice(&newer[j..]);
        out
    }

    /// The pairwise fold `merge_runs` was before it became one k-way
    /// pass: the oldest run merged with each newer one in turn.
    fn merge_pairwise(newest_first: &[Run], drop_tombstones: bool) -> Vec<BatchOp> {
        let mut acc = newest_first
            .last()
            .map_or(Vec::new(), |r| r.entries().to_vec());
        for newer in newest_first.iter().rev().skip(1) {
            acc = merge_two(&acc, newer.entries());
        }
        if drop_tombstones {
            acc.retain(|&(_, v)| v.is_some());
        }
        acc
    }

    /// A newest-first stack of one to nine runs: empty, one-entry, small
    /// and many-block ones, a third of their operations tombstones, over
    /// a narrow key space that includes 0 and `u64::MAX`.
    fn random_stack(rng: &mut Rng) -> Vec<Run> {
        let runs = 1 + rng.index(9);
        (0..runs)
            .map(|_| {
                let (len, space) = match rng.below(6) {
                    0 => (0, 1),
                    1 => (1, 100),
                    5 => (rng.index(2_000), 4_000),
                    _ => (rng.index(60), 100),
                };
                let ops = (0..len)
                    .map(|_| {
                        let key = match rng.below(10) {
                            0 => 0,
                            1 => u64::MAX,
                            _ => rng.below(space),
                        };
                        (key, (!rng.chance(1, 3)).then(|| rng.next_u64()))
                    })
                    .collect();
                Run::from_ops(ops)
            })
            .collect()
    }

    /// The newest-first lookup with no filter: a binary search of every
    /// run until one holds the key.
    fn unfiltered_get(newest_first: &[Run], key: u64) -> Option<u64> {
        newest_first.iter().find_map(|run| {
            let e = run.entries();
            Some(e[e.binary_search_by_key(&key, |&(k, _)| k).ok()?].1)
        })?
    }

    #[test]
    fn k_way_merge_equals_the_pairwise_fold() {
        check_cases("k_way_merge_equals_the_pairwise_fold", 300, |rng| {
            let stack = random_stack(rng);
            for drop_tombstones in [false, true] {
                let merged = merge_runs(&stack, drop_tombstones);
                let oracle = merge_pairwise(&stack, drop_tombstones);
                assert_eq!(merged.entries(), &oracle[..], "drop {drop_tombstones}");
                for &(k, op) in merged.entries() {
                    assert_eq!(merged.get(k), Some(op), "the merged filter lost {k}");
                }
            }
        });
        assert!(merge_runs(&[], false).is_empty());
    }

    #[test]
    fn filtered_get_equals_an_unfiltered_search() {
        check_cases("filtered_get_equals_an_unfiltered_search", 300, |rng| {
            let stack = random_stack(rng);
            let mgr = EpochManager::new();
            for run in stack.iter().rev() {
                publish_run_handle(&mgr, run.clone());
            }
            let mut probes: Vec<u64> = (stack.iter().flat_map(Run::entries))
                .flat_map(|&(k, _)| [k, k.wrapping_sub(1), k.wrapping_add(1)])
                .collect();
            probes.extend([0, 1, u64::MAX - 1, u64::MAX, rng.next_u64()]);
            let check = |version: &EpochVersion| {
                for &key in &probes {
                    assert_eq!(version.get(key), unfiltered_get(&stack, key), "key {key}");
                }
            };
            check(&mgr.current());
            // Compact a suffix, as the facade does: it ends at the
            // oldest run, so its tombstones may go.
            let keep = rng.index(stack.len());
            let merged = merge_runs(&stack[keep..], rng.chance(1, 2));
            mgr.publish_with(|cur| {
                let mut runs = cur.runs()[..keep].to_vec();
                runs.push(merged);
                (runs, cur.store_epochs_arc())
            });
            check(&mgr.current());
        });
    }
}

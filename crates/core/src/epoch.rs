//! Epoch/snapshot manager: pinned committed versions with grace-period
//! reclamation.
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
//! Reclamation is grace-period based, in the style of Twigg et al.'s
//! persistent streaming indexes: when a publish supersedes runs, they
//! are parked on a retire list tagged with the last epoch that
//! referenced them, and freed only once every pinned reader has moved
//! past that epoch. The same horizon, projected per shard onto the
//! backing stores' committed *store* epochs, gates physical page
//! recycling in the shadow-paged file layer (see
//! [`EpochManager::shard_gate`]).

use cosbt_testkit::sync::atomic::{AtomicU64, Ordering};
use cosbt_testkit::sync::{Arc, Mutex, MutexGuard};
use std::collections::BTreeMap;

use crate::cascade::{LevelFilter, Probe};
use crate::dict::BatchOp;

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

    /// Builds a run from arrival-ordered operations: stable-sorts by
    /// key and keeps the last operation per key (tombstones included).
    pub fn from_ops(mut ops: Vec<BatchOp>) -> Run {
        ops.sort_by_key(|&(k, _)| k);
        let mut out: Vec<BatchOp> = Vec::with_capacity(ops.len());
        for op in ops {
            match out.last_mut() {
                Some(last) if last.0 == op.0 => *last = op,
                _ => out.push(op),
            }
        }
        Run::from_sorted(out)
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

/// Merges a newest-first stack of runs into one run, newer entries
/// shadowing older ones. With `drop_tombstones`, deletions are removed
/// from the result — only valid when the stack's oldest run is the
/// logical base (nothing older exists for a tombstone to shadow).
///
/// One k-way pass: the run holding the smallest head key (the newest on
/// a tie) emits every entry below the other runs' smallest head at once,
/// found by one binary search, so a large base is copied once, a
/// stretch at a time, and never compared entry by entry with the
/// deltas. The filter is built as the entries stream out, sized for the
/// inputs' total.
pub fn merge_runs(newest_first: &[Run], drop_tombstones: bool) -> Run {
    let total = newest_first.iter().map(Run::len).sum();
    let mut out: Vec<BatchOp> = Vec::with_capacity(total);
    let mut filter = LevelFilter::with_capacity(total);
    let mut heads: Vec<&[BatchOp]> = newest_first.iter().map(Run::entries).collect();
    loop {
        let mut winner: Option<(u64, usize)> = None;
        for (i, h) in heads.iter().enumerate() {
            if let Some(&(k, _)) = h.first() {
                if winner.is_none_or(|(wk, _)| k < wk) {
                    winner = Some((k, i));
                }
            }
        }
        let Some((key, w)) = winner else {
            break;
        };
        // Older versions of `key` are shadowed; what is left of the
        // other runs starts past it, at the smallest of their heads.
        for (i, h) in heads.iter_mut().enumerate() {
            if i != w && h.first().is_some_and(|&(k, _)| k == key) {
                *h = &h[1..];
            }
        }
        let bound = (heads.iter().enumerate())
            .filter(|&(i, _)| i != w)
            .filter_map(|(_, h)| Some(h.first()?.0))
            .min();
        let h = heads[w];
        let take = bound.map_or(h.len(), |b| h.partition_point(|&(k, _)| k < b));
        for &(k, op) in &h[..take] {
            if op.is_some() || !drop_tombstones {
                out.push((k, op));
                filter.insert(k);
            }
        }
        heads[w] = &h[take..];
    }
    Run::with_filter(out, filter)
}

/// One committed, immutable version of the database: a monotone
/// sequence number, the newest-first run stack, and the per-shard
/// committed *store* epochs it corresponds to (the PR 4 cross-shard
/// epoch vector; empty for in-memory backends).
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

/// Runs superseded by a publish, tagged with the last version sequence
/// that referenced them.
struct RetiredRuns {
    seq: u64,
    runs: Vec<Run>,
}

struct State {
    current: Arc<EpochVersion>,
    pins: BTreeMap<u64, PinSlot>,
    retired: Vec<RetiredRuns>,
    published: u64,
    retired_total: u64,
    reclaimed_total: u64,
}

/// A point-in-time reading of the manager's counters, for tests and
/// diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Versions published so far (including compactions).
    pub published: u64,
    /// Runs ever retired by a publish.
    pub retired_runs: u64,
    /// Retired runs whose grace period elapsed and were freed.
    pub reclaimed_runs: u64,
    /// Distinct epochs currently pinned by at least one reader.
    pub pinned_epochs: usize,
    /// Retired runs still parked awaiting the pin horizon.
    pub retired_pending: usize,
}

/// The epoch/snapshot manager (used through `Arc<EpochManager>`).
///
/// One short critical section guards version publication, pinning and
/// retirement; reads against a pinned version never take it, nor does
/// asking for the newest sequence number ([`EpochManager::newest_seq`]).
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
                retired: Vec::new(),
                published: 0,
                retired_total: 0,
                reclaimed_total: 0,
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
    /// retired under the old sequence number and freed once no pin is at
    /// or below it.
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
        let dropped: Vec<Run> = cur
            .runs
            .iter()
            .filter(|r| !new.runs.iter().any(|n| n.ptr_eq(r)))
            .cloned()
            .collect();
        if !dropped.is_empty() {
            st.retired_total += dropped.len() as u64;
            st.retired.push(RetiredRuns {
                seq: cur.seq,
                runs: dropped,
            });
        }
        st.current = new.clone();
        // ordering: Release, under the lock, pairs with the Acquire load
        // in `newest_seq`; a thread that learns of this publish through
        // its own synchronisation (a join, a flag) then reads seq ≥ it.
        self.newest.store(new.seq, Ordering::Release);
        st.published += 1;
        Self::collect_locked(&mut st);
        new
    }

    /// Frees retired runs whose grace period has elapsed: everything
    /// tagged strictly below the lowest pinned sequence.
    fn collect_locked(st: &mut State) {
        let horizon = st.pins.keys().next().copied().unwrap_or(u64::MAX);
        let mut reclaimed = 0u64;
        st.retired.retain(|r| {
            if r.seq < horizon {
                reclaimed += r.runs.len() as u64;
                false
            } else {
                true
            }
        });
        st.reclaimed_total += reclaimed;
    }

    fn unpin(&self, seq: u64) {
        let mut st = self.lock();
        let remove = {
            let slot = st.pins.get_mut(&seq).expect("unpin of unpinned epoch");
            slot.count -= 1;
            slot.count == 0
        };
        if remove {
            st.pins.remove(&seq);
            Self::collect_locked(&mut st);
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
        EpochStats {
            published: st.published,
            retired_runs: st.retired_total,
            reclaimed_runs: st.reclaimed_total,
            pinned_epochs: st.pins.len(),
            retired_pending: st.retired.iter().map(|r| r.runs.len()).sum(),
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
/// reference. Dropping the last clone lifts the pin and lets the
/// manager reclaim.
pub struct PinnedEpoch {
    mgr: Arc<EpochManager>,
    version: Arc<EpochVersion>,
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

//! Block-transfer counters for the DAM simulator.

use cosbt_testkit::sync::atomic::{AtomicU64, Ordering};
use cosbt_testkit::sync::{Mutex, MutexGuard};

/// Counters accumulated by [`crate::IoSim`].
///
/// In the DAM model the *cost* of an algorithm is `fetches + writebacks`:
/// the number of blocks moved between internal and external memory.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Logical block accesses (one per distinct block touched per operation).
    pub accesses: u64,
    /// Accesses that found the block resident in internal memory.
    pub hits: u64,
    /// Blocks fetched from external memory (cache misses).
    pub fetches: u64,
    /// Blocks evicted from internal memory.
    pub evictions: u64,
    /// Evicted blocks that were dirty and had to be written back.
    pub writebacks: u64,
    /// Non-sequential device accesses: fetches/writebacks whose block was
    /// not adjacent to the previous access of the same kind. Counted only
    /// by real file stores; used to model rotating-disk behaviour (the
    /// paper's testbed streamed at 120 MiB/s but paid a seek for each
    /// random block).
    pub seeks: u64,
}

impl IoStats {
    /// Total block transfers: the DAM-model cost (`fetches + writebacks`).
    #[inline]
    pub fn transfers(&self) -> u64 {
        self.fetches + self.writebacks
    }

    /// Difference `self - earlier`, for measuring a window of operations.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            accesses: self.accesses - earlier.accesses,
            hits: self.hits - earlier.hits,
            fetches: self.fetches - earlier.fetches,
            evictions: self.evictions - earlier.evictions,
            writebacks: self.writebacks - earlier.writebacks,
            seeks: self.seeks - earlier.seeks,
        }
    }

    /// Modeled rotating-disk time for this window: each seek costs
    /// `seek_ms` and every transferred block streams at `bw_bytes_per_s`.
    /// This is the paper's measurement idiom ("We estimated disk time d as
    /// d = w − u − k"; their RAID streamed at 120 MiB/s) transplanted to
    /// the explicit page cache, where the OS cannot hide the pattern.
    pub fn modeled_disk_seconds(
        &self,
        block_bytes: usize,
        seek_ms: f64,
        bw_bytes_per_s: f64,
    ) -> f64 {
        self.seeks as f64 * seek_ms / 1e3
            + (self.transfers() as f64 * block_bytes as f64) / bw_bytes_per_s
    }

    /// Hit rate in `[0, 1]`; `1.0` when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;

    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            accesses: self.accesses + rhs.accesses,
            hits: self.hits + rhs.hits,
            fetches: self.fetches + rhs.fetches,
            evictions: self.evictions + rhs.evictions,
            writebacks: self.writebacks + rhs.writebacks,
            seeks: self.seeks + rhs.seeks,
        }
    }
}

impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for IoStats {
    /// Fieldwise sum — how a sharded database aggregates the counters of
    /// its per-shard backing stores into one report.
    fn sum<I: Iterator<Item = IoStats>>(iter: I) -> IoStats {
        iter.fold(IoStats::default(), |acc, s| acc + s)
    }
}

/// [`IoStats`] accumulator shared between one writer (a store) and
/// any number of observers.
///
/// A file store increments these counters while it holds its own lock,
/// but observers (`stats` / `take_stats` probes on another thread) must
/// not have to acquire that lock: a reader blocked behind a long merge
/// would starve.
///
/// **Single writer.** Every increment method requires that no other
/// increment of the same accumulator runs concurrently — the store's
/// lock (or its `&mut self`) already guarantees it. So an increment is
/// a relaxed load and a relaxed store of its counter, no atomic
/// read-modify-write. Each counter only grows.
///
/// **Observer baseline.** [`take`](AtomicIoStats::take) and
/// [`reset`](AtomicIoStats::reset) never write a counter. They move a
/// baseline to the counters' current values, and
/// [`snapshot`](AtomicIoStats::snapshot) returns counters − baseline.
/// Only observers take the baseline's mutex. Every increment is
/// counted by exactly one window: the first `take` whose load sees it.
/// Relaxed ordering suffices: the counters are statistics, not
/// synchronization — no other memory is published through them.
#[derive(Debug, Default)]
pub struct AtomicIoStats {
    accesses: AtomicU64,
    hits: AtomicU64,
    fetches: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    seeks: AtomicU64,
    /// The counters' values at the last `take` or `reset`.
    base: Mutex<IoStats>,
}

/// Adds `n` to `counter`. Single writer: no other thread stores to it.
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    // ordering: pure statistic; no other memory is published. The one
    // writer reads its own last store, so load + store cannot lose an
    // increment, and observers only load.
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

impl AtomicIoStats {
    /// New accumulator with all counters at zero.
    pub fn new() -> AtomicIoStats {
        AtomicIoStats::default()
    }

    /// Count one logical block access. Single writer (see the type
    /// docs): no other increment of `self` may run concurrently.
    #[inline]
    pub fn inc_accesses(&self) {
        bump(&self.accesses, 1);
    }

    /// Count one access that found its block resident. Single writer.
    #[inline]
    pub fn inc_hits(&self) {
        bump(&self.hits, 1);
    }

    /// Count `accesses` logical block accesses of which `hits` found
    /// their block resident: what that many [`inc_accesses`] and
    /// [`inc_hits`] calls count, in two adds (a run of cells on one
    /// page is charged in bulk). Single writer.
    ///
    /// [`inc_accesses`]: AtomicIoStats::inc_accesses
    /// [`inc_hits`]: AtomicIoStats::inc_hits
    #[inline]
    pub fn add_accesses(&self, accesses: u64, hits: u64) {
        bump(&self.accesses, accesses);
        bump(&self.hits, hits);
    }

    /// Count one block fetched from external memory. Single writer.
    #[inline]
    pub fn inc_fetches(&self) {
        bump(&self.fetches, 1);
    }

    /// Count one block evicted from internal memory. Single writer.
    #[inline]
    pub fn inc_evictions(&self) {
        bump(&self.evictions, 1);
    }

    /// Count one dirty block written back to external memory. Single
    /// writer.
    #[inline]
    pub fn inc_writebacks(&self) {
        bump(&self.writebacks, 1);
    }

    /// Count one non-sequential device access. Single writer.
    #[inline]
    pub fn inc_seeks(&self) {
        bump(&self.seeks, 1);
    }

    /// The counters' running totals, never reset.
    fn totals(&self) -> IoStats {
        // ordering: counters are independent statistics; a read may
        // straddle an in-flight operation (see `snapshot`) and no other
        // memory is consumed through these loads.
        IoStats {
            accesses: self.accesses.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
        }
    }

    /// Read all counters since the last [`take`](AtomicIoStats::take)
    /// or [`reset`](AtomicIoStats::reset), without closing the window.
    ///
    /// Counters are loaded one at a time, so a snapshot taken while
    /// another thread is mid-operation may straddle that operation
    /// (e.g. see its access but not yet its fetch); totals are still
    /// never lost.
    pub fn snapshot(&self) -> IoStats {
        // Lock before loading: a `take` between the loads and the lock
        // would move the baseline past them.
        let base = self.base();
        self.totals().since(&base)
    }

    /// The observers' baseline. Every update of it is one assignment of
    /// a `Copy` value, so even a poisoned lock guards a valid one.
    fn base(&self) -> MutexGuard<'_, IoStats> {
        self.base.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Read the counters since the last window and close it.
    ///
    /// The baseline moves to exactly the values this call read, so an
    /// increment the loads missed lands in the next window — never
    /// both, never neither. This is what makes phase accounting
    /// (`prefill` / `measured`) exact even with a racing writer.
    pub fn take(&self) -> IoStats {
        let mut base = self.base();
        let now = self.totals();
        let window = now.since(&base);
        *base = now;
        window
    }

    /// Close the current window, discarding its counts: the next
    /// `snapshot` reads zero until the writer counts again.
    pub fn reset(&self) {
        self.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_sums_fetches_and_writebacks() {
        let s = IoStats {
            accesses: 10,
            hits: 4,
            fetches: 6,
            evictions: 3,
            writebacks: 2,
            seeks: 0,
        };
        assert_eq!(s.transfers(), 8);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = IoStats {
            accesses: 10,
            hits: 4,
            fetches: 6,
            evictions: 3,
            writebacks: 2,
            seeks: 1,
        };
        let b = IoStats {
            accesses: 25,
            hits: 9,
            fetches: 16,
            evictions: 13,
            writebacks: 7,
            seeks: 5,
        };
        let d = b.since(&a);
        assert_eq!(d.accesses, 15);
        assert_eq!(d.hits, 5);
        assert_eq!(d.fetches, 10);
        assert_eq!(d.evictions, 10);
        assert_eq!(d.writebacks, 5);
        assert_eq!(d.seeks, 4);
    }

    #[test]
    fn modeled_disk_time_combines_seeks_and_streaming() {
        let s = IoStats {
            fetches: 100,
            writebacks: 100,
            seeks: 10,
            ..Default::default()
        };
        // 10 seeks * 8 ms + 200 blocks * 4096 B / (120 MiB/s)
        let t = s.modeled_disk_seconds(4096, 8.0, 120.0 * 1024.0 * 1024.0);
        assert!((t - (0.08 + 200.0 * 4096.0 / (120.0 * 1024.0 * 1024.0))).abs() < 1e-9);
    }

    #[test]
    fn sum_aggregates_fieldwise() {
        let a = IoStats {
            accesses: 1,
            hits: 2,
            fetches: 3,
            evictions: 4,
            writebacks: 5,
            seeks: 6,
        };
        let b = IoStats {
            accesses: 10,
            hits: 20,
            fetches: 30,
            evictions: 40,
            writebacks: 50,
            seeks: 60,
        };
        let total: IoStats = [a, b].into_iter().sum();
        assert_eq!(total, a + b);
        assert_eq!(total.accesses, 11);
        assert_eq!(total.transfers(), 33 + 55);
        let mut acc = a;
        acc += b;
        assert_eq!(acc, total);
    }

    #[test]
    fn atomic_take_never_loses_or_double_counts() {
        use std::sync::Arc;
        let stats = Arc::new(AtomicIoStats::new());
        let n = 20_000u64;
        let worker = {
            let s = stats.clone();
            std::thread::spawn(move || {
                for _ in 0..n {
                    s.inc_fetches();
                    s.inc_writebacks();
                }
            })
        };
        // Race take() against the incrementing worker: every increment
        // must land in exactly one taken window.
        let mut total = IoStats::default();
        for _ in 0..500 {
            total += stats.take();
        }
        worker.join().unwrap();
        total += stats.take();
        assert_eq!(total.fetches, n);
        assert_eq!(total.writebacks, n);
        assert_eq!(stats.snapshot(), IoStats::default());
    }

    #[test]
    fn atomic_snapshot_reads_without_reset() {
        let stats = AtomicIoStats::new();
        stats.inc_accesses();
        stats.inc_hits();
        stats.inc_seeks();
        let a = stats.snapshot();
        let b = stats.snapshot();
        assert_eq!(a, b);
        assert_eq!(a.accesses, 1);
        assert_eq!(a.seeks, 1);
        stats.reset();
        assert_eq!(stats.snapshot(), IoStats::default());
    }

    #[test]
    fn hit_rate_handles_zero_accesses() {
        assert_eq!(IoStats::default().hit_rate(), 1.0);
        let s = IoStats {
            accesses: 4,
            hits: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }
}

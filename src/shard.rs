//! Range-partitioned sharding: one coherent dictionary view over `S`
//! independent structure instances, with parallel batch ingest.
//!
//! The paper's structures win by turning point updates into batched,
//! cache-friendly merges; this layer scales that across cores. The
//! keyspace is split at `S − 1` *splitters* into contiguous ranges, each
//! owned by one shard — any structure over any backend, built by
//! [`crate::DbBuilder`] with [`crate::DbBuilder::shards`]. Batches are
//! split into per-shard sub-batches (arrival order preserved per key,
//! since every operation on a key lands in the same shard) and applied on
//! a scoped pool of worker threads when the batch is large and reaches
//! more than one shard; each shard then runs its own single-threaded
//! merge machinery unchanged. Reads route point lookups to the owning
//! shard and splice range scans that cross a shard boundary back
//! together with the k-way [`MergeCursor`], so the [`Dictionary`] trait
//! is exposed unchanged. A [`crate::Db`] is always a router: an
//! unsharded one routes everything to its one shard.
//!
//! Range partitioning (rather than hashing) keeps each shard a contiguous
//! key interval: scans touch only the shards overlapping the query window
//! and the cross-shard merge never interleaves more than one live source
//! at a time. The trade-off — skewed key distributions load shards
//! unevenly — is what custom splitters are for.

use cosbt_core::{Cursor, Dictionary, MergeCursor, Persist, UpdateBatch};

/// The trait bundle a shard must satisfy: the dictionary operations, the
/// persistence boundary (so a file-backed shard can serialize its control
/// state into its store's metadata commit), and `Send + Sync` (so
/// sub-batches can be applied on worker threads, and a `&Db` — e.g. an
/// I/O probe racing a writer — can be shared across threads). Every
/// structure in the workspace is `Sync`: shared mutable state lives
/// behind `Arc<Mutex<…>>` in the file backends and plain owned memory
/// elsewhere. Blanket-implemented; user code never implements it
/// directly.
pub trait ShardDict: Dictionary + Persist + Send + Sync {}

impl<T: Dictionary + Persist + Send + Sync> ShardDict for T {}

/// A dictionary shard: any structure over any backend.
pub type Shard = Box<dyn ShardDict>;

/// Below this many operations a batch is applied sequentially: scoped
/// worker threads are spawned per batch, and for small batches the
/// spawn/join overhead (tens of microseconds) exceeds the per-shard merge
/// work it would hide.
pub const PARALLEL_MIN_OPS: usize = 1024;

/// Splits the `u64` keyspace evenly into `n` contiguous ranges, returning
/// the `n − 1` boundaries (shard `i` owns keys in
/// `[splitters[i-1], splitters[i])`).
pub fn even_splitters(n: usize) -> Vec<u64> {
    assert!(n >= 1, "shard count must be at least 1");
    let width = (u64::MAX as u128 + 1) / n as u128;
    (1..n).map(|i| (i as u128 * width) as u64).collect()
}

/// Range-partitions the keyspace across independent [`Dictionary`]
/// instances and exposes the same trait over the whole set.
///
/// Built by [`crate::DbBuilder::shards`]; constructible directly for code
/// that wants to mix structures per shard (each shard is just a boxed
/// [`Dictionary`]):
///
/// ```
/// use cosbt::shard::ShardRouter;
/// use cosbt::{cola::GCola, btree::BTree, Dictionary};
///
/// // A hot low-key shard on a B-tree, everything else on a 4-COLA.
/// let mut db = ShardRouter::new(
///     vec![Box::new(BTree::new_plain()), Box::new(GCola::new_plain(4))],
///     vec![1 << 32],
/// );
/// db.insert(7, 70); // routed to the B-tree shard
/// db.insert(u64::MAX, 1); // routed to the COLA shard
/// assert_eq!(db.range(0, u64::MAX), vec![(7, 70), (u64::MAX, 1)]);
/// ```
pub struct ShardRouter {
    shards: Vec<Shard>,
    /// `shards.len() - 1` strictly increasing boundaries; shard `i` owns
    /// `[splitters[i-1], splitters[i])` (unbounded at the two ends).
    splitters: Vec<u64>,
    /// Worker threads a batch may use: `available_parallelism`, read
    /// once at construction (1 for a single shard, which never spawns).
    workers: usize,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shards.len())
            .field("splitters", &self.splitters)
            .field("workers", &self.workers)
            .finish()
    }
}

impl ShardRouter {
    /// A router over `shards` split at `splitters` (strictly increasing,
    /// one fewer than the shard count). A batch of at least
    /// [`PARALLEL_MIN_OPS`] operations that reaches more than one shard
    /// is applied on a scoped thread pool if the machine has more than
    /// one core; point operations are always routed directly.
    ///
    /// # Panics
    ///
    /// If `shards` is empty or `splitters` is not a strictly increasing
    /// list of length `shards.len() - 1`. ([`crate::DbBuilder`] validates
    /// the same conditions and returns an error instead.)
    pub fn new(shards: Vec<Shard>, splitters: Vec<u64>) -> ShardRouter {
        assert!(!shards.is_empty(), "need at least one shard");
        assert_eq!(
            splitters.len(),
            shards.len() - 1,
            "need exactly one splitter between adjacent shards"
        );
        assert!(
            splitters.windows(2).all(|w| w[0] < w[1]),
            "splitters must be strictly increasing"
        );
        let workers = match shards.len() {
            1 => 1,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        ShardRouter {
            shards,
            splitters,
            workers,
        }
    }

    /// Mutable access to the shards in routing order, for per-shard
    /// maintenance the router cannot express itself — [`crate::Db::sync`]
    /// pairs each shard's [`Persist::save_meta`] with its own backing
    /// store's metadata commit.
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Index of the shard owning `key`.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        self.splitters.partition_point(|&s| s <= key)
    }

    /// Runs the `(shard, payload)` jobs of a batch of `ops` operations: on
    /// a scoped pool of at most `workers` threads when more than one
    /// shard has work, the batch has at least [`PARALLEL_MIN_OPS`]
    /// operations and there is more than one worker; in order on this
    /// thread otherwise. Each shard applies its own payload either way,
    /// to its own store, so the outcome is the same.
    fn run_jobs<J: Send>(
        workers: usize,
        ops: usize,
        jobs: Vec<(&mut Shard, J)>,
        run: impl Fn(&mut Shard, J) + Send + Sync + Copy,
    ) {
        let workers = workers.min(jobs.len());
        if workers <= 1 || ops < PARALLEL_MIN_OPS {
            for (shard, payload) in jobs {
                run(shard, payload);
            }
            return;
        }
        let mut groups: Vec<Vec<(&mut Shard, J)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            groups[i % workers].push(job);
        }
        std::thread::scope(|scope| {
            for group in groups {
                scope.spawn(move || {
                    for (shard, payload) in group {
                        run(shard, payload);
                    }
                });
            }
        });
    }
}

impl Dictionary for ShardRouter {
    fn insert(&mut self, key: u64, val: u64) {
        let s = self.shard_of(key);
        self.shards[s].insert(key, val)
    }

    fn delete(&mut self, key: u64) {
        let s = self.shard_of(key);
        self.shards[s].delete(key)
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        let s = self.shard_of(key);
        self.shards[s].get(key)
    }

    fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_> {
        // A window inside one shard is that shard's own cursor.
        let (first, last) = (self.shard_of(lo), self.shard_of(hi));
        if first == last {
            return self.shards[first].cursor(lo, hi);
        }
        if lo > hi {
            return Cursor::new(MergeCursor::<Cursor<'_>>::new(Vec::new()));
        }
        // Only the shards whose range intersects [lo, hi] contribute;
        // snapshot-style shard cursors (BRT, shuttle) then materialize
        // only the overlapping partitions.
        let subs: Vec<Cursor<'_>> = self.shards[first..=last]
            .iter_mut()
            .map(|s| s.cursor(lo, hi))
            .collect();
        Cursor::new(MergeCursor::new(subs))
    }

    fn range(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        // A window inside one shard keeps that shard's own range scan.
        let (first, last) = (self.shard_of(lo), self.shard_of(hi));
        if first == last {
            return self.shards[first].range(lo, hi);
        }
        self.cursor(lo, hi).collect()
    }

    fn apply(&mut self, batch: &mut UpdateBatch) {
        if self.shards.len() == 1 {
            return self.shards[0].apply(batch);
        }
        // Split in arrival order: all operations on one key go to one
        // shard in their original relative order, so per-key last-wins
        // semantics are preserved exactly.
        let mut subs: Vec<UpdateBatch> = self
            .shards
            .iter()
            .map(|_| UpdateBatch::with_capacity(batch.len() / self.shards.len() + 1))
            .collect();
        for &(key, op) in batch.ops() {
            let s = self.shard_of(key);
            match op {
                Some(val) => subs[s].put(key, val),
                None => subs[s].delete(key),
            };
        }
        let ops = batch.len();
        batch.clear();
        let jobs: Vec<(&mut Shard, UpdateBatch)> = self
            .shards
            .iter_mut()
            .zip(subs)
            .filter(|(_, sub)| !sub.is_empty())
            .collect();
        Self::run_jobs(self.workers, ops, jobs, |shard, mut sub| {
            shard.apply(&mut sub)
        });
    }

    fn insert_batch(&mut self, sorted: &[(u64, u64)]) {
        if self.shards.len() == 1 {
            return self.shards[0].insert_batch(sorted);
        }
        // The run is sorted, so each shard's share is one contiguous
        // sub-slice, found by binary search at each splitter.
        let mut pieces: Vec<&[(u64, u64)]> = Vec::with_capacity(self.shards.len());
        let mut rest = sorted;
        for &sp in &self.splitters {
            let cut = rest.partition_point(|&(k, _)| k < sp);
            let (head, tail) = rest.split_at(cut);
            pieces.push(head);
            rest = tail;
        }
        pieces.push(rest);
        let jobs: Vec<(&mut Shard, &[(u64, u64)])> = self
            .shards
            .iter_mut()
            .zip(pieces)
            .filter(|(_, piece)| !piece.is_empty())
            .collect();
        Self::run_jobs(self.workers, sorted.len(), jobs, |shard, piece| {
            shard.insert_batch(piece)
        });
    }

    fn physical_len(&self) -> usize {
        self.shards.iter().map(|s| s.physical_len()).sum()
    }

    fn name(&self) -> &'static str {
        match &self.shards[..] {
            [only] => only.name(),
            _ => "sharded",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosbt_core::GCola;
    use cosbt_dam::PlainMem;

    fn router(n: usize) -> ShardRouter {
        let shards: Vec<Shard> = (0..n)
            .map(|_| Box::new(GCola::new_plain(4)) as Shard)
            .collect();
        ShardRouter::new(shards, even_splitters(n))
    }

    #[test]
    fn even_splitters_partition_the_keyspace() {
        assert_eq!(even_splitters(1), vec![]);
        assert_eq!(even_splitters(2), vec![1 << 63]);
        assert_eq!(even_splitters(4), vec![1 << 62, 1 << 63, 3 << 62]);
        let r = router(4);
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of((1 << 62) - 1), 0);
        assert_eq!(r.shard_of(1 << 62), 1);
        assert_eq!(r.shard_of(u64::MAX), 3);
    }

    #[test]
    fn routes_point_ops_and_scans_across_shards() {
        let mut r = router(4);
        // One key per quadrant plus boundary keys.
        let keys = [0u64, 1 << 62, (1 << 63) | 5, u64::MAX, (1 << 62) - 1];
        for (i, &k) in keys.iter().enumerate() {
            r.insert(k, i as u64);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(r.get(k), Some(i as u64));
        }
        let mut sorted: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(r.range(0, u64::MAX), sorted);
        r.delete(1 << 62);
        assert_eq!(r.get(1 << 62), None);
        assert_eq!(r.range(0, u64::MAX).len(), 4);
    }

    #[test]
    fn batches_split_and_preserve_per_key_order() {
        let mut r = router(4);
        let mut batch = UpdateBatch::new();
        let k_hi = (1 << 63) + 7;
        batch
            .put(5, 1)
            .put(k_hi, 2)
            .delete(5)
            .put(5, 3)
            .put(k_hi, 4);
        r.apply(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(r.get(5), Some(3));
        assert_eq!(r.get(k_hi), Some(4));
    }

    #[test]
    fn sorted_runs_split_at_splitter_boundaries() {
        let mut r = router(4);
        let run: Vec<(u64, u64)> = (0..64u64).map(|i| (i << 58, i)).collect();
        r.insert_batch(&run);
        assert_eq!(r.range(0, u64::MAX), run);
        assert_eq!(r.physical_len(), 64);
    }

    #[test]
    fn large_batches_take_the_threaded_path() {
        // From PARALLEL_MIN_OPS on, a batch that reaches several shards
        // spawns the scoped workers (on a machine with more than one
        // core); the result must be indistinguishable from one shard fed
        // the same batches.
        let mut par = router(4);
        let mut one = router(1);
        let mut batch_par = UpdateBatch::new();
        let mut batch_one = UpdateBatch::new();
        for i in 0..2 * PARALLEL_MIN_OPS as u64 {
            let k = i.wrapping_mul(0x9E3779B97F4A7C15);
            batch_par.put(k, i);
            batch_one.put(k, i);
        }
        par.apply(&mut batch_par);
        one.apply(&mut batch_one);
        assert_eq!(par.range(0, u64::MAX), one.range(0, u64::MAX));

        let mut run: Vec<(u64, u64)> = (0..2 * PARALLEL_MIN_OPS as u64)
            .map(|i| (i.wrapping_mul(0x2545F4914F6CDD1D), i))
            .collect();
        run.sort_unstable_by_key(|&(k, _)| k);
        par.insert_batch(&run);
        one.insert_batch(&run);
        assert_eq!(par.range(0, u64::MAX), one.range(0, u64::MAX));
    }

    #[test]
    fn one_shard_router_is_its_shard() {
        let shards: Vec<Shard> = vec![Box::new(GCola::basic(PlainMem::new()))];
        let r = ShardRouter::new(shards, Vec::new());
        assert_eq!(r.name(), GCola::basic(PlainMem::new()).name());
        assert_eq!(router(4).name(), "sharded");
    }

    #[test]
    fn cursor_inside_one_shard_walks_it_both_ways() {
        // Shard 1 of four owns [1 << 62, 1 << 63); its neighbours hold
        // keys just outside the window, which the cursor must not reach.
        let mut r = router(4);
        let lo = 1u64 << 62;
        let inside: Vec<(u64, u64)> = (0..40u64).map(|i| (lo + 3 * i, i)).collect();
        r.insert_batch(&inside);
        r.insert_batch(&[(lo - 1, 7), (1 << 63, 8)]);
        r.delete(lo + 30);
        let want: Vec<(u64, u64)> = inside.into_iter().filter(|&(k, _)| k != lo + 30).collect();
        let hi = (1u64 << 63) - 1;
        let mut c = r.cursor(lo, hi);
        let fwd: Vec<(u64, u64)> = std::iter::from_fn(|| c.next()).collect();
        assert_eq!(fwd, want, "forward");
        let mut bwd: Vec<(u64, u64)> = std::iter::from_fn(|| c.prev()).collect();
        bwd.reverse();
        assert_eq!(bwd, want, "backward from the end");
        c.seek(lo + 31);
        assert_eq!(c.next(), Some((lo + 33, 11)), "seek past the deleted key");
        assert_eq!(c.prev(), Some((lo + 33, 11)), "next then prev revisits");
        assert_eq!(c.prev(), Some((lo + 27, 9)), "and steps over the tombstone");
        drop(c);
        assert_eq!(r.range(lo, hi), want);
    }

    #[test]
    fn mixed_structures_per_shard() {
        let shards: Vec<Shard> = vec![
            Box::new(GCola::basic(PlainMem::new())),
            Box::new(GCola::new_plain(2)),
        ];
        let mut r = ShardRouter::new(shards, vec![100]);
        r.insert_batch(&[(1, 10), (99, 20), (100, 30), (5000, 40)]);
        assert_eq!(
            r.range(0, u64::MAX),
            vec![(1, 10), (99, 20), (100, 30), (5000, 40)]
        );
        let mut c = r.cursor(50, 200);
        assert_eq!(c.next(), Some((99, 20)));
        assert_eq!(c.next(), Some((100, 30)), "crosses the shard boundary");
        assert_eq!(c.prev(), Some((100, 30)));
        assert_eq!(c.prev(), Some((99, 20)), "and back across it");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_splitters_panic() {
        let shards: Vec<Shard> = (0..3)
            .map(|_| Box::new(GCola::new_plain(4)) as Shard)
            .collect();
        ShardRouter::new(shards, vec![10, 10]);
    }
}

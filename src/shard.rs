//! Range-partitioned sharding: one coherent dictionary view over `S`
//! independent structure instances, with optional parallel batch ingest.
//!
//! The paper's structures win by turning point updates into batched,
//! cache-friendly merges; this layer scales that across cores. The
//! keyspace is split at `S − 1` *splitters* into contiguous ranges, each
//! owned by one shard — any structure over any backend, built by
//! [`crate::DbBuilder`] with [`crate::DbBuilder::shards`]. Batches are
//! split into per-shard sub-batches (arrival order preserved per key,
//! since every operation on a key lands in the same shard) and applied on
//! a scoped pool of worker threads when
//! [`crate::DbBuilder::parallel_ingest`] is on; each shard then runs its
//! own single-threaded merge machinery unchanged. Reads route point
//! lookups to the owning shard and splice range scans back together with
//! the k-way [`MergeCursor`], so the [`Dictionary`] trait is exposed
//! unchanged.
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

/// Below this many operations a batch is applied sequentially even with
/// parallel ingest on: scoped worker threads are spawned per batch, and
/// for small batches the spawn/join overhead (tens of microseconds)
/// exceeds the per-shard merge work it would hide.
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
///     false,
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
    parallel: bool,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shards.len())
            .field("splitters", &self.splitters)
            .field("parallel", &self.parallel)
            .finish()
    }
}

impl ShardRouter {
    /// A router over `shards` split at `splitters` (strictly increasing,
    /// one fewer than the shard count). `parallel` applies per-shard
    /// sub-batches on a scoped thread pool; point operations are always
    /// routed directly.
    ///
    /// # Panics
    ///
    /// If `shards` is empty or `splitters` is not a strictly increasing
    /// list of length `shards.len() - 1`. ([`crate::DbBuilder`] validates
    /// the same conditions and returns an error instead.)
    pub fn new(shards: Vec<Shard>, splitters: Vec<u64>, parallel: bool) -> ShardRouter {
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
        ShardRouter {
            shards,
            splitters,
            parallel,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Mutable access to the shards in routing order, for per-shard
    /// maintenance the router cannot express itself — [`crate::Db::sync`]
    /// pairs each shard's [`Persist::save_meta`] with its own backing
    /// store's metadata commit.
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// The shard boundaries.
    pub fn splitters(&self) -> &[u64] {
        &self.splitters
    }

    /// Whether batches are applied on worker threads.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// Index of the shard owning `key`.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        self.splitters.partition_point(|&s| s <= key)
    }

    /// Runs `(shard, payload)` jobs, on a scoped pool of at most
    /// `available_parallelism` worker threads when parallel ingest is on
    /// and more than one shard has work.
    fn run_jobs<J: Send>(
        parallel: bool,
        jobs: Vec<(&mut Shard, J)>,
        run: impl Fn(&mut Shard, J) + Send + Sync + Copy,
    ) {
        if !parallel || jobs.len() <= 1 {
            for (shard, payload) in jobs {
                run(shard, payload);
            }
            return;
        }
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(jobs.len());
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
        if lo > hi {
            return Cursor::new(MergeCursor::<Cursor<'_>>::new(Vec::new()));
        }
        // Only the shards whose range intersects [lo, hi] contribute;
        // snapshot-style shard cursors (BRT, shuttle) then materialize
        // only the overlapping partitions.
        let (first, last) = (self.shard_of(lo), self.shard_of(hi));
        let subs: Vec<Cursor<'_>> = self.shards[first..=last]
            .iter_mut()
            .map(|s| s.cursor(lo, hi))
            .collect();
        Cursor::new(MergeCursor::new(subs))
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
        let parallel = self.parallel && batch.len() >= PARALLEL_MIN_OPS;
        batch.clear();
        let jobs: Vec<(&mut Shard, UpdateBatch)> = self
            .shards
            .iter_mut()
            .zip(subs)
            .filter(|(_, sub)| !sub.is_empty())
            .collect();
        Self::run_jobs(parallel, jobs, |shard, mut sub| shard.apply(&mut sub));
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
        let parallel = self.parallel && sorted.len() >= PARALLEL_MIN_OPS;
        let jobs: Vec<(&mut Shard, &[(u64, u64)])> = self
            .shards
            .iter_mut()
            .zip(pieces)
            .filter(|(_, piece)| !piece.is_empty())
            .collect();
        Self::run_jobs(parallel, jobs, |shard, piece| shard.insert_batch(piece));
    }

    fn physical_len(&self) -> usize {
        self.shards.iter().map(|s| s.physical_len()).sum()
    }

    fn name(&self) -> &'static str {
        "sharded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosbt_core::GCola;
    use cosbt_dam::PlainMem;

    fn router(n: usize, parallel: bool) -> ShardRouter {
        let shards: Vec<Shard> = (0..n)
            .map(|_| Box::new(GCola::new_plain(4)) as Shard)
            .collect();
        ShardRouter::new(shards, even_splitters(n), parallel)
    }

    #[test]
    fn even_splitters_partition_the_keyspace() {
        assert_eq!(even_splitters(1), vec![]);
        assert_eq!(even_splitters(2), vec![1 << 63]);
        assert_eq!(even_splitters(4), vec![1 << 62, 1 << 63, 3 << 62]);
        let r = router(4, false);
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of((1 << 62) - 1), 0);
        assert_eq!(r.shard_of(1 << 62), 1);
        assert_eq!(r.shard_of(u64::MAX), 3);
    }

    #[test]
    fn routes_point_ops_and_scans_across_shards() {
        let mut r = router(4, false);
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
        for parallel in [false, true] {
            let mut r = router(4, parallel);
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
            assert_eq!(r.get(5), Some(3), "parallel={parallel}");
            assert_eq!(r.get(k_hi), Some(4), "parallel={parallel}");
        }
    }

    #[test]
    fn sorted_runs_split_at_splitter_boundaries() {
        for parallel in [false, true] {
            let mut r = router(4, parallel);
            let run: Vec<(u64, u64)> = (0..64u64).map(|i| (i << 58, i)).collect();
            r.insert_batch(&run);
            assert_eq!(r.range(0, u64::MAX), run, "parallel={parallel}");
            assert_eq!(r.physical_len(), 64);
        }
    }

    #[test]
    fn large_batches_take_the_threaded_path() {
        // Above PARALLEL_MIN_OPS the scoped workers actually spawn; the
        // result must be indistinguishable from the sequential path.
        let mut par = router(4, true);
        let mut seq = router(4, false);
        let mut batch_par = UpdateBatch::new();
        let mut batch_seq = UpdateBatch::new();
        for i in 0..2 * PARALLEL_MIN_OPS as u64 {
            let k = i.wrapping_mul(0x9E3779B97F4A7C15);
            batch_par.put(k, i);
            batch_seq.put(k, i);
        }
        par.apply(&mut batch_par);
        seq.apply(&mut batch_seq);
        assert_eq!(par.range(0, u64::MAX), seq.range(0, u64::MAX));

        let mut run: Vec<(u64, u64)> = (0..2 * PARALLEL_MIN_OPS as u64)
            .map(|i| (i.wrapping_mul(0x2545F4914F6CDD1D), i))
            .collect();
        run.sort_unstable_by_key(|&(k, _)| k);
        par.insert_batch(&run);
        seq.insert_batch(&run);
        assert_eq!(par.range(0, u64::MAX), seq.range(0, u64::MAX));
    }

    #[test]
    fn mixed_structures_per_shard() {
        let shards: Vec<Shard> = vec![
            Box::new(GCola::basic(PlainMem::new())),
            Box::new(GCola::new_plain(2)),
        ];
        let mut r = ShardRouter::new(shards, vec![100], false);
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
        ShardRouter::new(shards, vec![10, 10], false);
    }
}

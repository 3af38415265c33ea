//! The common dictionary interface implemented by every structure in the
//! workspace (COLA variants, B-tree, BRT, shuttle tree), so workloads and
//! benchmarks are written once.
//!
//! The interface exposes the operations streaming B-trees are actually
//! built for:
//!
//! * **batched updates** — [`Dictionary::apply`] replays an
//!   [`UpdateBatch`] and [`Dictionary::insert_batch`] ingests a pre-sorted
//!   run. Log-structured implementations override these with real merge
//!   paths (one carry cascade per batch instead of one per key); the
//!   defaults fall back to per-key loops, so every structure accepts
//!   batches with identical semantics.
//! * **streaming range scans** — [`Dictionary::cursor`] returns a
//!   [`Cursor`] over a key interval. [`Dictionary::range`] is a default
//!   method that drains the cursor into a `Vec`, so materializing is the
//!   convenience and streaming is the primitive, not the other way round.

/// One buffered update: an upsert (`Some(val)`) or a delete (`None`).
pub type BatchOp = (u64, Option<u64>);

/// A reusable buffer of updates applied in arrival order.
///
/// Equivalent to replaying `put`/`delete` calls one at a time — within a
/// batch the *last* operation on a key wins. [`Dictionary::apply`] drains
/// the batch so the allocation can be reused for the next round.
///
/// ```
/// use cosbt_core::{Dictionary, GCola, UpdateBatch};
///
/// let mut dict = GCola::new_plain(2);
/// let mut batch = UpdateBatch::new();
/// batch.put(1, 10).put(2, 20).delete(1).put(2, 21);
/// dict.apply(&mut batch);
/// assert!(batch.is_empty(), "apply drains the batch for reuse");
/// assert_eq!(dict.get(1), None, "delete after put wins");
/// assert_eq!(dict.get(2), Some(21), "last put wins");
/// ```
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    ops: Vec<BatchOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// An empty batch with room for `n` operations.
    pub fn with_capacity(n: usize) -> UpdateBatch {
        UpdateBatch {
            ops: Vec::with_capacity(n),
        }
    }

    /// Buffers an upsert.
    pub fn put(&mut self, key: u64, val: u64) -> &mut Self {
        self.ops.push((key, Some(val)));
        self
    }

    /// Buffers a delete.
    pub fn delete(&mut self, key: u64) -> &mut Self {
        self.ops.push((key, None));
        self
    }

    /// Buffered operations in arrival order.
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Empties the batch, keeping its allocation.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// The batch collapsed to one operation per key, sorted by key — the
    /// form merge-path implementations ingest. Later operations win, so
    /// applying the normalized run yields the same dictionary state as
    /// replaying the batch in arrival order.
    pub fn normalized(&self) -> Vec<BatchOp> {
        normalize(self.ops.clone())
    }
}

/// [`UpdateBatch::normalized`] over an owned list of operations: sorted
/// by key, one operation per key, the latest arrival winning.
pub(crate) fn normalize(mut ops: Vec<BatchOp>) -> Vec<BatchOp> {
    // Stable sort keeps arrival order within equal keys.
    ops.sort_by_key(|&(k, _)| k);
    ops.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            *kept = *later;
        }
        same
    });
    ops
}

/// The engine behind a [`Cursor`]; implemented per structure.
///
/// A cursor models a *gap* between entries of the bounded key interval it
/// was created over. [`CursorOps::next`] returns the live entry just after
/// the gap and moves the gap past it; [`CursorOps::prev`] returns the
/// entry just before the gap and moves the gap before it. Consequently
/// `next()` followed by `prev()` returns the same entry twice, and a
/// drained cursor walks backward over exactly the entries it yielded.
pub trait CursorOps {
    /// Places the gap just before the first live entry with key ≥ `key`
    /// (clamped into the cursor's bounds).
    fn seek(&mut self, key: u64);

    /// The next live entry in ascending key order, if any.
    fn next(&mut self) -> Option<(u64, u64)>;

    /// The previous live entry in descending key order, if any.
    fn prev(&mut self) -> Option<(u64, u64)>;
}

/// A streaming cursor over a dictionary's live entries in `[lo, hi]`.
///
/// Obtained from [`Dictionary::cursor`]. Entries materialize one at a
/// time, so a scan touches only the blocks it actually visits — the point
/// of the streaming structures this workspace implements.
///
/// ```
/// use cosbt_core::{Dictionary, GCola};
///
/// let mut dict = GCola::new_plain(4);
/// for k in [10u64, 20, 30] {
///     dict.insert(k, k * 2);
/// }
/// let mut cur = dict.cursor(15, u64::MAX);
/// assert_eq!(cur.next(), Some((20, 40)));
/// assert_eq!(cur.prev(), Some((20, 40)), "next then prev revisits");
/// cur.seek(25);
/// assert_eq!(cur.next(), Some((30, 60)));
/// ```
pub struct Cursor<'a> {
    inner: Box<dyn CursorOps + 'a>,
}

impl<'a> Cursor<'a> {
    /// Wraps a structure-specific cursor engine.
    pub fn new(inner: impl CursorOps + 'a) -> Cursor<'a> {
        Cursor {
            inner: Box::new(inner),
        }
    }

    /// Places the gap just before the first live entry with key ≥ `key`.
    pub fn seek(&mut self, key: u64) {
        self.inner.seek(key)
    }

    /// The next live entry in ascending key order.
    #[allow(clippy::should_implement_trait)] // mirrors Iterator::next by design
    pub fn next(&mut self) -> Option<(u64, u64)> {
        self.inner.next()
    }

    /// The previous live entry in descending key order.
    pub fn prev(&mut self) -> Option<(u64, u64)> {
        self.inner.prev()
    }

    /// Drains the rest of the cursor into a `Vec` (ascending).
    pub fn collect(mut self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(kv) = self.next() {
            out.push(kv);
        }
        out
    }
}

impl std::fmt::Debug for Cursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cursor").finish_non_exhaustive()
    }
}

/// A [`Cursor`] is itself a cursor engine, so cursors compose: a
/// range-partitioned database chains one per shard into one stream.
impl CursorOps for Cursor<'_> {
    fn seek(&mut self, key: u64) {
        self.inner.seek(key)
    }

    fn next(&mut self) -> Option<(u64, u64)> {
        self.inner.next()
    }

    fn prev(&mut self) -> Option<(u64, u64)> {
        self.inner.prev()
    }
}

/// A cursor over a materialized, sorted snapshot.
///
/// The fallback engine for structures whose pending-update placement makes
/// true streaming scans impractical (messages buffered at arbitrary tree
/// depths must be merged globally anyway); also handy for reference
/// models in tests.
#[derive(Debug)]
pub struct VecCursor {
    items: Vec<(u64, u64)>,
    /// Gap position: index of the first entry after the gap.
    pos: usize,
}

impl VecCursor {
    /// A cursor over `items`, which must be sorted by key and already
    /// restricted to the requested bounds. The gap starts before the
    /// first entry.
    pub fn new(items: Vec<(u64, u64)>) -> VecCursor {
        debug_assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
        VecCursor { items, pos: 0 }
    }
}

impl CursorOps for VecCursor {
    fn seek(&mut self, key: u64) {
        self.pos = self.items.partition_point(|&(k, _)| k < key);
    }

    fn next(&mut self) -> Option<(u64, u64)> {
        let kv = *self.items.get(self.pos)?;
        self.pos += 1;
        Some(kv)
    }

    fn prev(&mut self) -> Option<(u64, u64)> {
        if self.pos == 0 {
            return None;
        }
        self.pos -= 1;
        Some(self.items[self.pos])
    }
}

/// An ordered map from `u64` keys to `u64` values supporting the streaming
/// B-tree operations: upsert, delete, point query, batched updates, and
/// streaming range scans.
///
/// Methods take `&mut self` uniformly because instrumented and file-backed
/// storage mutate cache state even on reads.
///
/// Every structure in the workspace implements this trait, so workloads
/// are written once:
///
/// ```
/// use cosbt_core::{Dictionary, GCola};
/// use cosbt_dam::PlainMem;
///
/// fn ingest(dict: &mut dyn Dictionary) {
///     dict.insert_batch(&[(1, 10), (2, 20), (3, 30)]);
///     dict.delete(2);
/// }
///
/// for dict in [
///     &mut GCola::deamortized(PlainMem::new()) as &mut dyn Dictionary,
///     &mut GCola::new_plain(4),
/// ] {
///     ingest(dict);
///     assert_eq!(dict.range(0, u64::MAX), vec![(1, 10), (3, 30)]);
/// }
/// ```
pub trait Dictionary {
    /// Inserts or overwrites `key`.
    fn insert(&mut self, key: u64, val: u64);

    /// Deletes `key` (no-op if absent).
    fn delete(&mut self, key: u64);

    /// Looks up `key`.
    fn get(&mut self, key: u64) -> Option<u64>;

    /// A streaming cursor over live entries with `lo <= key <= hi`.
    fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_>;

    /// Applies and drains `batch`, equivalent to replaying its operations
    /// in arrival order. Implementations with a merge path override this
    /// to ingest the whole batch in one restructuring pass.
    fn apply(&mut self, batch: &mut UpdateBatch) {
        for &(key, op) in batch.ops() {
            match op {
                Some(val) => self.insert(key, val),
                None => self.delete(key),
            }
        }
        batch.clear();
    }

    /// Inserts `sorted` pairs, which must be sorted by key (duplicates
    /// allowed; the last of an equal-key run wins). Merge-path
    /// implementations override this to absorb the run in one carry
    /// cascade.
    fn insert_batch(&mut self, sorted: &[(u64, u64)]) {
        debug_assert!(
            sorted.windows(2).all(|w| w[0].0 <= w[1].0),
            "insert_batch input must be sorted by key"
        );
        for &(k, v) in sorted {
            self.insert(k, v);
        }
    }

    /// All live `(key, value)` pairs with `lo <= key <= hi`, in key order.
    /// A convenience built on [`Dictionary::cursor`].
    fn range(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        if lo > hi {
            return Vec::new();
        }
        self.cursor(lo, hi).collect()
    }

    /// Number of physically stored entries. The log-structured
    /// implementations count the shadowed versions and tombstones they
    /// still hold: at most one version per key and level for the g-COLA
    /// (the basic and the deamortized COLA included), whose merges drop
    /// the rest.
    fn physical_len(&self) -> usize;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Converts a batch into the sorted one-cell-per-key run merge paths
/// ingest: puts become items, deletes become tombstones.
pub fn batch_to_cells(batch: &UpdateBatch) -> Vec<crate::entry::Cell> {
    batch
        .normalized()
        .into_iter()
        .map(|(k, op)| match op {
            Some(v) => crate::entry::Cell::item(k, v),
            None => crate::entry::Cell::tombstone(k),
        })
        .collect()
}

/// Converts a key-sorted pair slice into the one-cell-per-key run merge
/// paths ingest (the last of an equal-key group wins).
pub fn sorted_pairs_to_cells(sorted: &[(u64, u64)]) -> Vec<crate::entry::Cell> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0].0 <= w[1].0),
        "insert_batch input must be sorted by key"
    );
    dedup_sorted_last_wins(sorted)
        .into_iter()
        .map(|(k, v)| crate::entry::Cell::item(k, v))
        .collect()
}

/// Normalizes a sorted `(key, value)` slice for merge-path ingestion: one
/// entry per key, keeping the last of each equal-key run.
pub fn dedup_sorted_last_wins(sorted: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for &(k, v) in sorted {
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 = v,
            _ => out.push((k, v)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial reference implementation to exercise the trait's contract
    /// wording; the real structures are tested against `BTreeMap` models in
    /// their own modules and in the workspace conformance battery.
    struct Model(std::collections::BTreeMap<u64, u64>);

    impl Dictionary for Model {
        fn insert(&mut self, key: u64, val: u64) {
            self.0.insert(key, val);
        }
        fn delete(&mut self, key: u64) {
            self.0.remove(&key);
        }
        fn get(&mut self, key: u64) -> Option<u64> {
            self.0.get(&key).copied()
        }
        fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_> {
            Cursor::new(VecCursor::new(
                self.0.range(lo..=hi).map(|(&k, &v)| (k, v)).collect(),
            ))
        }
        fn physical_len(&self) -> usize {
            self.0.len()
        }
        fn name(&self) -> &'static str {
            "model"
        }
    }

    #[test]
    fn model_satisfies_contract() {
        let mut m = Model(Default::default());
        m.insert(5, 50);
        m.insert(5, 51);
        assert_eq!(m.get(5), Some(51), "insert is upsert");
        m.delete(5);
        assert_eq!(m.get(5), None);
        m.insert(1, 10);
        m.insert(3, 30);
        assert_eq!(m.range(0, 2), vec![(1, 10)]);
        assert_eq!(m.range(1, 3), vec![(1, 10), (3, 30)]);
        assert_eq!(m.range(3, 1), vec![], "inverted bounds are empty");
    }

    #[test]
    fn batch_replay_semantics() {
        let mut m = Model(Default::default());
        let mut b = UpdateBatch::new();
        b.put(1, 10).put(2, 20).delete(1).put(2, 21).put(3, 30);
        assert_eq!(b.len(), 5);
        m.apply(&mut b);
        assert!(b.is_empty(), "apply drains the batch");
        assert_eq!(m.get(1), None, "delete after put wins");
        assert_eq!(m.get(2), Some(21), "last put wins");
        assert_eq!(m.get(3), Some(30));
    }

    #[test]
    fn batch_normalization_last_wins() {
        let mut b = UpdateBatch::new();
        b.put(5, 1).put(3, 2).delete(5).put(4, 3).put(3, 9);
        assert_eq!(b.normalized(), vec![(3, Some(9)), (4, Some(3)), (5, None)]);
        // Normalization does not consume the batch.
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn insert_batch_default_loops() {
        let mut m = Model(Default::default());
        m.insert_batch(&[(1, 10), (2, 20), (2, 21), (7, 70)]);
        assert_eq!(m.get(2), Some(21), "last duplicate wins");
        assert_eq!(m.range(0, 10), vec![(1, 10), (2, 21), (7, 70)]);
    }

    #[test]
    fn cursor_gap_semantics() {
        let mut m = Model(Default::default());
        for k in [10u64, 20, 30, 40] {
            m.insert(k, k * 2);
        }
        let mut c = m.cursor(15, 40);
        assert_eq!(c.next(), Some((20, 40)));
        assert_eq!(c.prev(), Some((20, 40)), "next then prev revisits");
        assert_eq!(c.next(), Some((20, 40)));
        assert_eq!(c.next(), Some((30, 60)));
        c.seek(40);
        assert_eq!(c.prev(), Some((30, 60)), "seek gap sits before target");
        assert_eq!(c.next(), Some((30, 60)));
        assert_eq!(c.next(), Some((40, 80)));
        assert_eq!(c.next(), None);
        assert_eq!(c.prev(), Some((40, 80)), "exhausted cursor walks back");
    }

    #[test]
    fn dedup_keeps_last() {
        assert_eq!(
            dedup_sorted_last_wins(&[(1, 1), (1, 2), (2, 5), (3, 1), (3, 3)]),
            vec![(1, 2), (2, 5), (3, 3)]
        );
    }
}

//! The B+-tree proper.

use cosbt_core::{Cursor, CursorOps};
use cosbt_dam::{PageStore, VecPages, DEFAULT_PAGE_SIZE};

use crate::node::*;

/// A B+-tree over any page store. Keys and values are `u64`, matching the
/// paper's experimental setup.
///
/// Deletion is *lazy* (entries are removed from leaves, but underfull
/// leaves are not rebalanced), the common practical choice — e.g. the
/// paper's own comparison target workload never shrinks. All other
/// operations keep nodes within classic B-tree bounds.
#[derive(Debug)]
pub struct BTree<P: PageStore> {
    store: P,
    root: u32,
    height: u32, // 1 = root is a leaf
    len: usize,
    inserted_flag: bool,
}

impl BTree<VecPages> {
    /// A B+-tree over plain heap pages of 4 KiB.
    pub fn new_plain() -> Self {
        Self::new(VecPages::new(DEFAULT_PAGE_SIZE))
    }
}

impl<P: PageStore> BTree<P> {
    /// Creates an empty tree over `store` (must be empty).
    pub fn new(mut store: P) -> Self {
        assert_eq!(store.num_pages(), 0, "store must be empty");
        let root = store.alloc_page();
        store.with_page_mut(root, |pg| {
            set_node_type(pg, LEAF);
            set_count(pg, 0);
            set_next_leaf(pg, NO_PAGE);
        });
        BTree {
            store,
            root,
            height: 1,
            len: 0,
            inserted_flag: false,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        self.store.num_pages()
    }

    /// Borrow the backing store (for I/O statistics).
    pub fn store(&self) -> &P {
        &self.store
    }

    /// Mutably borrow the backing store (to drop caches etc.).
    pub fn store_mut(&mut self) -> &mut P {
        &mut self.store
    }

    fn leaf_for(&mut self, key: u64) -> u32 {
        let mut page = self.root;
        for _ in 1..self.height {
            page = self
                .store
                .with_page(page, |pg| branch_child(pg, branch_descend(pg, key)));
        }
        page
    }

    /// Point lookup.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        let leaf = self.leaf_for(key);
        self.store.with_page(leaf, |pg| {
            let i = leaf_lower_bound(pg, key);
            if i < count(pg) && leaf_key(pg, i) == key {
                Some(leaf_val(pg, i))
            } else {
                None
            }
        })
    }

    /// Inserts or overwrites `key`.
    pub fn insert(&mut self, key: u64, val: u64) {
        self.inserted_flag = false;
        if let Some((sep, right)) = self.insert_rec(self.root, self.height, key, val) {
            let new_root = self.store.alloc_page();
            let old_root = self.root;
            self.store.with_page_mut(new_root, |pg| {
                set_node_type(pg, BRANCH);
                set_count(pg, 1);
                set_branch_key(pg, 0, sep);
                set_branch_child(pg, 0, old_root);
                set_branch_child(pg, 1, right);
            });
            self.root = new_root;
            self.height += 1;
        }
        if self.inserted_flag {
            self.len += 1;
        }
    }

    fn insert_rec(&mut self, page: u32, height: u32, key: u64, val: u64) -> Option<(u64, u32)> {
        if height == 1 {
            return self.insert_leaf(page, key, val);
        }
        let ps = self.store.page_size();
        let (idx, child) = self.store.with_page(page, |pg| {
            let i = branch_descend(pg, key);
            (i, branch_child(pg, i))
        });
        let (sep, right) = self.insert_rec(child, height - 1, key, val)?;
        let fits = self.store.with_page_mut(page, |pg| {
            if count(pg) < branch_cap(ps) {
                branch_insert_at(pg, idx, sep, right);
                true
            } else {
                false
            }
        });
        if fits {
            return None;
        }
        // Split the branch: gather, splice in the new separator, split.
        let (mut keys, mut kids) = self.store.with_page(page, |pg| {
            let n = count(pg);
            let keys: Vec<u64> = (0..n).map(|i| branch_key(pg, i)).collect();
            let kids: Vec<u32> = (0..=n).map(|i| branch_child(pg, i)).collect();
            (keys, kids)
        });
        keys.insert(idx, sep);
        kids.insert(idx + 1, right);
        let mid = keys.len() / 2;
        let promoted = keys[mid];
        let right_page = self.store.alloc_page();
        let (rkeys, rkids) = (keys.split_off(mid + 1), kids.split_off(mid + 1));
        keys.pop(); // the promoted key moves up
        self.store.with_page_mut(page, |pg| {
            set_count(pg, keys.len());
            for (i, &k) in keys.iter().enumerate() {
                set_branch_key(pg, i, k);
            }
            for (i, &c) in kids.iter().enumerate() {
                set_branch_child(pg, i, c);
            }
        });
        self.store.with_page_mut(right_page, |pg| {
            set_node_type(pg, BRANCH);
            set_count(pg, rkeys.len());
            for (i, &k) in rkeys.iter().enumerate() {
                set_branch_key(pg, i, k);
            }
            for (i, &c) in rkids.iter().enumerate() {
                set_branch_child(pg, i, c);
            }
        });
        Some((promoted, right_page))
    }

    fn insert_leaf(&mut self, page: u32, key: u64, val: u64) -> Option<(u64, u32)> {
        let ps = self.store.page_size();
        let cap = leaf_cap(ps);
        #[derive(PartialEq)]
        enum Outcome {
            Done { new: bool },
            Split,
        }
        let outcome = self.store.with_page_mut(page, |pg| {
            let i = leaf_lower_bound(pg, key);
            let n = count(pg);
            if i < n && leaf_key(pg, i) == key {
                set_leaf_pair(pg, i, key, val);
                return Outcome::Done { new: false };
            }
            if n < cap {
                leaf_make_room(pg, i);
                set_leaf_pair(pg, i, key, val);
                set_count(pg, n + 1);
                return Outcome::Done { new: true };
            }
            Outcome::Split
        });
        match outcome {
            Outcome::Done { new } => {
                self.inserted_flag = new;
                None
            }
            Outcome::Split => {
                let right = self.store.alloc_page();
                let (tail, old_next) = self.store.with_page_mut(page, |pg| {
                    let n = count(pg);
                    let mid = n / 2;
                    let tail: Vec<(u64, u64)> = (mid..n)
                        .map(|i| (leaf_key(pg, i), leaf_val(pg, i)))
                        .collect();
                    set_count(pg, mid);
                    let nx = next_leaf(pg);
                    set_next_leaf(pg, right);
                    (tail, nx)
                });
                let sep = tail[0].0;
                self.store.with_page_mut(right, |pg| {
                    set_node_type(pg, LEAF);
                    set_count(pg, tail.len());
                    for (i, &(k, v)) in tail.iter().enumerate() {
                        set_leaf_pair(pg, i, k, v);
                    }
                    set_next_leaf(pg, old_next);
                });
                let target = if key < sep { page } else { right };
                self.store.with_page_mut(target, |pg| {
                    let i = leaf_lower_bound(pg, key);
                    leaf_make_room(pg, i);
                    set_leaf_pair(pg, i, key, val);
                    set_count(pg, count(pg) + 1);
                });
                self.inserted_flag = true;
                Some((sep, right))
            }
        }
    }

    /// Deletes `key` if present; returns whether it was.
    pub fn delete(&mut self, key: u64) -> bool {
        let leaf = self.leaf_for(key);
        let removed = self.store.with_page_mut(leaf, |pg| {
            let i = leaf_lower_bound(pg, key);
            if i < count(pg) && leaf_key(pg, i) == key {
                leaf_remove(pg, i);
                true
            } else {
                false
            }
        });
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// All pairs with `lo <= key <= hi`, in key order — the materializing
    /// convenience over [`BTreeCursor`]'s leaf-chain walk.
    pub fn range(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        if lo > hi {
            return Vec::new();
        }
        Cursor::new(BTreeCursor::new(self, lo, hi)).collect()
    }

    /// The last entry with key ≤ `ub`, if any — the backward-step
    /// primitive of [`BTreeCursor`]. Descends one root-to-leaf path,
    /// falling back to earlier siblings when lazy deletion left leaves
    /// empty.
    fn last_le(&mut self, ub: u64) -> Option<(u64, u64)> {
        self.last_le_rec(self.root, self.height, ub)
    }

    fn last_le_rec(&mut self, page: u32, height: u32, ub: u64) -> Option<(u64, u64)> {
        if height == 1 {
            return self.store.with_page(page, |pg| {
                // First index with key > ub.
                let (mut lo, mut hi) = (0usize, count(pg));
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if leaf_key(pg, mid) <= ub {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                (lo > 0).then(|| (leaf_key(pg, lo - 1), leaf_val(pg, lo - 1)))
            });
        }
        let kids: Vec<u32> = self.store.with_page(page, |pg| {
            let start = branch_descend(pg, ub);
            (0..=start).map(|i| branch_child(pg, i)).collect()
        });
        for &child in kids.iter().rev() {
            if let Some(hit) = self.last_le_rec(child, height - 1, ub) {
                return Some(hit);
            }
        }
        None
    }

    /// Builds a tree from sorted, strictly-increasing `(key, value)` pairs
    /// by packing full leaves left to right and stacking branch levels —
    /// the proper form of the paper's "we first sorted the N random
    /// elements then inserted them" Figure 4 preparation.
    ///
    /// # Panics
    /// If the tree is not empty or `pairs` is not strictly increasing.
    pub fn bulk_load(&mut self, pairs: &[(u64, u64)]) {
        assert_eq!(self.len, 0, "bulk_load requires an empty tree");
        if pairs.is_empty() {
            return;
        }
        for w in pairs.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "bulk_load input must be strictly increasing"
            );
        }
        let ps = self.store.page_size();
        let lcap = leaf_cap(ps);
        let bcap = branch_cap(ps);

        // Level 0: leaves. Reuse the existing (empty) root page first.
        let mut nodes: Vec<(u64, u32)> = Vec::new(); // (first key, page)
        let mut prev_leaf: Option<u32> = None;
        for chunk in pairs.chunks(lcap) {
            let page = if nodes.is_empty() {
                self.root
            } else {
                self.store.alloc_page()
            };
            self.store.with_page_mut(page, |pg| {
                set_node_type(pg, LEAF);
                set_count(pg, chunk.len());
                for (i, &(k, v)) in chunk.iter().enumerate() {
                    set_leaf_pair(pg, i, k, v);
                }
                set_next_leaf(pg, NO_PAGE);
            });
            if let Some(prev) = prev_leaf {
                self.store.with_page_mut(prev, |pg| set_next_leaf(pg, page));
            }
            prev_leaf = Some(page);
            nodes.push((chunk[0].0, page));
        }

        // Stack branch levels until one node remains.
        let mut height = 1u32;
        while nodes.len() > 1 {
            let mut next_level: Vec<(u64, u32)> = Vec::new();
            for group in nodes.chunks(bcap + 1) {
                let page = self.store.alloc_page();
                self.store.with_page_mut(page, |pg| {
                    set_node_type(pg, BRANCH);
                    set_count(pg, group.len() - 1);
                    for (i, &(first_key, child)) in group.iter().enumerate() {
                        set_branch_child(pg, i, child);
                        if i > 0 {
                            set_branch_key(pg, i - 1, first_key);
                        }
                    }
                });
                next_level.push((group[0].0, page));
            }
            nodes = next_level;
            height += 1;
        }
        self.root = nodes[0].1;
        self.height = height;
        self.len = pairs.len();
    }

    /// Verifies tree invariants (for tests): key ordering within and
    /// across nodes, leaf-chain consistency, and entry count.
    pub fn check_invariants(&mut self) {
        let root = self.root;
        let height = self.height;
        let counted = self.check_node(root, height, None, None);
        assert_eq!(counted, self.len, "entry count mismatch");
    }

    fn check_node(&mut self, page: u32, height: u32, lo: Option<u64>, hi: Option<u64>) -> usize {
        if height == 1 {
            let pairs: Vec<u64> = self.store.with_page(page, |pg| {
                assert_eq!(node_type(pg), LEAF);
                (0..count(pg)).map(|i| leaf_key(pg, i)).collect()
            });
            for w in pairs.windows(2) {
                assert!(w[0] < w[1], "leaf keys not strictly increasing");
            }
            for &k in &pairs {
                if let Some(l) = lo {
                    assert!(k >= l, "leaf key below subtree bound");
                }
                if let Some(h) = hi {
                    assert!(k < h, "leaf key above subtree bound");
                }
            }
            return pairs.len();
        }
        let (keys, kids): (Vec<u64>, Vec<u32>) = self.store.with_page(page, |pg| {
            assert_eq!(node_type(pg), BRANCH);
            let n = count(pg);
            assert!(n >= 1, "branch must have at least one key");
            (
                (0..n).map(|i| branch_key(pg, i)).collect(),
                (0..=n).map(|i| branch_child(pg, i)).collect(),
            )
        });
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "branch keys not strictly increasing");
        }
        let mut total = 0;
        for (i, &child) in kids.iter().enumerate() {
            let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
            let chi = if i == keys.len() { hi } else { Some(keys[i]) };
            total += self.check_node(child, height - 1, clo, chi);
        }
        total
    }
}

/// A streaming cursor over a [`BTree`]'s entries in `[lo, hi]`.
///
/// Forward steps walk the leaf chain in place — `O(1)` amortized page
/// touches per entry. Backward steps re-descend from the root (the leaf
/// chain is singly linked), costing `O(log_B N)` page touches each.
pub struct BTreeCursor<'a, P: PageStore> {
    tree: &'a mut BTree<P>,
    lo: u64,
    hi: u64,
    /// Gap bound: the next ascending result has key ≥ this (`None` = past
    /// the end of the key space).
    gap: Option<u64>,
    /// Cached forward position: leaf page + entry index for the gap.
    fwd: Option<(u32, usize)>,
}

impl<'a, P: PageStore> BTreeCursor<'a, P> {
    fn new(tree: &'a mut BTree<P>, lo: u64, hi: u64) -> Self {
        BTreeCursor {
            tree,
            lo,
            hi,
            gap: Some(lo),
            fwd: None,
        }
    }
}

impl<P: PageStore> CursorOps for BTreeCursor<'_, P> {
    fn seek(&mut self, key: u64) {
        self.gap = Some(key.max(self.lo));
        self.fwd = None;
    }

    fn next(&mut self) -> Option<(u64, u64)> {
        let g = self.gap?;
        let (mut page, mut idx) = match self.fwd {
            Some(pos) => pos,
            None => {
                let leaf = self.tree.leaf_for(g);
                let idx = self
                    .tree
                    .store
                    .with_page(leaf, |pg| leaf_lower_bound(pg, g));
                (leaf, idx)
            }
        };
        loop {
            let (entry, next) = self.tree.store.with_page(page, |pg| {
                let entry = (idx < count(pg)).then(|| (leaf_key(pg, idx), leaf_val(pg, idx)));
                (entry, next_leaf(pg))
            });
            match entry {
                Some((k, v)) if k <= self.hi => {
                    self.fwd = Some((page, idx + 1));
                    self.gap = k.checked_add(1);
                    return Some((k, v));
                }
                Some(_) => {
                    self.fwd = Some((page, idx));
                    return None;
                }
                None if next == NO_PAGE => {
                    self.fwd = Some((page, idx));
                    return None;
                }
                None => {
                    page = next;
                    idx = 0;
                }
            }
        }
    }

    fn prev(&mut self) -> Option<(u64, u64)> {
        self.fwd = None;
        let ub = match self.gap {
            None => self.hi,
            Some(0) => return None,
            Some(g) => self.hi.min(g - 1),
        };
        match self.tree.last_le(ub) {
            Some((k, v)) if k >= self.lo => {
                self.gap = Some(k);
                Some((k, v))
            }
            _ => None,
        }
    }
}

/// Per-structure metadata format version (see `cosbt_core::persist`).
const META_VERSION: u8 = 1;

impl<P: PageStore> BTree<P> {
    /// Reconstructs a B-tree over an already-populated `store` from
    /// persisted control state (root page, height, entry count).
    pub fn from_parts(store: P, meta: &[u8]) -> Result<Self, cosbt_core::MetaError> {
        use cosbt_core::{persist::TAG_BTREE, MetaError, MetaReader};
        let mut r = MetaReader::new(meta, TAG_BTREE, META_VERSION)?;
        let root = r.u32()?;
        let height = r.u32()?;
        let len = r.usize()?;
        r.finish()?;
        if root >= store.num_pages() {
            return Err(MetaError::Invalid(format!(
                "root page {root} out of bounds ({} pages)",
                store.num_pages()
            )));
        }
        if height == 0 {
            return Err(MetaError::Invalid("zero height".into()));
        }
        Ok(BTree {
            store,
            root,
            height,
            len,
            inserted_flag: false,
        })
    }
}

impl<P: PageStore> cosbt_core::Persist for BTree<P> {
    fn save_meta(&mut self) -> Vec<u8> {
        use cosbt_core::{persist::TAG_BTREE, MetaWriter};
        let mut w = MetaWriter::new(TAG_BTREE, META_VERSION);
        w.u32(self.root).u32(self.height).usize(self.len);
        w.finish()
    }
}

impl<P: PageStore> cosbt_core::Dictionary for BTree<P> {
    fn insert(&mut self, key: u64, val: u64) {
        BTree::insert(self, key, val)
    }

    fn delete(&mut self, key: u64) {
        BTree::delete(self, key);
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        BTree::get(self, key)
    }

    fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_> {
        Cursor::new(BTreeCursor::new(self, lo, hi))
    }

    fn physical_len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "b-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_queries() {
        let mut t = BTree::new_plain();
        assert_eq!(t.get(5), None);
        assert!(!t.delete(5));
        assert_eq!(t.range(0, u64::MAX), vec![]);
        assert_eq!(t.height(), 1);
        t.check_invariants();
    }

    #[test]
    fn random_inserts_match_model() {
        let mut t = BTree::new_plain();
        let mut model = std::collections::BTreeMap::new();
        let mut x: u64 = 1;
        for i in 0..30_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % 10_000;
            t.insert(k, i);
            model.insert(k, i);
        }
        assert_eq!(t.len(), model.len());
        for k in 0..10_000u64 {
            assert_eq!(t.get(k), model.get(&k).copied(), "key {k}");
        }
        assert!(t.height() >= 2, "should have split");
        t.check_invariants();
    }

    #[test]
    fn sorted_inserts_build_valid_tree() {
        for desc in [false, true] {
            let mut t = BTree::new_plain();
            let n = 20_000u64;
            for i in 0..n {
                let k = if desc { n - 1 - i } else { i };
                t.insert(k, k * 2);
            }
            t.check_invariants();
            for k in (0..n).step_by(97) {
                assert_eq!(t.get(k), Some(k * 2));
            }
        }
    }

    #[test]
    fn upsert_overwrites() {
        let mut t = BTree::new_plain();
        t.insert(7, 70);
        t.insert(7, 71);
        assert_eq!(t.get(7), Some(71));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn deletes_lazy_but_correct() {
        let mut t = BTree::new_plain();
        for k in 0..5000u64 {
            t.insert(k, k);
        }
        for k in (0..5000u64).step_by(2) {
            assert!(t.delete(k));
        }
        assert!(!t.delete(0), "double delete");
        assert_eq!(t.len(), 2500);
        for k in 0..5000u64 {
            assert_eq!(t.get(k), (k % 2 == 1).then_some(k), "key {k}");
        }
        t.check_invariants();
    }

    #[test]
    fn range_spans_leaves() {
        let mut t = BTree::new_plain();
        for k in 0..3000u64 {
            t.insert(k * 2, k);
        }
        let got = t.range(1000, 2000);
        let want: Vec<(u64, u64)> = (500..=1000).map(|k| (k * 2, k)).collect();
        assert_eq!(got, want);
        assert_eq!(t.range(1, 1), vec![]);
        assert_eq!(t.range(0, 0), vec![(0, 0)]);
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let pairs: Vec<(u64, u64)> = (0..50_000u64).map(|k| (k * 3, k)).collect();
        let mut bulk = BTree::new_plain();
        bulk.bulk_load(&pairs);
        bulk.check_invariants();
        assert_eq!(bulk.len(), pairs.len());
        for &(k, v) in pairs.iter().step_by(173) {
            assert_eq!(bulk.get(k), Some(v));
            assert_eq!(bulk.get(k + 1), None);
        }
        assert_eq!(bulk.range(0, u64::MAX), pairs);
    }

    #[test]
    fn search_transfers_are_logarithmic_base_b() {
        use cosbt_dam::{new_shared_sim, CacheConfig, SimPages};
        let sim = new_shared_sim(CacheConfig::new(4096, 8));
        let mut t = BTree::new(SimPages::new(sim.clone(), 4096));
        let pairs: Vec<(u64, u64)> = (0..200_000u64).map(|k| (k, k)).collect();
        t.bulk_load(&pairs);
        // Cold cache, then measure per-search fetches: at most height
        // (≈ log_{256} N = 3) per random search.
        sim.borrow_mut().drop_cache();
        sim.borrow_mut().reset_stats();
        let mut x: u64 = 5;
        let probes = 500u64;
        for _ in 0..probes {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.get(x % 200_000);
        }
        let per = sim.borrow().stats().fetches as f64 / probes as f64;
        assert!(
            per <= t.height() as f64 + 0.5,
            "fetches/search {per} vs height {}",
            t.height()
        );
    }

    #[test]
    fn works_over_file_pages() {
        use cosbt_dam::FilePages;
        let path = cosbt_testkit::TempPath::new("btree.db");
        let store = FilePages::create(&path, 4096, 16).unwrap();
        let mut t = BTree::new(store);
        for k in 0..10_000u64 {
            t.insert(k.wrapping_mul(0x9E3779B97F4A7C15) % 65536, k);
        }
        t.store_mut().drop_cache().unwrap();
        let mut model = std::collections::BTreeMap::new();
        for k in 0..10_000u64 {
            model.insert(k.wrapping_mul(0x9E3779B97F4A7C15) % 65536, k);
        }
        for (&k, &v) in model.iter().step_by(37) {
            assert_eq!(t.get(k), Some(v));
        }
        assert!(t.store().stats().fetches > 0, "should have done real I/O");
    }
}

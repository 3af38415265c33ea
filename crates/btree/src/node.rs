//! On-page node layout and accessors.
//!
//! Pages are raw byte arrays (so the same code runs over heap, simulated,
//! and file-backed stores); these helpers implement the slotted layout:
//!
//! ```text
//! header (16 bytes): [0] node_type  [2..4] count  [4..8] next-leaf (leaf)
//! leaf   payload:    count * (key u64, val u64)      pairs, sorted
//! branch payload:    count * key u64, then (count+1) * child u32
//! ```

/// Node type tag for leaves.
pub const LEAF: u8 = 0;
/// Node type tag for internal (branch) nodes.
pub const BRANCH: u8 = 1;

/// Header size in bytes.
pub const HDR: usize = 16;

/// "No page" sentinel for the leaf chain.
pub const NO_PAGE: u32 = u32::MAX;

/// Maximum pairs in a leaf of a `page_size` page.
#[inline]
pub fn leaf_cap(page_size: usize) -> usize {
    (page_size - HDR) / 16
}

/// Maximum keys in a branch of a `page_size` page (children = keys + 1).
#[inline]
pub fn branch_cap(page_size: usize) -> usize {
    (page_size - HDR - 4) / 12
}

#[inline]
fn ru64(pg: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(pg[off..off + 8].try_into().unwrap())
}

#[inline]
fn wu64(pg: &mut [u8], off: usize, v: u64) {
    pg[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[inline]
fn ru32(pg: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(pg[off..off + 4].try_into().unwrap())
}

#[inline]
fn wu32(pg: &mut [u8], off: usize, v: u32) {
    pg[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Node type tag of the page.
#[inline]
pub fn node_type(pg: &[u8]) -> u8 {
    pg[0]
}

/// Sets the node type tag.
#[inline]
pub fn set_node_type(pg: &mut [u8], t: u8) {
    pg[0] = t;
}

/// Number of keys (branch) or pairs (leaf).
#[inline]
pub fn count(pg: &[u8]) -> usize {
    u16::from_le_bytes(pg[2..4].try_into().unwrap()) as usize
}

/// Sets the count.
#[inline]
pub fn set_count(pg: &mut [u8], n: usize) {
    pg[2..4].copy_from_slice(&(n as u16).to_le_bytes());
}

/// Next leaf in the chain ([`NO_PAGE`] when last).
#[inline]
pub fn next_leaf(pg: &[u8]) -> u32 {
    ru32(pg, 4)
}

/// Sets the next-leaf pointer.
#[inline]
pub fn set_next_leaf(pg: &mut [u8], id: u32) {
    wu32(pg, 4, id)
}

// ---- leaf accessors ----

/// Key of pair `i` in a leaf.
#[inline]
pub fn leaf_key(pg: &[u8], i: usize) -> u64 {
    ru64(pg, HDR + 16 * i)
}

/// Value of pair `i` in a leaf.
#[inline]
pub fn leaf_val(pg: &[u8], i: usize) -> u64 {
    ru64(pg, HDR + 16 * i + 8)
}

/// Writes pair `i` of a leaf.
#[inline]
pub fn set_leaf_pair(pg: &mut [u8], i: usize, key: u64, val: u64) {
    wu64(pg, HDR + 16 * i, key);
    wu64(pg, HDR + 16 * i + 8, val);
}

/// First index in the leaf with key ≥ `key` (binary search).
pub fn leaf_lower_bound(pg: &[u8], key: u64) -> usize {
    let (mut lo, mut hi) = (0usize, count(pg));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if leaf_key(pg, mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Shifts pairs `[i, n)` right by one (making room at `i`).
pub fn leaf_make_room(pg: &mut [u8], i: usize) {
    let n = count(pg);
    pg.copy_within(HDR + 16 * i..HDR + 16 * n, HDR + 16 * (i + 1));
}

/// Removes pair `i`, shifting the tail left.
pub fn leaf_remove(pg: &mut [u8], i: usize) {
    let n = count(pg);
    pg.copy_within(HDR + 16 * (i + 1)..HDR + 16 * n, HDR + 16 * i);
    set_count(pg, n - 1);
}

// ---- branch accessors ----

/// Byte offset of the children array for a given page size.
#[inline]
fn child_base(page_size: usize) -> usize {
    HDR + 8 * branch_cap(page_size)
}

/// Key `i` of a branch node.
#[inline]
pub fn branch_key(pg: &[u8], i: usize) -> u64 {
    ru64(pg, HDR + 8 * i)
}

/// Sets key `i` of a branch node.
#[inline]
pub fn set_branch_key(pg: &mut [u8], i: usize, key: u64) {
    wu64(pg, HDR + 8 * i, key)
}

/// Child `i` of a branch node (`0 ..= count`).
#[inline]
pub fn branch_child(pg: &[u8], i: usize) -> u32 {
    ru32(pg, child_base(pg.len()) + 4 * i)
}

/// Sets child `i` of a branch node.
#[inline]
pub fn set_branch_child(pg: &mut [u8], i: usize, child: u32) {
    let base = child_base(pg.len());
    wu32(pg, base + 4 * i, child)
}

/// Child index to follow for `key`: first child whose separator exceeds
/// `key`. Separator semantics: keys in child `i` are < key\[i\]; keys in
/// child `i+1` are ≥ key\[i\].
pub fn branch_descend(pg: &[u8], key: u64) -> usize {
    let (mut lo, mut hi) = (0usize, count(pg));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if branch_key(pg, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Inserts `(key, right_child)` after position `i` in a branch node.
pub fn branch_insert_at(pg: &mut [u8], i: usize, key: u64, right: u32) {
    let n = count(pg);
    pg.copy_within(HDR + 8 * i..HDR + 8 * n, HDR + 8 * (i + 1));
    set_branch_key(pg, i, key);
    let base = child_base(pg.len());
    pg.copy_within(base + 4 * (i + 1)..base + 4 * (n + 1), base + 4 * (i + 2));
    set_branch_child(pg, i + 1, right);
    set_count(pg, n + 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 4096;

    #[test]
    fn capacities_match_paper_geometry() {
        assert_eq!(leaf_cap(PS), 255);
        assert_eq!(branch_cap(PS), 339);
        // branch layout fits: header + keys + children
        assert!(HDR + 8 * branch_cap(PS) + 4 * (branch_cap(PS) + 1) <= PS);
    }

    #[test]
    fn leaf_roundtrip_and_search() {
        let mut pg = vec![0u8; PS];
        set_node_type(&mut pg, LEAF);
        for i in 0..10 {
            set_leaf_pair(&mut pg, i, (i as u64) * 10, i as u64);
        }
        set_count(&mut pg, 10);
        assert_eq!(leaf_key(&pg, 3), 30);
        assert_eq!(leaf_val(&pg, 3), 3);
        assert_eq!(leaf_lower_bound(&pg, 30), 3);
        assert_eq!(leaf_lower_bound(&pg, 31), 4);
        assert_eq!(leaf_lower_bound(&pg, 0), 0);
        assert_eq!(leaf_lower_bound(&pg, 1000), 10);
    }

    #[test]
    fn leaf_make_room_and_remove() {
        let mut pg = vec![0u8; PS];
        set_node_type(&mut pg, LEAF);
        for i in 0..5 {
            set_leaf_pair(&mut pg, i, i as u64 * 2, 0);
        }
        set_count(&mut pg, 5);
        leaf_make_room(&mut pg, 2);
        set_leaf_pair(&mut pg, 2, 3, 99);
        set_count(&mut pg, 6);
        let keys: Vec<u64> = (0..6).map(|i| leaf_key(&pg, i)).collect();
        assert_eq!(keys, vec![0, 2, 3, 4, 6, 8]);
        leaf_remove(&mut pg, 2);
        let keys: Vec<u64> = (0..5).map(|i| leaf_key(&pg, i)).collect();
        assert_eq!(keys, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn branch_descend_separator_semantics() {
        let mut pg = vec![0u8; PS];
        set_node_type(&mut pg, BRANCH);
        set_branch_key(&mut pg, 0, 10);
        set_branch_key(&mut pg, 1, 20);
        set_count(&mut pg, 2);
        for i in 0..3 {
            set_branch_child(&mut pg, i, 100 + i as u32);
        }
        assert_eq!(branch_descend(&pg, 5), 0);
        assert_eq!(branch_descend(&pg, 10), 1, "key == separator goes right");
        assert_eq!(branch_descend(&pg, 15), 1);
        assert_eq!(branch_descend(&pg, 25), 2);
        assert_eq!(branch_child(&pg, branch_descend(&pg, 25)), 102);
    }

    #[test]
    fn branch_insert_preserves_order() {
        let mut pg = vec![0u8; PS];
        set_node_type(&mut pg, BRANCH);
        set_branch_key(&mut pg, 0, 10);
        set_branch_key(&mut pg, 1, 30);
        set_count(&mut pg, 2);
        for i in 0..3 {
            set_branch_child(&mut pg, i, i as u32);
        }
        branch_insert_at(&mut pg, 1, 20, 9);
        assert_eq!(count(&pg), 3);
        let keys: Vec<u64> = (0..3).map(|i| branch_key(&pg, i)).collect();
        assert_eq!(keys, vec![10, 20, 30]);
        let kids: Vec<u32> = (0..4).map(|i| branch_child(&pg, i)).collect();
        assert_eq!(kids, vec![0, 1, 9, 2]);
    }
}

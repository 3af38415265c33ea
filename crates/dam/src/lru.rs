//! An exact LRU cache over abstract block identifiers.
//!
//! [`LruCache`] is the replacement policy of the DAM simulator
//! ([`crate::IoSim`]): a classic slab-backed intrusive doubly-linked list
//! plus a hash map, so every operation is O(1) over sparse 64-bit block
//! ids. The user-space page cache backing [`crate::FilePages`] runs the
//! same policy over dense page ids in `FrameSlab`, which indexes instead
//! of hashing and keeps the page bytes in the list nodes.

use std::collections::HashMap;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    block: u64,
    prev: usize,
    next: usize,
    dirty: bool,
}

/// Outcome of [`LruCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The block was already resident.
    Hit,
    /// The block was fetched; `evicted` is the block that was displaced to
    /// make room (with its dirty bit), if the cache was full.
    Miss {
        /// Evicted `(block, was_dirty)` pair, if any.
        evicted: Option<(u64, bool)>,
    },
}

/// A fixed-capacity LRU cache tracking residency and dirty bits of blocks.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    map: HashMap<u64, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl LruCache {
    /// Creates a cache that can hold `capacity` blocks (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU cache capacity must be at least 1");
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `block` is resident (does not affect recency).
    pub fn contains(&self, block: u64) -> bool {
        self.map.contains_key(&block)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Touches `block`, marking it dirty if `write`. Returns whether this
    /// was a hit, and on a miss which block (if any) was evicted.
    pub fn access(&mut self, block: u64, write: bool) -> Access {
        if let Some(&idx) = self.map.get(&block) {
            self.unlink(idx);
            self.push_front(idx);
            if write {
                self.nodes[idx].dirty = true;
            }
            return Access::Hit;
        }
        let evicted = if self.map.len() == self.capacity {
            let victim = self.tail;
            let node = self.nodes[victim];
            self.unlink(victim);
            self.map.remove(&node.block);
            self.free.push(victim);
            Some((node.block, node.dirty))
        } else {
            None
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node {
                block,
                prev: NIL,
                next: NIL,
                dirty: write,
            };
            idx
        } else {
            self.nodes.push(Node {
                block,
                prev: NIL,
                next: NIL,
                dirty: write,
            });
            self.nodes.len() - 1
        };
        self.map.insert(block, idx);
        self.push_front(idx);
        Access::Miss { evicted }
    }

    /// Removes every resident block, returning the dirty ones in eviction
    /// (least-recently-used first) order.
    pub fn flush(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        let mut cur = self.tail;
        while cur != NIL {
            let node = self.nodes[cur];
            if node.dirty {
                dirty.push(node.block);
            }
            cur = node.prev;
        }
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        dirty
    }

    /// Evicts a specific block if resident, returning its dirty bit.
    pub fn evict(&mut self, block: u64) -> Option<bool> {
        let idx = self.map.remove(&block)?;
        let dirty = self.nodes[idx].dirty;
        self.unlink(idx);
        self.free.push(idx);
        Some(dirty)
    }

    /// Blocks currently resident, most-recently-used first.
    pub fn resident_blocks(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.nodes[cur].block);
            cur = self.nodes[cur].next;
        }
        out
    }
}

/// The resident set of a [`crate::FilePages`] store: page frames under
/// the same exact LRU policy as [`LruCache`], without the hash map.
///
/// Logical page ids are dense, so residency is a `Vec` index (`slot`),
/// and each frame owns its page bytes, its dirty bit and its LRU
/// links — a resident-page touch is two array reads, and a touch of the
/// page that is already most recently used skips the relink. Eviction
/// order and victims are those of [`LruCache`] on the same trace (the
/// `frame_slab_matches_lru_cache_on_random_trace` test pins it).
///
/// A frame has one dirty bit: set by a write, cleared when the store
/// writes the page out (a sync), and reported by
/// [`FrameSlab::evict_lru`], so a victim is written back iff it changed
/// since it was last written out — once per change, as the DAM model
/// charges.
#[derive(Debug)]
pub(crate) struct FrameSlab {
    capacity: usize,
    /// Logical page id → frame index, `NO_FRAME` when not resident
    /// (ids past the end are not resident either).
    slot: Vec<u32>,
    frames: Vec<Frame>,
    /// Frames emptied by [`FrameSlab::evict_lru`] awaiting reuse.
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
}

const NO_FRAME: u32 = u32::MAX;

#[derive(Debug)]
struct Frame {
    page: u32,
    prev: u32,
    next: u32,
    /// Modified since the page was last written out (by a sync) or
    /// became resident.
    dirty: bool,
    data: Box<[u8]>,
}

impl FrameSlab {
    /// Creates an empty slab that holds up to `capacity` frames
    /// (`capacity >= 1`).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "frame slab capacity must be at least 1");
        FrameSlab {
            capacity,
            slot: Vec::new(),
            frames: Vec::new(),
            free: Vec::new(),
            head: NO_FRAME,
            tail: NO_FRAME,
        }
    }

    /// Number of resident pages.
    pub(crate) fn len(&self) -> usize {
        self.frames.len() - self.free.len()
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let f = &self.frames[idx as usize];
            (f.prev, f.next)
        };
        match prev {
            NO_FRAME => self.head = next,
            p => self.frames[p as usize].next = next,
        }
        match next {
            NO_FRAME => self.tail = prev,
            n => self.frames[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old = self.head;
        let f = &mut self.frames[idx as usize];
        f.prev = NO_FRAME;
        f.next = old;
        match old {
            NO_FRAME => self.tail = idx,
            h => self.frames[h as usize].prev = idx,
        }
        self.head = idx;
    }

    /// Touches `page` if it is resident: makes it most recently used,
    /// marks it dirty if `write`, and returns its frame. `None` is a
    /// miss and changes nothing.
    #[inline]
    pub(crate) fn touch(&mut self, page: u32, write: bool) -> Option<usize> {
        let idx = *self.slot.get(page as usize)?;
        if idx == NO_FRAME {
            return None;
        }
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        if write {
            self.frames[idx as usize].dirty = true;
        }
        Some(idx as usize)
    }

    /// The frame of `page` if it is resident. Unlike
    /// [`FrameSlab::touch`] this is not an access: recency is unchanged.
    #[inline]
    pub(crate) fn peek(&self, page: u32) -> Option<usize> {
        match *self.slot.get(page as usize)? {
            NO_FRAME => None,
            idx => Some(idx as usize),
        }
    }

    /// When the slab is full, removes the least recently used page and
    /// returns `(page, dirty, bytes)`; the caller writes the bytes back
    /// if `dirty` and may hand the buffer to [`FrameSlab::insert`].
    /// `None` while there is room.
    pub(crate) fn evict_lru(&mut self) -> Option<(u32, bool, Box<[u8]>)> {
        if self.len() < self.capacity {
            return None;
        }
        let idx = self.tail;
        self.unlink(idx);
        self.free.push(idx);
        let f = &mut self.frames[idx as usize];
        self.slot[f.page as usize] = NO_FRAME;
        // A vacant frame is not a sync candidate.
        let dirty = std::mem::replace(&mut f.dirty, false);
        Some((f.page, dirty, std::mem::take(&mut f.data)))
    }

    /// Makes the non-resident `page` resident with contents `data`, as
    /// the most recently used page, and returns its frame. There must
    /// be room ([`FrameSlab::evict_lru`] first).
    pub(crate) fn insert(&mut self, page: u32, data: Box<[u8]>, write: bool) -> usize {
        assert!(self.len() < self.capacity, "frame slab is full");
        let frame = Frame {
            page,
            prev: NO_FRAME,
            next: NO_FRAME,
            dirty: write,
            data,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.frames[idx as usize] = frame;
                idx
            }
            None => {
                self.frames.push(frame);
                (self.frames.len() - 1) as u32
            }
        };
        if self.slot.len() <= page as usize {
            self.slot.resize(page as usize + 1, NO_FRAME);
        }
        debug_assert_eq!(self.slot[page as usize], NO_FRAME, "page already resident");
        self.slot[page as usize] = idx;
        self.push_front(idx);
        idx as usize
    }

    /// The bytes of frame `idx`.
    #[inline]
    pub(crate) fn data(&self, idx: usize) -> &[u8] {
        &self.frames[idx].data
    }

    /// The bytes of frame `idx`, mutably (does not mark it dirty:
    /// [`FrameSlab::touch`] with `write` does).
    #[inline]
    pub(crate) fn data_mut(&mut self, idx: usize) -> &mut [u8] {
        &mut self.frames[idx].data
    }

    /// `(page, frame)` of every dirty page, in ascending page order.
    pub(crate) fn dirty_frames(&self) -> Vec<(u32, usize)> {
        let mut out: Vec<(u32, usize)> = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.dirty)
            .map(|(idx, f)| (f.page, idx))
            .collect();
        out.sort_unstable();
        out
    }

    /// Records that frame `idx` has been written out: its eviction
    /// writes nothing unless it is written again.
    pub(crate) fn clear_dirty(&mut self, idx: usize) {
        self.frames[idx].dirty = false;
    }

    /// Drops every frame.
    pub(crate) fn clear(&mut self) {
        self.slot.clear();
        self.frames.clear();
        self.free.clear();
        self.head = NO_FRAME;
        self.tail = NO_FRAME;
    }

    /// Pages currently resident, most-recently-used first.
    #[cfg(test)]
    pub(crate) fn resident_pages(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = self.head;
        while cur != NO_FRAME {
            out.push(self.frames[cur as usize].page);
            cur = self.frames[cur as usize].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_sequence() {
        let mut c = LruCache::new(2);
        assert_eq!(c.access(1, false), Access::Miss { evicted: None });
        assert_eq!(c.access(2, false), Access::Miss { evicted: None });
        assert_eq!(c.access(1, false), Access::Hit);
        // 2 is now LRU; inserting 3 evicts it.
        assert_eq!(
            c.access(3, false),
            Access::Miss {
                evicted: Some((2, false))
            }
        );
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn dirty_bit_reported_on_eviction() {
        let mut c = LruCache::new(1);
        c.access(7, true);
        match c.access(8, false) {
            Access::Miss { evicted } => assert_eq!(evicted, Some((7, true))),
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn flush_returns_dirty_blocks_lru_first() {
        let mut c = LruCache::new(4);
        c.access(1, true);
        c.access(2, false);
        c.access(3, true);
        let dirty = c.flush();
        assert_eq!(dirty, vec![1, 3]);
        assert!(c.is_empty());
    }

    #[test]
    fn recency_order_maintained() {
        let mut c = LruCache::new(3);
        for b in [10, 20, 30] {
            c.access(b, false);
        }
        c.access(10, false); // 10 becomes MRU
        assert_eq!(c.resident_blocks(), vec![10, 30, 20]);
    }

    #[test]
    fn explicit_evict() {
        let mut c = LruCache::new(3);
        c.access(5, true);
        assert_eq!(c.evict(5), Some(true));
        assert_eq!(c.evict(5), None);
        assert!(!c.contains(5));
    }

    /// Exhaustive check against a naive reference implementation.
    #[test]
    fn matches_naive_model_on_random_trace() {
        use std::collections::VecDeque;
        let mut c = LruCache::new(4);
        // naive model: VecDeque with MRU at front
        let mut model: VecDeque<(u64, bool)> = VecDeque::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..10_000 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let block = x % 9;
            let write = x & 1 == 0;

            let model_hit = if let Some(pos) = model.iter().position(|&(b, _)| b == block) {
                let (b, d) = model.remove(pos).unwrap();
                model.push_front((b, d || write));
                true
            } else {
                let evicted = if model.len() == 4 {
                    model.pop_back()
                } else {
                    None
                };
                model.push_front((block, write));
                match (c.access(block, write), evicted) {
                    (Access::Miss { evicted: got }, want) => assert_eq!(got, want),
                    (Access::Hit, _) => panic!("model says miss, cache says hit"),
                }
                continue;
            };
            assert!(model_hit);
            assert_eq!(c.access(block, write), Access::Hit);
        }
        let mut want: Vec<u64> = model.iter().map(|&(b, _)| b).collect();
        assert_eq!(c.resident_blocks(), want);
        want.sort_unstable();
    }

    /// The frame slab against [`LruCache`] on one trace: same hits, same
    /// victims, same recency order — repeated touches of the most
    /// recently used page (the relink-skipping path) and syncs included.
    /// A victim's dirty bit is checked against the test's own dirty set,
    /// which a sync clears, because the cache never hears of syncs.
    #[test]
    fn frame_slab_matches_lru_cache_on_random_trace() {
        let mut lru = LruCache::new(4);
        let mut slab = FrameSlab::new(4);
        // Resident pages written since they were last synced or fetched.
        let mut dirty = std::collections::BTreeSet::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut last = 0u32;
        for step in 0..20_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // One access in four repeats the previous page.
            let page = if x & 3 == 0 {
                last
            } else {
                (x >> 8) as u32 % 9
            };
            let write = x & 4 == 0;
            last = page;
            match (lru.access(page as u64, write), slab.touch(page, write)) {
                (Access::Hit, Some(f)) => assert_eq!(slab.data(f)[0], page as u8),
                (Access::Miss { evicted }, None) => {
                    let got = slab.evict_lru();
                    let want = evicted.map(|(p, _)| (p, dirty.remove(&(p as u32))));
                    assert_eq!(
                        got.as_ref().map(|(p, d, _)| (*p as u64, *d)),
                        want,
                        "step {step}: victim differs"
                    );
                    let buf = got.map_or_else(|| vec![0u8; 8].into_boxed_slice(), |g| g.2);
                    let f = slab.insert(page, buf, write);
                    slab.data_mut(f)[0] = page as u8;
                }
                (a, b) => panic!("step {step}: cache says {a:?}, slab says {b:?}"),
            }
            if write {
                dirty.insert(page);
            }
            let want: Vec<u32> = lru.resident_blocks().iter().map(|&b| b as u32).collect();
            assert_eq!(slab.resident_pages(), want, "step {step}");
            if step % 97 == 0 {
                // A sync writes out exactly the dirty pages and cleans
                // them: a victim evicted before its next write costs no
                // second writeback.
                let synced: Vec<u32> = slab.dirty_frames().iter().map(|&(p, _)| p).collect();
                assert_eq!(synced, dirty.iter().copied().collect::<Vec<_>>());
                for (_, f) in slab.dirty_frames() {
                    slab.clear_dirty(f);
                }
                dirty.clear();
                assert!(slab.dirty_frames().is_empty());
            }
        }
        assert_eq!(slab.len(), lru.len());
    }
}

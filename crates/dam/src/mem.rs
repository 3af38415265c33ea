//! Flat element-array storage: the substrate of the COLA and the PMA.
//!
//! The paper stores all COLA levels contiguously in one array; [`Mem`]
//! models exactly that — a growable flat array of fixed-size elements whose
//! *byte addresses* are what the DAM simulator sees.

use crate::pod::Pod;
use crate::sim::SharedSim;

/// A growable flat array of `Copy` elements.
///
/// All data-structure code in the workspace is generic over this trait, so
/// the same algorithm runs over plain heap memory ([`PlainMem`]), the DAM
/// simulator ([`SimMem`]), or an out-of-core file ([`crate::FileMem`]).
pub trait Mem<T: Copy> {
    /// Number of elements.
    fn len(&self) -> usize;

    /// Whether the array is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads element `i`.
    fn get(&self, i: usize) -> T;

    /// Writes element `i`.
    fn set(&mut self, i: usize, v: T);

    /// Grows or shrinks to `new_len`, filling new slots with `fill`.
    fn resize(&mut self, new_len: usize, fill: T);

    /// Reads the run `start..start + out.len()` into `out`.
    ///
    /// **Accounting rule.** A run call charges exactly what the same
    /// cells read one [`get`](Mem::get) at a time, in ascending order,
    /// charge: `k` cells on one page are `k` accesses and `k` hits (or
    /// `k − 1` when the first one faults the page in), pages are touched
    /// in ascending order, and replacement state ends up the same. A
    /// backend overrides this only to pay its fixed costs — lock,
    /// residency lookup, counter update — once per page instead of once
    /// per cell; the default is the per-cell loop itself, so an
    /// implementor that forwards only `get`/`set` stays correct.
    ///
    /// **Adoption rule.** Call it only where the per-cell code was
    /// already one contiguous ascending sweep with no other access to
    /// this `Mem` in between (a level rewrite, a rebuild scan). Then
    /// page-touch order, and with it every transfer count, is unchanged.
    /// A two-source merge or a binary search interleaves pages and must
    /// stay on `get`/`set`.
    fn read_run(&self, start: usize, out: &mut [T]) {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.get(start + k);
        }
    }

    /// Writes `src` to the run `start..start + src.len()`; the
    /// accounting and adoption rules of [`read_run`](Mem::read_run)
    /// apply, with [`set`](Mem::set) as the per-cell call.
    fn write_run(&mut self, start: usize, src: &[T]) {
        for (k, &v) in src.iter().enumerate() {
            self.set(start + k, v);
        }
    }

    /// Copies the cells from `start` to the end of their page into `out`
    /// — as many as `out` holds and [`len`](Mem::len) allows — if that
    /// page is resident, and returns how many it copied; 0 otherwise.
    /// Uncharged: no counter moves and no replacement position changes,
    /// so the store cannot tell a peek happened.
    ///
    /// **Peek rule.** The cells are a copy, not a read. A caller that
    /// *uses* peeked cells owes the store their charge: a
    /// [`read_run`](Mem::read_run) of exactly the cells it used, in the
    /// order it used them, before its next call on this `Mem` other than
    /// a peek. Cells peeked and never used are never charged. The store
    /// then sees the page touches the same reads made one
    /// [`get`](Mem::get) at a time would have sent, so every counter
    /// agrees with the per-cell path — exactly, when the caller is the
    /// store's only user between the peek and the charge.
    ///
    /// The default peeks nothing, which is always correct: it is the
    /// answer of a store whose reads are cheap ([`PlainMem`],
    /// [`SimMem`]) and of a wrapper that forwards only `get`/`set`,
    /// whose caller then stays on the per-cell path. A backend overrides
    /// it when a `get` has a fixed cost worth sparing — the file store's
    /// lock, residency lookup and counter update — and says so in
    /// [`peeks`](Mem::peeks).
    fn peek_run(&self, _start: usize, _out: &mut [T]) -> usize {
        0
    }

    /// Whether [`peek_run`](Mem::peek_run) ever returns cells. A caller
    /// asks before it sets up to peek: `false`, the default, is a
    /// constant once inlined, so over a store whose reads are cheap the
    /// caller's peeking path is not even compiled and its per-cell loop
    /// costs what it cost before peeks existed.
    #[inline]
    fn peeks(&self) -> bool {
        false
    }

    /// Copies `src..src+n` to `dst..dst+n` (ranges may overlap).
    fn copy_within(&mut self, src: usize, dst: usize, n: usize) {
        if dst == src || n == 0 {
            return;
        }
        if dst < src {
            for k in 0..n {
                let v = self.get(src + k);
                self.set(dst + k, v);
            }
        } else {
            for k in (0..n).rev() {
                let v = self.get(src + k);
                self.set(dst + k, v);
            }
        }
    }

    /// Fills `start..end` with `v`.
    fn fill_range(&mut self, start: usize, end: usize, v: T) {
        for i in start..end {
            self.set(i, v);
        }
    }
}

/// Plain heap storage; compiles to direct `Vec` indexing.
#[derive(Debug, Clone, Default)]
pub struct PlainMem<T> {
    data: Vec<T>,
}

impl<T: Copy> PlainMem<T> {
    /// Creates an empty array.
    pub fn new() -> Self {
        PlainMem { data: Vec::new() }
    }

    /// Creates an array of `n` copies of `fill`.
    pub fn with_len(n: usize, fill: T) -> Self {
        PlainMem {
            data: vec![fill; n],
        }
    }

    /// Borrows the underlying slice (useful in tests).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<T: Copy> Mem<T> for PlainMem<T> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.data.len()
    }

    #[inline(always)]
    fn get(&self, i: usize) -> T {
        self.data[i]
    }

    #[inline(always)]
    fn set(&mut self, i: usize, v: T) {
        self.data[i] = v;
    }

    fn resize(&mut self, new_len: usize, fill: T) {
        self.data.resize(new_len, fill);
    }

    #[inline]
    fn read_run(&self, start: usize, out: &mut [T]) {
        out.copy_from_slice(&self.data[start..start + out.len()]);
    }

    #[inline]
    fn write_run(&mut self, start: usize, src: &[T]) {
        self.data[start..start + src.len()].copy_from_slice(src);
    }

    fn copy_within(&mut self, src: usize, dst: usize, n: usize) {
        self.data.copy_within(src..src + n, dst);
    }

    fn fill_range(&mut self, start: usize, end: usize, v: T) {
        self.data[start..end].fill(v);
    }
}

/// Heap storage whose every access is charged to a shared DAM simulator.
///
/// The element's *modeled* size may differ from its Rust size: the paper
/// pads its 16-byte key/value pairs to 32 bytes, and `elem_bytes` lets the
/// simulated layout match the paper exactly.
#[derive(Debug)]
pub struct SimMem<T> {
    data: Vec<T>,
    sim: SharedSim,
    base: u64,
    elem_bytes: usize,
}

impl<T: Copy> SimMem<T> {
    /// Creates an empty simulated array with the natural element size.
    pub fn new(sim: SharedSim) -> Self {
        Self::with_elem_bytes(sim, std::mem::size_of::<T>().max(1))
    }

    /// Creates an empty simulated array whose elements occupy `elem_bytes`
    /// in the modeled address space.
    pub fn with_elem_bytes(sim: SharedSim, elem_bytes: usize) -> Self {
        assert!(elem_bytes > 0);
        let base = sim.borrow_mut().alloc_segment();
        SimMem {
            data: Vec::new(),
            sim,
            base,
            elem_bytes,
        }
    }

    /// The shared simulator handle.
    pub fn sim(&self) -> &SharedSim {
        &self.sim
    }

    #[inline]
    fn addr(&self, i: usize) -> u64 {
        self.base + (i * self.elem_bytes) as u64
    }
}

impl<T: Copy> Mem<T> for SimMem<T> {
    #[inline]
    fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn get(&self, i: usize) -> T {
        self.sim
            .borrow_mut()
            .touch(self.addr(i), self.elem_bytes, false);
        self.data[i]
    }

    #[inline]
    fn set(&mut self, i: usize, v: T) {
        self.sim
            .borrow_mut()
            .touch(self.addr(i), self.elem_bytes, true);
        self.data[i] = v;
    }

    fn resize(&mut self, new_len: usize, fill: T) {
        // Growing external storage is free in the DAM model (space is
        // allocated, not transferred); writes are charged when they happen.
        self.data.resize(new_len, fill);
    }

    fn read_run(&self, start: usize, out: &mut [T]) {
        out.copy_from_slice(&self.data[start..start + out.len()]);
        let mut sim = self.sim.borrow_mut();
        for i in start..start + out.len() {
            sim.touch(self.addr(i), self.elem_bytes, false);
        }
    }

    fn write_run(&mut self, start: usize, src: &[T]) {
        self.data[start..start + src.len()].copy_from_slice(src);
        let mut sim = self.sim.borrow_mut();
        for i in start..start + src.len() {
            sim.touch(self.addr(i), self.elem_bytes, true);
        }
    }
}

/// Marker trait bundle for elements storable in any backend.
pub trait Element: Copy + Pod {}
impl<T: Copy + Pod> Element for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{new_shared_sim, CacheConfig};

    #[test]
    fn plain_mem_basics() {
        let mut m = PlainMem::with_len(4, 0u64);
        m.set(2, 42);
        assert_eq!(m.get(2), 42);
        m.resize(8, 7);
        assert_eq!(m.len(), 8);
        assert_eq!(m.get(7), 7);
        m.copy_within(0, 4, 3);
        assert_eq!(m.get(6), 42);
        m.fill_range(0, 2, 9);
        assert_eq!(m.as_slice()[..2], [9, 9]);
    }

    #[test]
    fn default_copy_within_handles_overlap_both_directions() {
        // Exercise the trait's default implementation through SimMem.
        let sim = new_shared_sim(CacheConfig::new(64, 1024));
        let mut m = SimMem::new(sim);
        m.resize(10, 0u64);
        for i in 0..10 {
            m.set(i, i as u64);
        }
        m.copy_within(0, 2, 8); // forward overlap
        let got: Vec<u64> = (0..10).map(|i| m.get(i)).collect();
        assert_eq!(got, vec![0, 1, 0, 1, 2, 3, 4, 5, 6, 7]);
        m.copy_within(2, 0, 8); // backward overlap
        let got: Vec<u64> = (0..10).map(|i| m.get(i)).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6, 7, 6, 7]);
    }

    #[test]
    fn sim_mem_counts_block_transfers() {
        let sim = new_shared_sim(CacheConfig::new(64, 2));
        let mut m: SimMem<u64> = SimMem::new(sim.clone());
        m.resize(64, 0); // 64 elements * 8 bytes = 8 blocks
        for i in 0..64 {
            m.set(i, i as u64);
        }
        // Sequential write of 8 blocks with capacity 2: 8 fetches.
        assert_eq!(sim.borrow().stats().fetches, 8);
    }

    #[test]
    fn sim_mem_elem_bytes_controls_layout() {
        let sim = new_shared_sim(CacheConfig::new(64, 128));
        // 32-byte modeled elements: 2 per 64-byte block.
        let mut m: SimMem<u64> = SimMem::with_elem_bytes(sim.clone(), 32);
        m.resize(8, 0);
        for i in 0..8 {
            m.set(i, 1);
        }
        assert_eq!(sim.borrow().stats().fetches, 4);
    }

    #[test]
    fn two_sim_mems_share_one_memory() {
        let sim = new_shared_sim(CacheConfig::new(64, 1));
        let mut a: SimMem<u64> = SimMem::new(sim.clone());
        let mut b: SimMem<u64> = SimMem::new(sim.clone());
        a.resize(1, 0);
        b.resize(1, 0);
        // Alternating access with a single-block memory thrashes.
        for _ in 0..10 {
            a.set(0, 1);
            b.set(0, 2);
        }
        assert_eq!(sim.borrow().stats().fetches, 20);
    }
}

//! Out-of-core storage: real file I/O behind a bounded user-space page
//! cache, with a durable, crash-safe on-disk format.
//!
//! The paper's experiments memory-map a 32 GiB file on a RAID array and let
//! the OS page cache play the role of internal memory. Offline we cannot
//! rely on (or even observe) the OS page cache, so this module makes
//! internal memory explicit: a [`FilePages`] store keeps at most
//! `cache_pages` page frames in RAM under LRU replacement and performs
//! positioned reads/writes on miss/eviction. Setting the cache budget well
//! below the data size reproduces the out-of-core regime of Figures 2–4.
//!
//! There is one cache, one element view of it and one handle to either.
//! [`FilePages`] is the cache and owns everything a store has: device,
//! page table, frames, counters, reclaim gate, commit protocol.
//! [`FileMem`] reads the same pages as a flat element array and adds only
//! a length (which it prefixes to the commit payload). Both are plain
//! `&mut self` types with no lock; [`Shared`] is the lock — a mutex
//! around the store plus the counter block, read without it — and the
//! only thing that implements [`Mem`] or a shareable [`PageStore`].
//!
//! # Durability: shadow paging + shadow-committed metadata
//!
//! Every store file carries the format of [`crate::format`]: a superblock,
//! a double-buffered metadata region, then physical data pages. Structures
//! address *logical* pages; a page table (committed as part of the
//! metadata) maps them to physical slots. Between two commits, a dirty
//! logical page is **never written over the physical slot the last commit
//! maps it to** — its first writeback of the epoch relocates it to a free
//! slot (shadow paging). [`FilePages::commit_meta`] then makes the new
//! state durable in three ordered steps:
//!
//! 1. write back every dirty page (to shadow slots), barrier;
//! 2. write the new page table + caller payload to the *inactive*
//!    metadata slot under the next epoch, barrier;
//! 3. only now recycle the slots the previous commit referenced.
//!
//! A crash at any point therefore recovers to exactly the last committed
//! state: data writes touched only unreferenced slots, and a torn
//! metadata write fails its checksum so recovery keeps the previous
//! epoch. This is verified exhaustively by the crash-injection suite over
//! [`crate::dev::CrashDev`].

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

use crate::dev::RawDev;
use crate::format::{
    decode_slot, encode_slot, le, OpenError, Superblock, DEFAULT_SLOT_BYTES, FORMAT_VERSION,
    KIND_ELEM, KIND_PAGES, SUPER_BYTES,
};
use crate::lru::FrameSlab;
use crate::mem::Mem;
use crate::page::PageStore;
use crate::pod::Pod;
use crate::reclaim::ReclaimGate;
use crate::stats::{AtomicIoStats, IoStats};
use std::collections::VecDeque;
use std::sync::Arc;

/// File-backed pages with a bounded user-space LRU cache of frames and a
/// shadow-paged durable format (see the module docs).
pub struct FilePages<D: RawDev = File> {
    dev: D,
    sb: Superblock,
    /// Logical page id → physical slot.
    table: Vec<u32>,
    /// The page table of the last committed epoch (prefix of `table`'s
    /// logical space). A dirty page whose mapping still equals its
    /// committed mapping must relocate before its first writeback.
    committed: Vec<u32>,
    /// Physical slot allocation high-water mark.
    phys_len: u32,
    /// Physical slots referenced by neither table (recycled by remaps).
    free: Vec<u32>,
    /// Last committed metadata epoch (0 = never committed).
    epoch: u64,
    /// Physical slots below this bound existed on the device when the
    /// store was opened and may hold stale pre-crash bytes beyond the
    /// committed state; `alloc_page` zeros them before handing them out
    /// so the "fresh pages read as zeros" contract survives recovery.
    suspect_end: u32,
    /// The resident pages: bytes, dirty bits and LRU order in one slab
    /// indexed by logical page id (no hashing on the access path).
    frames: FrameSlab,
    /// Shared with observer handles: counters are atomic so `stats` /
    /// `take_stats` probes on other threads never wait on (or race
    /// with) the store's own lock.
    stats: Arc<AtomicIoStats>,
    /// Superseded committed slots awaiting reclamation, tagged with the
    /// last committed epoch that referenced them (FIFO: tags ascend).
    /// Drained to `free` once the tag falls below the gate's horizon.
    retired: VecDeque<(u64, Vec<u32>)>,
    /// When set, pinned-reader horizon that gates recycling of retired
    /// slots; `None` (the default) recycles at the next commit.
    gate: Option<Arc<dyn ReclaimGate>>,
    /// Recent sequential stream positions, for seek accounting. A device
    /// access adjacent (within a small readahead window) to any tracked
    /// stream is sequential; anything else is a seek and starts a new
    /// stream. This models a disk with per-stream readahead — the paper
    /// notes its RAID's "sequential prefetching … significantly helps
    /// COLAs" — so a k-way merge reads as k concurrent sequential streams,
    /// not k·len seeks.
    streams: Vec<u64>,
}

/// Number of concurrent sequential streams the modeled device tracks.
const MAX_STREAMS: usize = 16;
/// Readahead slack: an access within this many pages ahead of a stream
/// still counts as sequential.
const READAHEAD: u64 = 2;

impl<D: RawDev> std::fmt::Debug for FilePages<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilePages")
            .field("page_size", &self.sb.page_size)
            .field("pages", &self.table.len())
            .field("phys_pages", &self.phys_len)
            .field("epoch", &self.epoch)
            .field("cached", &self.frames.len())
            .finish()
    }
}

impl FilePages<File> {
    /// Creates (truncating) a page store at `path` with room for
    /// `cache_pages` resident frames.
    pub fn create(path: &Path, page_size: usize, cache_pages: usize) -> io::Result<Self> {
        Self::create_on(create_file(path)?, page_size, cache_pages)
    }
}

/// Opens `path` read-write, creating or truncating it.
fn create_file(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

impl<D: RawDev> FilePages<D> {
    /// Creates a page store on a raw device (the device is assumed
    /// empty/overwritable); writes the superblock immediately.
    pub fn create_on(dev: D, page_size: usize, cache_pages: usize) -> io::Result<Self> {
        Self::create_with_kind(
            dev,
            page_size,
            cache_pages,
            KIND_PAGES,
            0,
            DEFAULT_SLOT_BYTES,
        )
    }

    /// [`FilePages::create_on`] with an explicit metadata-slot capacity.
    /// The slot bounds the committable control state — page table
    /// (4 B per logical page) plus the caller payload — so it caps the
    /// store at roughly `slot_bytes / 4` pages; size it for the data the
    /// store must grow to (the capacity is fixed at creation and
    /// recorded in the superblock).
    pub fn create_on_sized(
        dev: D,
        page_size: usize,
        cache_pages: usize,
        slot_bytes: usize,
    ) -> io::Result<Self> {
        Self::create_with_kind(dev, page_size, cache_pages, KIND_PAGES, 0, slot_bytes)
    }

    pub(crate) fn create_with_kind(
        mut dev: D,
        page_size: usize,
        cache_pages: usize,
        kind: u32,
        elem_bytes: u32,
        slot_bytes: usize,
    ) -> io::Result<Self> {
        assert!(page_size > 0);
        assert!(
            slot_bytes > crate::format::SLOT_HDR_BYTES,
            "metadata slot must fit its header"
        );
        let sb = Superblock {
            version: FORMAT_VERSION,
            page_size: page_size as u32,
            kind,
            elem_bytes,
            slot_bytes: slot_bytes as u32,
        };
        dev.write_all_at(&sb.encode(), 0)?;
        dev.sync()?;
        Ok(FilePages {
            dev,
            sb,
            table: Vec::new(),
            committed: Vec::new(),
            phys_len: 0,
            free: Vec::new(),
            epoch: 0,
            suspect_end: 0,
            frames: FrameSlab::new(cache_pages.max(1)),
            stats: Arc::new(AtomicIoStats::new()),
            retired: VecDeque::new(),
            gate: None,
            streams: Vec::new(),
        })
    }

    /// Opens a store on a raw device, validating its superblock and
    /// recovering the newest committed epoch; `expected` is the
    /// `(kind, elem_bytes)` pair the caller requires. Returns the store
    /// and the recovered caller payload. The device is **not modified**
    /// — a validation failure leaves it byte-identical.
    pub fn open_on(
        dev: D,
        cache_pages: usize,
        expected: (u32, u32),
    ) -> Result<(Self, Vec<u8>), OpenError> {
        Self::open_bounded(dev, cache_pages, expected, None)
    }

    /// [`FilePages::open_on`], bounded: recovers the newest committed
    /// epoch **not exceeding `max_epoch`** (when given). The double
    /// buffering keeps the previous epoch intact until the next commit,
    /// so a coordinator that recorded an epoch vector (the sharded
    /// database's root, in shard 0's commit) can roll every member store
    /// back to its recorded epoch after a crash mid-multi-store-commit.
    pub fn open_bounded(
        mut dev: D,
        cache_pages: usize,
        expected: (u32, u32),
        max_epoch: Option<u64>,
    ) -> Result<(Self, Vec<u8>), OpenError> {
        let mut super_buf = [0u8; SUPER_BYTES];
        let got = read_fully(&mut dev, &mut super_buf, 0)?;
        let sb = Superblock::decode(&super_buf, got)?;
        if (sb.kind, sb.elem_bytes) != expected {
            return Err(OpenError::WrongKind {
                found: (sb.kind, sb.elem_bytes),
                expected,
            });
        }
        // Recover: the valid slot with the highest epoch (within the
        // bound, if any) wins.
        let mut best: Option<(u64, Vec<u8>)> = None;
        let mut newest_seen = 0u64;
        for i in 0..2 {
            let mut buf = vec![0u8; sb.slot_bytes as usize];
            let got = read_fully(&mut dev, &mut buf, sb.slot_off(i))?;
            if let Some((epoch, payload)) = decode_slot(&buf[..got]) {
                newest_seen = newest_seen.max(epoch);
                if max_epoch.is_some_and(|m| epoch > m) {
                    continue;
                }
                if best.as_ref().is_none_or(|(e, _)| epoch > *e) {
                    best = Some((epoch, payload));
                }
            }
        }
        let Some((epoch, payload)) = best else {
            return match max_epoch {
                Some(m) if newest_seen > 0 => Err(OpenError::Corrupt(format!(
                    "no committed epoch at or below {m} survives (newest on disk: \
                     {newest_seen}); the coordinator's commit record is stale"
                ))),
                _ => Err(OpenError::NeverCommitted),
            };
        };
        // Parse the store section: logical count, phys high-water mark,
        // page table; the rest is the caller's payload.
        let short = || OpenError::Corrupt("metadata payload too short".into());
        let u32_at = |at| le(&payload, at).map(u32::from_le_bytes).ok_or_else(short);
        let logical = u32_at(0)? as usize;
        let phys_len = u32_at(4)?;
        // Bound both counts by what the checksummed payload can actually
        // describe *before* allocating with them (a crafted-but-valid
        // payload must produce Corrupt, not an allocator abort).
        let table_end = match logical.checked_mul(4).and_then(|t| t.checked_add(8)) {
            Some(end) if end <= payload.len() => end,
            _ => return Err(OpenError::Corrupt("page table truncated".into())),
        };
        if (phys_len as usize) > logical.saturating_mul(2).saturating_add(1 << 20) {
            // Shadow paging needs at most one extra slot per remapped
            // page; a high-water mark wildly past that is corruption.
            return Err(OpenError::Corrupt(format!(
                "physical high-water mark {phys_len} implausible for {logical} logical pages"
            )));
        }
        let mut table = Vec::with_capacity(logical);
        let mut referenced = vec![false; phys_len as usize];
        for l in 0..logical {
            let p = u32_at(8 + 4 * l)?;
            if p >= phys_len || std::mem::replace(&mut referenced[p as usize], true) {
                return Err(OpenError::Corrupt(format!(
                    "page table maps logical page {l} to invalid or duplicate slot {p}"
                )));
            }
            table.push(p);
        }
        let free: Vec<u32> = referenced
            .iter()
            .enumerate()
            .filter(|(_, &r)| !r)
            .map(|(p, _)| p as u32)
            .collect();
        let user = payload[table_end..].to_vec();
        // Slots past the committed high-water mark may hold stale bytes
        // from synced-but-uncommitted pre-crash writes; remember how far
        // the device extends so alloc_page can zero them on reuse.
        let dev_len = dev.dev_len()?;
        let suspect_end = dev_len
            .saturating_sub(sb.data_off())
            .div_ceil(sb.page_size as u64)
            .min(u32::MAX as u64) as u32;
        Ok((
            FilePages {
                dev,
                sb,
                committed: table.clone(),
                table,
                phys_len,
                free,
                epoch,
                suspect_end,
                frames: FrameSlab::new(cache_pages.max(1)),
                stats: Arc::new(AtomicIoStats::new()),
                retired: VecDeque::new(),
                gate: None,
                streams: Vec::new(),
            },
            user,
        ))
    }

    /// Real-I/O counters (fetches = device reads, writebacks = device
    /// writes).
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Resets the I/O counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Returns the counters accumulated so far and resets them: one call
    /// closes a measurement phase and opens the next (cache residency is
    /// untouched, so a warm cache stays warm across phases). Even with a
    /// concurrent mutator every transfer lands in exactly one phase (see
    /// [`AtomicIoStats::take`]).
    pub fn take_stats(&self) -> IoStats {
        self.stats.take()
    }

    /// The shared counter block, for observers that must read the
    /// counters without acquiring the store's lock. The store is its
    /// one writer: increment it only through the store.
    pub fn stats_handle(&self) -> Arc<AtomicIoStats> {
        self.stats.clone()
    }

    /// Installs the reclamation gate consulted before recycling
    /// superseded committed slots (see [`crate::ReclaimGate`]). Without
    /// a gate, slots are recycled as soon as the next commit supersedes
    /// them — the single-threaded behaviour.
    pub fn set_reclaim_gate(&mut self, gate: Arc<dyn ReclaimGate>) {
        self.gate = Some(gate);
    }

    /// Superseded committed slots currently parked on the retire list
    /// (awaiting the gate's horizon).
    pub fn retired_slots(&self) -> usize {
        self.retired.iter().map(|(_, v)| v.len()).sum()
    }

    /// The last committed metadata epoch (0 = never committed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Capacity of each metadata commit slot in bytes, as the superblock
    /// records it.
    pub fn slot_bytes(&self) -> usize {
        self.sb.slot_bytes as usize
    }

    /// Physical slots allocated so far (≥ logical pages; the surplus is
    /// shadow-paging headroom).
    pub fn phys_pages(&self) -> u32 {
        self.phys_len
    }

    fn page_size_usize(&self) -> usize {
        self.sb.page_size as usize
    }

    fn note_device_access(&mut self, phys: u64) {
        if let Some(i) = self
            .streams
            .iter()
            .position(|&p| phys >= p && phys <= p + READAHEAD)
        {
            let _ = self.streams.remove(i);
            self.streams.insert(0, phys);
            return;
        }
        self.stats.inc_seeks();
        self.streams.insert(0, phys);
        self.streams.truncate(MAX_STREAMS);
    }

    fn page_off(&self, phys: u32) -> u64 {
        self.sb.data_off() + phys as u64 * self.sb.page_size as u64
    }

    fn read_page_from_file(&mut self, logical: u32, buf: &mut [u8]) {
        let phys = self.table[logical as usize];
        let off = self.page_off(phys);
        self.stats.inc_fetches();
        self.note_device_access(phys as u64);
        // The page may extend past EOF if it was allocated but never
        // written; treat missing bytes as zero.
        let mut done = 0usize;
        while done < buf.len() {
            match self.dev.read_at(&mut buf[done..], off + done as u64) {
                Ok(0) => {
                    buf[done..].fill(0);
                    break;
                }
                Ok(n) => done += n,
                Err(e) => panic!("device read failed: {e}"),
            }
        }
    }

    /// The physical slot the next writeback of `logical` must target,
    /// relocating away from the committed mapping if necessary (shadow
    /// paging: committed slots are immutable until the next commit).
    fn phys_for_write(&mut self, logical: u32) -> u32 {
        let l = logical as usize;
        if l < self.committed.len() && self.table[l] == self.committed[l] {
            if self.free.is_empty() {
                self.reclaim_retired();
            }
            let fresh = self.free.pop().unwrap_or_else(|| {
                let p = self.phys_len;
                self.phys_len += 1;
                p
            });
            self.table[l] = fresh;
        }
        self.table[l]
    }

    /// Moves retired slots whose epoch tag has fallen below the gate's
    /// horizon onto the free list. Without a gate everything retired is
    /// immediately reclaimable.
    fn reclaim_retired(&mut self) {
        if self.retired.is_empty() {
            return;
        }
        let horizon = match &self.gate {
            Some(g) => g.reclaim_horizon(),
            None => u64::MAX,
        };
        while self.retired.front().is_some_and(|(tag, _)| *tag < horizon) {
            let (_, slots) = self.retired.pop_front().expect("front checked");
            self.free.extend(slots);
        }
    }

    /// Accounts one writeback of `logical` and returns the device
    /// offset its bytes must be written at.
    fn writeback_off(&mut self, logical: u32) -> u64 {
        let phys = self.phys_for_write(logical);
        self.stats.inc_writebacks();
        self.note_device_access(phys as u64);
        self.page_off(phys)
    }

    /// Makes page `id` resident and most recently used, charged as `k ≥ 1`
    /// consecutive accesses to it (`k` hits, or `k − 1` after a fault),
    /// marks it dirty if `write`, and returns its frame. A resident page
    /// costs one index lookup and one counter update, whatever `k`.
    fn touch_page(&mut self, id: u32, write: bool, k: u64) -> usize {
        if let Some(frame) = self.frames.touch(id, write) {
            self.stats.add_accesses(k, k);
            return frame;
        }
        self.stats.add_accesses(k, k - 1);
        // The victim's buffer becomes the new page's: the device read
        // below overwrites every byte of it.
        let mut buf = match self.frames.evict_lru() {
            Some((victim, dirty, buf)) => {
                self.stats.inc_evictions();
                if dirty {
                    let off = self.writeback_off(victim);
                    self.dev
                        .write_all_at(&buf, off)
                        .expect("eviction writeback failed");
                }
                buf
            }
            None => vec![0u8; self.page_size_usize()].into_boxed_slice(),
        };
        self.read_page_from_file(id, &mut buf);
        self.frames.insert(id, buf, write)
    }

    /// [`PageStore::with_page`] / [`PageStore::with_page_mut`] for a run
    /// of `k` accesses to one page (see [`Mem::read_run`]).
    fn page_run(&mut self, id: u32, write: bool, k: usize) -> &mut [u8] {
        let frame = self.touch_page(id, write, k as u64);
        self.frames.data_mut(frame)
    }

    /// The bytes of page `id` if it is resident; not an access (see
    /// [`Mem::peek_run`]).
    fn peek_page(&self, id: u32) -> Option<&[u8]> {
        self.frames.peek(id).map(|frame| self.frames.data(frame))
    }

    /// Writes every dirty resident page back to the device (to shadow
    /// slots, never over committed data) and issues a durability barrier.
    /// Does **not** commit metadata: after a crash the store still
    /// recovers the last [`FilePages::commit_meta`] state.
    pub fn sync(&mut self) -> io::Result<()> {
        for (id, frame) in self.frames.dirty_frames() {
            let off = self.writeback_off(id);
            self.dev.write_all_at(self.frames.data(frame), off)?;
            self.frames.clear_dirty(frame);
        }
        self.dev.sync()
    }

    /// Commits the current state durably: syncs the data pages, then
    /// shadow-writes the page table plus `user` payload (the structure's
    /// control state) to the inactive metadata slot under the next epoch.
    /// After a successful return, a crash at any later point — or a
    /// reopen — recovers exactly this state.
    pub fn commit_meta(&mut self, user: &[u8]) -> io::Result<()> {
        self.sync()?;
        let mut payload = Vec::with_capacity(8 + 4 * self.table.len() + user.len());
        payload.extend_from_slice(&(self.table.len() as u32).to_le_bytes());
        payload.extend_from_slice(&self.phys_len.to_le_bytes());
        for &p in &self.table {
            payload.extend_from_slice(&p.to_le_bytes());
        }
        payload.extend_from_slice(user);
        let epoch = self.epoch + 1;
        let slot = encode_slot(epoch, &payload, self.sb.slot_bytes as usize)?;
        let off = self.sb.slot_off((epoch % 2) as usize);
        self.dev.write_all_at(&slot, off)?;
        self.dev.sync()?;
        self.epoch = epoch;
        // Only now are the previous epoch's slots unreferenced by the
        // *newest* committed table — but a pinned reader may still be on
        // an older committed epoch that references them. Park them on
        // the retire list tagged with the superseded epoch; without a
        // gate the immediate reclaim below frees them right away, which
        // is the original single-threaded behaviour.
        let superseded: Vec<u32> = self
            .committed
            .iter()
            .enumerate()
            .filter(|&(l, &old)| self.table[l] != old)
            .map(|(_, &old)| old)
            .collect();
        if !superseded.is_empty() {
            self.retired.push_back((epoch - 1, superseded));
        }
        self.reclaim_retired();
        self.committed = self.table.clone();
        Ok(())
    }

    /// Drops every resident page (writing back dirty ones), emptying the
    /// user-space cache — the analogue of the paper's "remounted the RAID
    /// array ... to clear the file cache".
    pub fn drop_cache(&mut self) -> io::Result<()> {
        self.sync()?;
        self.frames.clear();
        Ok(())
    }
}

fn read_fully<D: RawDev>(dev: &mut D, buf: &mut [u8], off: u64) -> io::Result<usize> {
    let mut done = 0usize;
    while done < buf.len() {
        match dev.read_at(&mut buf[done..], off + done as u64)? {
            0 => break,
            n => done += n,
        }
    }
    Ok(done)
}

impl<D: RawDev> PageStore for FilePages<D> {
    fn page_size(&self) -> usize {
        self.page_size_usize()
    }

    fn num_pages(&self) -> u32 {
        self.table.len() as u32
    }

    fn alloc_page(&mut self) -> u32 {
        let id = self.table.len() as u32;
        // Bump-allocated slots only: past the device end a slot reads as
        // zeros (sparse-file semantics), which is the allocation
        // contract. Recycled free-list slots hold stale bytes and are
        // reused only by whole-page writebacks (remaps). One exception:
        // after crash recovery the device may extend past the committed
        // high-water mark with stale uncommitted bytes — zero those
        // before handing them out. (Format bookkeeping, not workload
        // I/O: deliberately not counted in the transfer stats.)
        let phys = self.phys_len;
        self.phys_len += 1;
        if phys < self.suspect_end {
            let zeros = vec![0u8; self.page_size_usize()];
            self.dev
                .write_all_at(&zeros, self.page_off(phys))
                .expect("zeroing a recovered slot failed");
        }
        self.table.push(phys);
        id
    }

    fn with_page<R>(&mut self, id: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self.page_run(id, false, 1))
    }

    fn with_page_mut<R>(&mut self, id: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(self.page_run(id, true, 1))
    }
}

/// The element view of the cache: a flat array over [`FilePages`] where
/// logical element `i` lives at byte `i * elem_bytes` of the logical page
/// space and elements never straddle pages.
///
/// Faulting a page in needs `&mut self`, so a `FileMem` is **not** a
/// [`Mem`] (whose reads take `&self`); the structures run over the
/// locking handle [`ArcFileMem`], which is:
///
/// ```compile_fail
/// use cosbt_dam::{FileMem, Mem};
/// fn needs_mem<M: Mem<u64>>() {}
/// needs_mem::<FileMem<u64>>();
/// ```
pub struct FileMem<T: Pod, D: RawDev = File> {
    pages: FilePages<D>,
    len: usize,
    elem_bytes: usize,
    per_page: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Pod, D: RawDev> std::fmt::Debug for FileMem<T, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileMem")
            .field("len", &self.len)
            .field("elem_bytes", &self.elem_bytes)
            .finish()
    }
}

impl<T: Pod> FileMem<T, File> {
    /// Creates a file-backed element array. `elem_bytes` must be at least
    /// `T::BYTES` (pad to match a modeled layout, e.g. the paper's 32-byte
    /// elements) and must divide `page_size`.
    pub fn create(
        path: &Path,
        page_size: usize,
        cache_pages: usize,
        elem_bytes: usize,
    ) -> io::Result<Self> {
        Self::create_on(create_file(path)?, page_size, cache_pages, elem_bytes)
    }
}

impl<T: Pod, D: RawDev> FileMem<T, D> {
    /// Creates an element array on a raw device (see
    /// [`FilePages::create_on`]).
    pub fn create_on(
        dev: D,
        page_size: usize,
        cache_pages: usize,
        elem_bytes: usize,
    ) -> io::Result<Self> {
        Self::create_on_sized(dev, page_size, cache_pages, elem_bytes, DEFAULT_SLOT_BYTES)
    }

    /// [`FileMem::create_on`] with an explicit metadata-slot capacity
    /// (see [`FilePages::create_on_sized`]): the slot caps the array at
    /// roughly `slot_bytes / 4` pages, i.e. `slot_bytes / 4 * (page_size /
    /// elem_bytes)` elements.
    pub fn create_on_sized(
        dev: D,
        page_size: usize,
        cache_pages: usize,
        elem_bytes: usize,
        slot_bytes: usize,
    ) -> io::Result<Self> {
        assert!(elem_bytes >= T::BYTES, "elem_bytes must fit the element");
        assert!(
            page_size.is_multiple_of(elem_bytes),
            "elements must not straddle pages"
        );
        Ok(FileMem {
            pages: FilePages::create_with_kind(
                dev,
                page_size,
                cache_pages,
                KIND_ELEM,
                elem_bytes as u32,
                slot_bytes,
            )?,
            len: 0,
            elem_bytes,
            per_page: page_size / elem_bytes,
            _marker: std::marker::PhantomData,
        })
    }

    /// Opens an element array on a raw device, recovering the committed
    /// length and the caller payload.
    pub fn open_on(
        dev: D,
        cache_pages: usize,
        elem_bytes: usize,
    ) -> Result<(Self, Vec<u8>), OpenError> {
        Self::open_bounded(dev, cache_pages, elem_bytes, None)
    }

    /// [`FileMem::open_on`] bounded to epochs ≤ `max_epoch` (see
    /// [`FilePages::open_bounded`]).
    pub fn open_bounded(
        dev: D,
        cache_pages: usize,
        elem_bytes: usize,
        max_epoch: Option<u64>,
    ) -> Result<(Self, Vec<u8>), OpenError> {
        assert!(elem_bytes >= T::BYTES, "elem_bytes must fit the element");
        let (pages, payload) =
            FilePages::open_bounded(dev, cache_pages, (KIND_ELEM, elem_bytes as u32), max_epoch)?;
        let page_size = pages.page_size();
        if !page_size.is_multiple_of(elem_bytes) {
            return Err(OpenError::Corrupt(format!(
                "element stride {elem_bytes} does not divide page size {page_size}"
            )));
        }
        let Some(len) = le(&payload, 0).map(u64::from_le_bytes) else {
            return Err(OpenError::Corrupt(
                "element-array metadata too short".into(),
            ));
        };
        let len = len as usize;
        let per_page = page_size / elem_bytes;
        if len > pages.num_pages() as usize * per_page {
            return Err(OpenError::Corrupt(format!(
                "committed length {len} exceeds the allocated page capacity"
            )));
        }
        Ok((
            FileMem {
                pages,
                len,
                elem_bytes,
                per_page,
                _marker: std::marker::PhantomData,
            },
            payload[8..].to_vec(),
        ))
    }

    /// The page cache under the array: its counters, page size, epoch,
    /// reclaim gate, `sync` and `drop_cache`. Commit through
    /// [`FileMem::commit_meta`], not the cache's own — only the former
    /// records the array's length.
    pub fn pages(&mut self) -> &mut FilePages<D> {
        &mut self.pages
    }

    /// Commits the array durably: data pages, the committed length, and
    /// the caller's `user` payload (see [`FilePages::commit_meta`]).
    pub fn commit_meta(&mut self, user: &[u8]) -> io::Result<()> {
        let mut payload = Vec::with_capacity(8 + user.len());
        payload.extend_from_slice(&(self.len as u64).to_le_bytes());
        payload.extend_from_slice(user);
        self.pages.commit_meta(&payload)
    }

    #[inline]
    fn locate(&self, i: usize) -> (u32, usize) {
        let page = (i / self.per_page) as u32;
        let off = (i % self.per_page) * self.elem_bytes;
        (page, off)
    }

    /// Splits the run `start..start + n` at page boundaries and hands
    /// `f` each piece as `(cells before it, cell count, the page's bytes
    /// from its first cell on)`, ascending; each page is touched once,
    /// charged as that many accesses (the rule of [`Mem::read_run`]).
    fn for_each_page(
        &mut self,
        start: usize,
        n: usize,
        write: bool,
        mut f: impl FnMut(usize, usize, &mut [u8]),
    ) {
        assert!(start + n <= self.len, "run past the end of the array");
        let mut done = 0;
        while done < n {
            let (page, off) = self.locate(start + done);
            let k = (n - done).min(self.per_page - (start + done) % self.per_page);
            f(done, k, &mut self.pages.page_run(page, write, k)[off..]);
            done += k;
        }
    }

    /// Writes `cell(j)` to element `start + j` for `j` in `0..n`.
    fn write_cells(&mut self, start: usize, n: usize, cell: impl Fn(usize) -> T) {
        let eb = self.elem_bytes;
        self.for_each_page(start, n, true, |done, k, bytes| {
            for (j, out) in bytes.chunks_mut(eb).take(k).enumerate() {
                cell(done + j).write_to(&mut out[..T::BYTES]);
            }
        });
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads element `i` (`&mut self`: it may fault a page into the
    /// cache).
    pub fn get(&mut self, i: usize) -> T {
        assert!(i < self.len);
        let (page, off) = self.locate(i);
        T::read_from(&self.pages.page_run(page, false, 1)[off..off + T::BYTES])
    }

    /// Writes element `i`.
    pub fn set(&mut self, i: usize, v: T) {
        assert!(i < self.len);
        let (page, off) = self.locate(i);
        v.write_to(&mut self.pages.page_run(page, true, 1)[off..off + T::BYTES]);
    }

    /// Grows or shrinks the array, filling new slots with `fill` (see
    /// [`Mem::resize`]).
    ///
    /// Growth is free, as in the DAM model: pages this call allocates
    /// already read as zeros (the contract of [`PageStore::alloc_page`]),
    /// so a fill whose encoding is all zero bytes — `Default` for the
    /// structures' cells — is written only over cells on pages that
    /// existed before the call (a grow after a shrink). Any other fill
    /// is written everywhere.
    pub fn resize(&mut self, new_len: usize, fill: T) {
        let old_len = self.len;
        let old_pages = self.pages.num_pages() as usize;
        let pages_needed = new_len.div_ceil(self.per_page) as u32;
        while self.pages.num_pages() < pages_needed {
            self.pages.alloc_page();
        }
        self.len = new_len;
        if new_len <= old_len {
            return;
        }
        let mut bytes = vec![0u8; T::BYTES];
        fill.write_to(&mut bytes);
        let end = if bytes.iter().all(|&b| b == 0) {
            new_len.min(old_pages * self.per_page)
        } else {
            new_len
        };
        if end > old_len {
            self.write_cells(old_len, end - old_len, |_| fill);
        }
    }

    /// [`Mem::read_run`] for the file store.
    pub fn read_run(&mut self, start: usize, out: &mut [T]) {
        let eb = self.elem_bytes;
        self.for_each_page(start, out.len(), false, |done, k, bytes| {
            for (slot, cell) in out[done..done + k].iter_mut().zip(bytes.chunks(eb)) {
                *slot = T::read_from(&cell[..T::BYTES]);
            }
        });
    }

    /// [`Mem::write_run`] for the file store.
    pub fn write_run(&mut self, start: usize, src: &[T]) {
        self.write_cells(start, src.len(), |j| src[j]);
    }

    /// [`Mem::peek_run`] for the file store: the cells from `start` to
    /// the end of their page, if the page is in the cache.
    pub fn peek_run(&self, start: usize, out: &mut [T]) -> usize {
        if start >= self.len {
            return 0;
        }
        let (page, off) = self.locate(start);
        let Some(bytes) = self.pages.peek_page(page) else {
            return 0;
        };
        let n = out
            .len()
            .min(self.per_page - start % self.per_page)
            .min(self.len - start);
        for (slot, cell) in out[..n]
            .iter_mut()
            .zip(bytes[off..].chunks(self.elem_bytes))
        {
            *slot = T::read_from(&cell[..T::BYTES]);
        }
        n
    }
}

/// What a [`Shared`] handle needs to know of the store it locks: where
/// its page cache is and how it commits.
pub trait Store {
    /// The device under the cache.
    type Dev: RawDev;

    /// The store's page cache.
    fn pages(&mut self) -> &mut FilePages<Self::Dev>;

    /// Commits the store's state plus the caller's `user` payload durably:
    /// a [`FileMem`] prefixes its length, a [`FilePages`] does not.
    fn commit_meta(&mut self, user: &[u8]) -> io::Result<()>;
}

impl<D: RawDev> Store for FilePages<D> {
    type Dev = D;

    fn pages(&mut self) -> &mut FilePages<D> {
        self
    }

    fn commit_meta(&mut self, user: &[u8]) -> io::Result<()> {
        FilePages::commit_meta(self, user)
    }
}

impl<T: Pod, D: RawDev> Store for FileMem<T, D> {
    type Dev = D;

    fn pages(&mut self) -> &mut FilePages<D> {
        FileMem::pages(self)
    }

    fn commit_meta(&mut self, user: &[u8]) -> io::Result<()> {
        FileMem::commit_meta(self, user)
    }
}

/// The one cloneable, thread-safe handle to a file store: a mutex around
/// the store plus its counter block, so a benchmark can keep one clone
/// for statistics and cache control while a dictionary owns the other as
/// its storage backend — and a file-backed dictionary is `Send` and can
/// serve as one shard of a sharded database whose sub-batches are applied
/// on worker threads. [`ArcFileMem`] is the handle a COLA runs over (it is
/// a [`Mem`]), [`ArcFilePages`] the one a tree runs over (a
/// [`PageStore`]); [`SharedStore`] forgets which.
pub struct Shared<S: ?Sized> {
    /// The store's counter block: stats observers bypass `inner`'s lock,
    /// so a probe thread never waits on (or deadlocks with) a writer
    /// holding the store through a long merge.
    stats: Arc<AtomicIoStats>,
    inner: Arc<std::sync::Mutex<S>>,
}

/// [`Shared`] over an element array: the [`Mem`] of a file-backed COLA.
pub type ArcFileMem<T, D = File> = Shared<FileMem<T, D>>;

/// [`Shared`] over the page cache itself: the [`PageStore`] of a
/// file-backed tree.
pub type ArcFilePages<D = File> = Shared<FilePages<D>>;

/// [`Shared`] with the store's kind erased (see [`Shared::erased`]), for
/// holders that only count, commit and control the cache.
pub type SharedStore<D = File> = Shared<dyn Store<Dev = D> + Send>;

impl<S: ?Sized> Clone for Shared<S> {
    fn clone(&self) -> Self {
        Shared {
            stats: self.stats.clone(),
            inner: self.inner.clone(),
        }
    }
}

impl<S: Store> Shared<S> {
    /// Wraps a store.
    pub fn new(mut inner: S) -> Self {
        Shared {
            stats: inner.pages().stats_handle(),
            inner: Arc::new(std::sync::Mutex::new(inner)),
        }
    }
}

impl<S: Store + Send + 'static> Shared<S> {
    /// A clone of this handle that no longer says which kind of store it
    /// locks: same mutex, same counters.
    pub fn erased(&self) -> SharedStore<S::Dev> {
        Shared {
            stats: self.stats.clone(),
            inner: self.inner.clone(),
        }
    }
}

impl<S: Store + ?Sized> Shared<S> {
    fn lock(&self) -> std::sync::MutexGuard<'_, S> {
        self.inner.lock().expect("file store mutex poisoned")
    }

    /// I/O counters of the backing store, read without touching the
    /// store's mutex.
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Resets the I/O counters (without the store's mutex).
    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    /// Snapshot-and-reset of the counters. A phase boundary cannot lose
    /// or double-count concurrent accesses (the per-phase idiom of the
    /// scenario harness; see [`AtomicIoStats::take`]) — and, taking no
    /// store lock, it cannot be starved by a writer holding the store
    /// through a long merge.
    pub fn take_stats(&self) -> IoStats {
        self.stats.take()
    }

    /// Installs a reclamation gate on the backing store (see
    /// [`FilePages::set_reclaim_gate`]).
    pub fn set_reclaim_gate(&self, gate: Arc<dyn ReclaimGate>) {
        self.lock().pages().set_reclaim_gate(gate)
    }

    /// Writes dirty pages back with a durability barrier.
    pub fn sync(&self) -> io::Result<()> {
        self.lock().pages().sync()
    }

    /// Commits the store's state plus the caller's payload durably (see
    /// [`Store::commit_meta`]).
    pub fn commit_meta(&self, user: &[u8]) -> io::Result<()> {
        self.lock().commit_meta(user)
    }

    /// The last committed metadata epoch.
    pub fn epoch(&self) -> u64 {
        self.lock().pages().epoch()
    }

    /// Empties the user-space page cache.
    pub fn drop_cache(&self) -> io::Result<()> {
        self.lock().pages().drop_cache()
    }
}

impl<T: Pod, D: RawDev> Mem<T> for ArcFileMem<T, D> {
    fn len(&self) -> usize {
        self.lock().len()
    }

    fn get(&self, i: usize) -> T {
        self.lock().get(i)
    }

    fn set(&mut self, i: usize, v: T) {
        self.lock().set(i, v)
    }

    fn resize(&mut self, new_len: usize, fill: T) {
        self.lock().resize(new_len, fill)
    }

    fn read_run(&self, start: usize, out: &mut [T]) {
        self.lock().read_run(start, out)
    }

    fn write_run(&mut self, start: usize, src: &[T]) {
        self.lock().write_run(start, src)
    }

    fn peek_run(&self, start: usize, out: &mut [T]) -> usize {
        self.lock().peek_run(start, out)
    }

    #[inline]
    fn peeks(&self) -> bool {
        true
    }
}

impl<D: RawDev> PageStore for ArcFilePages<D> {
    fn page_size(&self) -> usize {
        self.lock().page_size()
    }

    fn num_pages(&self) -> u32 {
        self.lock().num_pages()
    }

    fn alloc_page(&mut self) -> u32 {
        self.lock().alloc_page()
    }

    fn with_page<R>(&mut self, id: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        self.lock().with_page(id, f)
    }

    fn with_page_mut<R>(&mut self, id: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.lock().with_page_mut(id, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::CrashDev;
    use cosbt_testkit::TempPath;

    fn reopen(path: &Path) -> File {
        OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap()
    }

    #[test]
    fn file_pages_roundtrip_through_evictions() {
        let path = TempPath::new("pages");
        let mut fp = FilePages::create(&path, 256, 2).unwrap();
        for _ in 0..8 {
            fp.alloc_page();
        }
        for id in 0..8u32 {
            fp.with_page_mut(id, |pg| pg[0] = id as u8 + 1);
        }
        // Only 2 frames fit, so early pages were evicted and written back.
        for id in 0..8u32 {
            assert_eq!(fp.with_page(id, |pg| pg[0]), id as u8 + 1);
        }
        assert!(fp.stats().writebacks >= 6);
    }

    #[test]
    fn drop_cache_preserves_data() {
        let path = TempPath::new("dropcache");
        let mut fp = FilePages::create(&path, 128, 4).unwrap();
        let id = fp.alloc_page();
        fp.with_page_mut(id, |pg| pg[7] = 99);
        fp.drop_cache().unwrap();
        assert_eq!(fp.with_page(id, |pg| pg[7]), 99);
    }

    #[test]
    fn file_mem_stores_padded_elements() {
        let path = TempPath::new("filemem");
        let mut fm: FileMem<(u64, u64)> = FileMem::create(&path, 4096, 2, 32).unwrap();
        fm.resize(1000, (0, 0));
        for i in 0..1000usize {
            fm.set(i, (i as u64, (i * 3) as u64));
        }
        fm.pages().drop_cache().unwrap();
        for i in (0..1000usize).rev() {
            assert_eq!(fm.get(i), (i as u64, (i * 3) as u64));
        }
        // 1000 elements * 32 B = 8 pages of 4096; cold reverse scan with a
        // 2-page cache must fetch each at least once.
        assert!(fm.pages().stats().fetches >= 8);
    }

    #[test]
    fn arc_handles_share_state() {
        let path = TempPath::new("arcmem");
        let fm: FileMem<u64> = FileMem::create(&path, 512, 4, 8).unwrap();
        let mut a = ArcFileMem::new(fm);
        let b = a.clone();
        let e = a.erased();
        a.resize(100, 0);
        a.set(50, 1234);
        b.drop_cache().unwrap();
        assert_eq!(a.get(50), 1234);
        assert!(b.stats().fetches > 0);
        e.drop_cache().unwrap();
        let before = e.stats();
        assert_eq!(before, b.stats(), "one counter block under every clone");
        assert_eq!(a.get(50), 1234);
        assert_eq!(e.stats().fetches, before.fetches + 1);

        let path = TempPath::new("arcpages");
        let fp = FilePages::create(&path, 256, 2).unwrap();
        let mut p = ArcFilePages::new(fp);
        let q = p.clone();
        let e = p.erased().clone();
        let id = p.alloc_page();
        p.with_page_mut(id, |pg| pg[0] = 7);
        q.drop_cache().unwrap();
        assert_eq!(p.with_page(id, |pg| pg[0]), 7);
        e.drop_cache().unwrap();
        assert_eq!(p.with_page(id, |pg| pg[0]), 7);
        assert_eq!(e.stats(), q.stats());
    }

    #[test]
    fn take_stats_splits_phases_without_losing_counts() {
        let path = TempPath::new("phases");
        let fm: FileMem<u64> = FileMem::create(&path, 512, 2, 8).unwrap();
        let mut m = ArcFileMem::new(fm);
        m.resize(500, 0);
        for i in 0..500usize {
            m.set(i, i as u64);
        }
        let phase1 = m.take_stats();
        assert!(phase1.accesses > 0, "prefill phase touched the store");
        assert_eq!(m.stats(), IoStats::default(), "take resets the counters");
        m.drop_cache().unwrap();
        let _ = m.take_stats();
        for i in 0..500usize {
            assert_eq!(m.get(i), i as u64);
        }
        let phase2 = m.take_stats();
        assert!(phase2.fetches > 0, "cold read phase fetched");
        // Residency survives the snapshot: re-reading the tail the scan
        // just loaded (still in the 2-page cache) is all hits.
        for i in 490..500usize {
            let _ = m.get(i);
        }
        let phase3 = m.take_stats();
        assert_eq!(phase3.fetches, 0, "warm phase after snapshot");
        assert_eq!(phase3.hits, phase3.accesses);
        // The erased handle closes phases on the same counters.
        let e = m.erased();
        let _ = m.get(0);
        let phase4 = e.take_stats();
        assert_eq!((phase4.accesses, phase4.fetches), (1, 1));
        assert_eq!(m.stats(), IoStats::default());
    }

    #[test]
    fn arc_handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ArcFileMem<u64>>();
        assert_send::<ArcFilePages>();
        assert_send::<ArcFileMem<u64, CrashDev>>();
        fn assert_shareable<T: Clone + Send + Sync>() {}
        assert_shareable::<SharedStore>();
        assert_shareable::<SharedStore<CrashDev>>();
    }

    #[test]
    fn erased_handle_commits_as_its_store_does() {
        // An element array's commit carries its length ahead of the
        // caller's payload; the erased handle must not lose that.
        let dev = CrashDev::new();
        let mut m = ArcFileMem::new(FileMem::<u64, _>::create_on(dev.clone(), 512, 2, 8).unwrap());
        m.resize(100, 0);
        m.set(7, 77);
        m.erased().commit_meta(b"x").unwrap();
        assert_eq!(m.erased().epoch(), 1);
        let image = CrashDev::from_image(dev.snapshot());
        let (mut fm, payload) = FileMem::<u64, _>::open_on(image, 2, 8).unwrap();
        assert_eq!((fm.len(), fm.get(7), fm.get(8)), (100, 77, 0));
        assert_eq!(payload, b"x");

        // The page cache's own commit is the bare payload.
        let dev = CrashDev::new();
        let mut p = ArcFilePages::new(FilePages::create_on(dev.clone(), 128, 2).unwrap());
        let id = p.alloc_page();
        p.with_page_mut(id, |pg| pg[0] = 9);
        p.erased().commit_meta(b"x").unwrap();
        let image = CrashDev::from_image(dev.snapshot());
        let (mut fp, payload) = FilePages::open_on(image, 2, (KIND_PAGES, 0)).unwrap();
        assert_eq!(fp.with_page(id, |pg| pg[0]), 9);
        assert_eq!(payload, b"x");
    }

    #[test]
    fn reading_unwritten_page_yields_zeroes() {
        let path = TempPath::new("zeroes");
        let mut fp = FilePages::create(&path, 128, 2).unwrap();
        let id = fp.alloc_page();
        assert_eq!(fp.with_page(id, |pg| pg.to_vec()), vec![0u8; 128]);
    }

    #[test]
    fn commit_and_reopen_recovers_pages_and_payload() {
        let path = TempPath::new("reopen-pages");
        {
            let mut fp = FilePages::create(&path, 128, 2).unwrap();
            for i in 0..5u32 {
                let id = fp.alloc_page();
                fp.with_page_mut(id, |pg| pg[0] = i as u8 + 10);
            }
            fp.commit_meta(b"root=3").unwrap();
            assert_eq!(fp.epoch(), 1);
        }
        let (mut fp, payload) = FilePages::open_on(reopen(&path), 2, (KIND_PAGES, 0)).unwrap();
        assert_eq!(payload, b"root=3");
        assert_eq!(fp.num_pages(), 5);
        assert_eq!(fp.epoch(), 1);
        for i in 0..5u32 {
            assert_eq!(fp.with_page(i, |pg| pg[0]), i as u8 + 10);
        }
        // A second epoch replaces the first.
        fp.with_page_mut(0, |pg| pg[0] = 99);
        fp.commit_meta(b"root=7").unwrap();
        drop(fp);
        let (mut fp, payload) = FilePages::open_on(reopen(&path), 2, (KIND_PAGES, 0)).unwrap();
        assert_eq!(payload, b"root=7");
        assert_eq!(fp.epoch(), 2);
        assert_eq!(fp.with_page(0, |pg| pg[0]), 99);
    }

    #[test]
    fn file_mem_commit_restores_len() {
        let path = TempPath::new("reopen-mem");
        {
            let mut fm: FileMem<u64> = FileMem::create(&path, 512, 2, 8).unwrap();
            fm.resize(100, 0);
            for i in 0..100usize {
                fm.set(i, i as u64 * 3);
            }
            fm.commit_meta(b"cola").unwrap();
        }
        let (mut fm, payload) = FileMem::<u64>::open_on(reopen(&path), 2, 8).unwrap();
        assert_eq!(payload, b"cola");
        assert_eq!(fm.len(), 100);
        for i in 0..100usize {
            assert_eq!(fm.get(i), i as u64 * 3);
        }
    }

    #[test]
    fn uncommitted_writes_never_touch_committed_slots() {
        // The shadow-paging invariant the crash guarantee rests on: after
        // a commit, overwrite a page heavily *without* committing, then
        // reopen the device image — the committed state must be intact.
        let dev = CrashDev::new();
        let mut fp = FilePages::create_on(dev.clone(), 128, 2).unwrap();
        let id = fp.alloc_page();
        fp.with_page_mut(id, |pg| pg.fill(0xAA));
        fp.commit_meta(b"v1").unwrap();
        fp.with_page_mut(id, |pg| pg.fill(0xBB));
        fp.sync().unwrap(); // durable data write, but no meta commit
        drop(fp);
        let (mut re, payload) =
            FilePages::open_on(CrashDev::from_image(dev.snapshot()), 2, (KIND_PAGES, 0)).unwrap();
        assert_eq!(payload, b"v1");
        assert_eq!(re.with_page(id, |pg| pg.to_vec()), vec![0xAA; 128]);
    }

    #[test]
    fn open_rejects_wrong_kind_and_missing_commit() {
        let dev = CrashDev::new();
        let fm: FileMem<u64, CrashDev> = FileMem::create_on(dev.clone(), 512, 2, 8).unwrap();
        drop(fm);
        // Created but never committed.
        assert!(matches!(
            FileMem::<u64, CrashDev>::open_on(CrashDev::from_image(dev.snapshot()), 2, 8),
            Err(OpenError::NeverCommitted)
        ));
        // Commit, then misread the store's identity in every way.
        let dev = CrashDev::new();
        let mut fm: FileMem<u64, CrashDev> = FileMem::create_on(dev.clone(), 512, 2, 8).unwrap();
        fm.commit_meta(b"").unwrap();
        drop(fm);
        // Wrong stride.
        assert!(matches!(
            FileMem::<u64, CrashDev>::open_on(CrashDev::from_image(dev.snapshot()), 2, 16),
            Err(OpenError::WrongKind { .. })
        ));
        // An element array opened as a raw page store.
        assert!(matches!(
            FilePages::open_on(CrashDev::from_image(dev.snapshot()), 2, (KIND_PAGES, 0)),
            Err(OpenError::WrongKind { .. })
        ));
        // Not a store at all.
        assert!(matches!(
            FilePages::<CrashDev>::open_on(
                CrashDev::from_image(b"hello world".to_vec()),
                2,
                (KIND_PAGES, 0)
            ),
            Err(OpenError::BadMagic)
        ));
    }

    #[test]
    fn shadow_remap_reuses_freed_slots() {
        let dev = CrashDev::new();
        let mut fp = FilePages::create_on(dev, 64, 4).unwrap();
        let a = fp.alloc_page();
        let b = fp.alloc_page();
        fp.with_page_mut(a, |pg| pg[0] = 1);
        fp.with_page_mut(b, |pg| pg[0] = 2);
        fp.commit_meta(b"").unwrap();
        // Epoch 2: both pages dirty → both relocate to fresh slots.
        fp.with_page_mut(a, |pg| pg[0] = 3);
        fp.with_page_mut(b, |pg| pg[0] = 4);
        fp.commit_meta(b"").unwrap();
        let grown = fp.phys_pages();
        assert_eq!(grown, 4, "two shadow slots allocated");
        // Epoch 3: the slots freed by epoch 2 are recycled, not grown.
        fp.with_page_mut(a, |pg| pg[0] = 5);
        fp.with_page_mut(b, |pg| pg[0] = 6);
        fp.commit_meta(b"").unwrap();
        assert_eq!(fp.phys_pages(), grown, "freed slots were reused");
        assert_eq!(fp.with_page(a, |pg| pg[0]), 5);
        assert_eq!(fp.with_page(b, |pg| pg[0]), 6);
    }

    #[test]
    fn reclaim_gate_defers_slot_reuse_until_horizon() {
        use crate::reclaim::ReclaimGate;
        use std::sync::atomic::{AtomicU64, Ordering};

        struct Horizon(AtomicU64);
        impl ReclaimGate for Horizon {
            fn reclaim_horizon(&self) -> u64 {
                // ordering: single-threaded test gate; nothing else is
                // published through the horizon value.
                self.0.load(Ordering::Relaxed)
            }
        }

        // A "reader" pins old committed epochs: horizon 0 = everything
        // retired is still referenced.
        let gate = Arc::new(Horizon(AtomicU64::new(0)));
        let dev = CrashDev::new();
        let mut fp = FilePages::create_on(dev.clone(), 64, 4).unwrap();
        fp.set_reclaim_gate(gate.clone());
        let a = fp.alloc_page();
        let b = fp.alloc_page();
        fp.with_page_mut(a, |pg| pg[0] = 1);
        fp.with_page_mut(b, |pg| pg[0] = 2);
        fp.commit_meta(b"").unwrap(); // epoch 1
        fp.with_page_mut(a, |pg| pg[0] = 3);
        fp.with_page_mut(b, |pg| pg[0] = 4);
        fp.commit_meta(b"").unwrap(); // epoch 2: retires epoch-1 slots
        let grown = fp.phys_pages();
        assert_eq!(grown, 4, "two shadow slots allocated");
        assert_eq!(fp.retired_slots(), 2);
        // Epoch 3 with the horizon still at 0: retired slots must NOT be
        // recycled (an ungated store would reuse them here) — the store
        // grows instead.
        fp.with_page_mut(a, |pg| pg[0] = 5);
        fp.with_page_mut(b, |pg| pg[0] = 6);
        fp.commit_meta(b"").unwrap(); // epoch 3
        assert_eq!(fp.phys_pages(), grown + 2, "pinned slots were not reused");
        // Epoch 4, same: epoch 3's superseded slots park as well.
        fp.with_page_mut(a, |pg| pg[0] = 7);
        fp.with_page_mut(b, |pg| pg[0] = 8);
        fp.commit_meta(b"").unwrap(); // epoch 4
        assert_eq!(fp.phys_pages(), grown + 4);
        assert_eq!(fp.retired_slots(), 6);
        // This is what the gate buys: epoch 3 is still fully intact on
        // the device (its pages were never scribbled), so a coordinator
        // rolling this store back — or a pinned reader re-reading
        // through epoch 3's table — sees epoch 3's bytes.
        let (mut old, _) = FilePages::open_bounded(
            CrashDev::from_image(dev.snapshot()),
            4,
            (KIND_PAGES, 0),
            Some(3),
        )
        .unwrap();
        assert_eq!(old.with_page(a, |pg| pg[0]), 5);
        assert_eq!(old.with_page(b, |pg| pg[0]), 6);
        // Release the pin: everything retired below the new horizon is
        // recycled by the next remaps instead of growing the file.
        // ordering: single-threaded test; no cross-thread publication.
        gate.0.store(u64::MAX, Ordering::Relaxed);
        fp.with_page_mut(a, |pg| pg[0] = 9);
        fp.with_page_mut(b, |pg| pg[0] = 10);
        fp.commit_meta(b"").unwrap(); // epoch 5
        assert_eq!(
            fp.phys_pages(),
            grown + 4,
            "retired slots recycled once unpinned"
        );
        assert_eq!(fp.with_page(a, |pg| pg[0]), 9);
        assert_eq!(fp.with_page(b, |pg| pg[0]), 10);
    }
}

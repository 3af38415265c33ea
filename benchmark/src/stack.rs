//! Every symbol of the repository the benchmark touches lives in this
//! file (the README lists them), so a refactor knows which names the
//! benchmark needs kept.
//!
//! Two ways to run the same stream:
//!
//! * [`Facade`] — the public `Db` handle with builder defaults for every
//!   toggle. All end-to-end metrics come from here.
//! * [`Traced`] — the stack `DbBuilder::build_shard` assembles for a
//!   4-COLA, put together from the same public constructors with the
//!   benchmark's wrappers at the two trait seams:
//!   `GCola<TimedMem<ArcFileMem<Cell, TimedDev<DirectFile>>>>` for file
//!   stores, `GCola<CountedMem<PlainMem<Cell>>>` for memory. The wrappers
//!   time and count each call and forward it. That the replica has not
//!   drifted from `build_shard` is checked on every traced run: its
//!   `IoStats` must equal the facade's on the same stream.

use std::cell::{Cell as StdCell, RefCell};
use std::io;
use std::path::PathBuf;
use std::rc::Rc;

use cosbt::{Backend, Db, DbBuilder, DbReader, Structure, UpdateBatch};
use cosbt_core::{Cell, Cursor, Dictionary, GCola, Persist};
use cosbt_dam::{
    ArcFileMem, DirectFile, FileMem, IoStats, Mem, PlainMem, RawDev, DEFAULT_PAGE_SIZE,
};

use crate::gen::digest_step;
use crate::hist::Hist;
use crate::trace::{Clock, Kind, Recorder, Span};

/// Growth factor of the paper's experimental structure.
const GROWTH: usize = 4;
/// `DbBuilder`'s default lookahead-pointer density; the replica must
/// pass the same value to `GCola::new`.
const POINTER_DENSITY: f64 = 0.1;
/// Modeled cell size of the COLA file stores, as in `build_shard`.
const ELEM_BYTES: usize = 32;
/// Page size of every file store.
pub const PAGE_BYTES: usize = DEFAULT_PAGE_SIZE;
/// Metadata commit-slot capacity of every file store the benchmark
/// creates: 4 B per page, so 1 MiB maps 1 GiB of 4 KiB pages — several
/// times the largest store any workload grows.
pub const META_SLOT_BYTES: usize = 1 << 20;

/// Where a store lives and how much user-space cache it gets.
#[derive(Debug, Clone)]
pub struct StoreCfg {
    /// `None` = `Backend::Mem`.
    pub path: Option<PathBuf>,
    pub cache_bytes: usize,
}

impl StoreCfg {
    pub fn mem() -> StoreCfg {
        StoreCfg {
            path: None,
            cache_bytes: 0,
        }
    }

    pub fn file(path: PathBuf, cache_bytes: usize) -> StoreCfg {
        StoreCfg {
            path: Some(path),
            cache_bytes,
        }
    }

    /// Builder defaults for every toggle: the benchmark never calls
    /// `.cascade()`, `.veb_layout()` or any other A/B knob.
    fn builder(&self) -> DbBuilder {
        let b = DbBuilder::new().structure(Structure::GCola { g: GROWTH });
        match &self.path {
            None => b.backend(Backend::Mem),
            Some(p) => b
                .backend(Backend::file(p))
                .cache_bytes(self.cache_bytes)
                .meta_slot_bytes(META_SLOT_BYTES),
        }
    }
}

/// The six counters of `cosbt_dam::IoStats`, as the benchmark's own
/// plain data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    pub accesses: u64,
    pub hits: u64,
    pub fetches: u64,
    pub evictions: u64,
    pub writebacks: u64,
    pub seeks: u64,
}

impl From<IoStats> for IoCounts {
    fn from(s: IoStats) -> IoCounts {
        IoCounts {
            accesses: s.accesses,
            hits: s.hits,
            fetches: s.fetches,
            evictions: s.evictions,
            writebacks: s.writebacks,
            seeks: s.seeks,
        }
    }
}

impl IoCounts {
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            accesses: self.accesses - earlier.accesses,
            hits: self.hits - earlier.hits,
            fetches: self.fetches - earlier.fetches,
            evictions: self.evictions - earlier.evictions,
            writebacks: self.writebacks - earlier.writebacks,
            seeks: self.seeks - earlier.seeks,
        }
    }

    pub fn transfers(&self) -> u64 {
        self.fetches + self.writebacks
    }
}

/// What a single-client stream is run against.
pub trait Target {
    fn insert(&mut self, key: u64, val: u64);
    fn delete(&mut self, key: u64);
    fn get(&mut self, key: u64) -> Option<u64>;
    /// Opens a cursor at `lo`, reads up to `len` entries, and returns how
    /// many it got and their order-sensitive digest.
    fn scan(&mut self, lo: u64, len: u32) -> (u32, u64);
    /// The stated flush: `Db::sync()`, or the same two calls on the replica.
    fn sync(&mut self);
    fn insert_batch(&mut self, sorted: &[(u64, u64)]);
    /// Every live entry, in key order (the final check of a pass).
    fn range_all(&mut self) -> Vec<(u64, u64)>;
    /// Cumulative counters of the user-space page cache (zeros in memory).
    fn io(&self) -> IoCounts;
    /// Empties the user-space page cache (no-op in memory).
    fn drop_cache(&mut self);
    /// Bytes the store's files occupy on disk (0 where not observed).
    fn data_bytes(&self) -> u64 {
        0
    }
    /// Told by the runner after every timed call; only the replica listens.
    fn op_done(&mut self, _kind: Kind, _start_ns: u64, _end_ns: u64) {}
}

/// What the replica saw during one pass.
#[derive(Debug)]
pub struct Layers {
    pub core: CoreCounts,
    pub dev: DevCounts,
    pub rec: Recorder,
}

/// How long constructing or opening a store took. The facade shows
/// only the total; the replica also shows the two halves.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenTimes {
    pub total_s: f64,
    /// `FileMem::create_on_sized` / `open_bounded`: superblock, metadata
    /// slots, page table.
    pub store_s: f64,
    /// `GCola::from_parts`: validation and the accelerator rebuild scan.
    pub from_parts_s: f64,
}

/// A [`Target`] the runner can also construct, reopen and throw away.
pub trait Stack: Target + Sized {
    /// A fresh, empty store (its file created or truncated).
    fn create(cfg: &StoreCfg, clock: Clock) -> (Self, OpenTimes);
    /// Drops the handle and opens the (committed) store again from its
    /// file.
    fn reopen(self, cfg: &StoreCfg, clock: Clock) -> (Self, OpenTimes);
    /// Drops a throw-away store without a final commit.
    fn finish(self);
    /// Starts a traced pass: forgets spans and seam totals so far.
    fn start_recording(&mut self) {}
    /// Ends a traced pass; `None` from the facade, which sees no layers.
    fn take_layers(&mut self) -> Option<Layers> {
        None
    }
}

fn secs(from_ns: u64, to_ns: u64) -> f64 {
    (to_ns - from_ns) as f64 / 1e9
}

fn fold_cursor(mut cur: Cursor<'_>, len: u32) -> (u32, u64) {
    let (mut n, mut h) = (0u32, 0u64);
    while n < len {
        let Some((k, v)) = cur.next() else { break };
        n += 1;
        h = digest_step(h, k, v);
    }
    (n, h)
}

// ---------------------------------------------------------------------
// The public facade.
// ---------------------------------------------------------------------

/// A `Db` built or opened through `DbBuilder`.
pub struct Facade {
    db: Db,
    data_paths: Vec<PathBuf>,
}

impl Stack for Facade {
    /// `DbBuilder::build()`.
    fn create(cfg: &StoreCfg, clock: Clock) -> (Facade, OpenTimes) {
        let t = clock.now();
        let b = cfg.builder();
        let data_paths = b.data_paths();
        let db = b.build().expect("DbBuilder::build");
        let times = OpenTimes {
            total_s: secs(t, clock.now()),
            ..OpenTimes::default()
        };
        (Facade { db, data_paths }, times)
    }

    /// Drop, `DbBuilder::open()`.
    fn reopen(self, cfg: &StoreCfg, clock: Clock) -> (Facade, OpenTimes) {
        drop(self);
        let t = clock.now();
        let b = cfg.builder();
        let data_paths = b.data_paths();
        let db = b.open().expect("DbBuilder::open");
        let times = OpenTimes {
            total_s: secs(t, clock.now()),
            ..OpenTimes::default()
        };
        (Facade { db, data_paths }, times)
    }

    /// `Db::discard_on_drop()`, then drop.
    fn finish(mut self) {
        self.db.discard_on_drop();
    }
}

impl Facade {
    /// One writer batch: `Db::apply` of puts.
    pub fn apply_puts(&mut self, puts: impl Iterator<Item = (u64, u64)>) {
        let mut batch = UpdateBatch::with_capacity(puts.size_hint().0);
        for (k, v) in puts {
            batch.put(k, v);
        }
        self.db.apply(&mut batch);
    }

    /// `drop(db.snapshot())`: publishes pending writes to the readers;
    /// returns the published epoch and the runs in its stack.
    pub fn publish(&mut self) -> (u64, u64) {
        let snap = self.db.snapshot();
        (snap.epoch(), snap.run_count() as u64)
    }

    /// `Db::reader()`; the first call seeds the MVCC overlay.
    pub fn reader(&mut self) -> Reader {
        Reader(self.db.reader())
    }

    pub fn epochs(&self) -> EpochCounts {
        let s = self.db.snapshot_stats();
        EpochCounts {
            published: s.published,
            retired_runs: s.retired_runs,
            reclaimed_runs: s.reclaimed_runs,
            retired_pending: s.retired_pending as u64,
        }
    }
}

impl Target for Facade {
    fn insert(&mut self, key: u64, val: u64) {
        self.db.insert(key, val)
    }
    fn delete(&mut self, key: u64) {
        self.db.delete(key)
    }
    fn get(&mut self, key: u64) -> Option<u64> {
        self.db.get(key)
    }
    fn scan(&mut self, lo: u64, len: u32) -> (u32, u64) {
        fold_cursor(self.db.cursor(lo, u64::MAX), len)
    }
    fn sync(&mut self) {
        self.db.sync().expect("Db::sync");
    }
    fn insert_batch(&mut self, sorted: &[(u64, u64)]) {
        self.db.insert_batch(sorted)
    }
    fn range_all(&mut self) -> Vec<(u64, u64)> {
        self.db.range(0, u64::MAX)
    }
    fn io(&self) -> IoCounts {
        self.db.io().snapshot().into()
    }
    fn drop_cache(&mut self) {
        self.db.drop_cache().expect("Db::drop_cache");
    }
    /// Total size of `DbBuilder::data_paths()`.
    fn data_bytes(&self) -> u64 {
        self.data_paths
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum()
    }
}

/// A `DbReader`: the client side of `contended_rw`.
pub struct Reader(DbReader);

impl Reader {
    #[inline]
    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.0.get(key)
    }

    /// Epoch of the currently pinned view.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }
}

/// `Db::snapshot_stats()` as the benchmark's own plain data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochCounts {
    pub published: u64,
    pub retired_runs: u64,
    pub reclaimed_runs: u64,
    pub retired_pending: u64,
}

// ---------------------------------------------------------------------
// The seams.
// ---------------------------------------------------------------------

/// Calls, bytes and latencies of one kind of device call.
#[derive(Debug, Default, Clone)]
pub struct DevOp {
    pub calls: u64,
    pub bytes: u64,
    pub ns: Hist,
}

impl DevOp {
    fn record(&mut self, bytes: usize, ns: u64) {
        self.calls += 1;
        self.bytes += bytes as u64;
        self.ns.record(ns);
    }
}

#[derive(Debug, Default, Clone)]
pub struct DevCounts {
    pub read: DevOp,
    pub write: DevOp,
    pub sync: DevOp,
}

/// Running totals the two seams add to and the span recorder reads.
/// Single-threaded by construction: the traced stack never leaves the
/// thread that built it.
#[derive(Debug)]
pub struct Probe {
    clock: Clock,
    mem_ns: StdCell<u64>,
    mem_calls: StdCell<u64>,
    dev_ns: StdCell<u64>,
    dev_calls: StdCell<u64>,
    dev_bytes: StdCell<u64>,
    dev: RefCell<DevCounts>,
}

impl Probe {
    fn new(clock: Clock) -> Rc<Probe> {
        Rc::new(Probe {
            clock,
            mem_ns: StdCell::new(0),
            mem_calls: StdCell::new(0),
            dev_ns: StdCell::new(0),
            dev_calls: StdCell::new(0),
            dev_bytes: StdCell::new(0),
            dev: RefCell::new(DevCounts::default()),
        })
    }

    #[inline]
    fn mem_call(&self, start: u64) {
        self.mem_ns
            .set(self.mem_ns.get() + (self.clock.now() - start));
        self.mem_calls.set(self.mem_calls.get() + 1);
    }

    fn dev_call(&self, start: u64, bytes: usize, pick: impl FnOnce(&mut DevCounts) -> &mut DevOp) {
        let ns = self.clock.now() - start;
        self.dev_ns.set(self.dev_ns.get() + ns);
        self.dev_calls.set(self.dev_calls.get() + 1);
        self.dev_bytes.set(self.dev_bytes.get() + bytes as u64);
        pick(&mut self.dev.borrow_mut()).record(bytes, ns);
    }
}

/// Times and counts every `RawDev` call, then forwards it.
pub struct TimedDev<D> {
    inner: D,
    probe: Rc<Probe>,
}

impl<D: RawDev> RawDev for TimedDev<D> {
    fn read_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<usize> {
        let t = self.probe.clock.now();
        let r = self.inner.read_at(buf, off);
        self.probe
            .dev_call(t, *r.as_ref().unwrap_or(&0), |d| &mut d.read);
        r
    }

    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        let t = self.probe.clock.now();
        let r = self.inner.write_all_at(buf, off);
        self.probe.dev_call(t, buf.len(), |d| &mut d.write);
        r
    }

    fn sync(&mut self) -> io::Result<()> {
        let t = self.probe.clock.now();
        let r = self.inner.sync();
        self.probe.dev_call(t, 0, |d| &mut d.sync);
        r
    }

    fn dev_len(&mut self) -> io::Result<u64> {
        self.inner.dev_len()
    }
}

/// Times and counts every `Mem` call, then forwards it — the bulk calls
/// too, so the wrapped store's own `copy_within`/`fill_range` run, not
/// the trait's per-cell defaults re-entering this wrapper.
pub struct TimedMem<M> {
    inner: M,
    probe: Rc<Probe>,
}

impl<M: Mem<Cell>> Mem<Cell> for TimedMem<M> {
    fn len(&self) -> usize {
        let t = self.probe.clock.now();
        let r = self.inner.len();
        self.probe.mem_call(t);
        r
    }

    #[inline]
    fn get(&self, i: usize) -> Cell {
        let t = self.probe.clock.now();
        let r = self.inner.get(i);
        self.probe.mem_call(t);
        r
    }

    #[inline]
    fn set(&mut self, i: usize, v: Cell) {
        let t = self.probe.clock.now();
        self.inner.set(i, v);
        self.probe.mem_call(t);
    }

    fn resize(&mut self, new_len: usize, fill: Cell) {
        let t = self.probe.clock.now();
        self.inner.resize(new_len, fill);
        self.probe.mem_call(t);
    }

    fn copy_within(&mut self, src: usize, dst: usize, n: usize) {
        let t = self.probe.clock.now();
        self.inner.copy_within(src, dst, n);
        self.probe.mem_call(t);
    }

    fn fill_range(&mut self, start: usize, end: usize, v: Cell) {
        let t = self.probe.clock.now();
        self.inner.fill_range(start, end, v);
        self.probe.mem_call(t);
    }
}

/// Counts every `Mem` call and forwards it. No clock reads: over
/// `PlainMem` a call is a nanosecond and a timer would be the workload.
pub struct CountedMem<M> {
    inner: M,
    probe: Rc<Probe>,
}

impl<M> CountedMem<M> {
    #[inline]
    fn count(&self) {
        self.probe.mem_calls.set(self.probe.mem_calls.get() + 1);
    }
}

impl<M: Mem<Cell>> Mem<Cell> for CountedMem<M> {
    #[inline]
    fn len(&self) -> usize {
        self.count();
        self.inner.len()
    }

    #[inline]
    fn get(&self, i: usize) -> Cell {
        self.count();
        self.inner.get(i)
    }

    #[inline]
    fn set(&mut self, i: usize, v: Cell) {
        self.count();
        self.inner.set(i, v)
    }

    fn resize(&mut self, new_len: usize, fill: Cell) {
        self.count();
        self.inner.resize(new_len, fill)
    }

    fn copy_within(&mut self, src: usize, dst: usize, n: usize) {
        self.count();
        self.inner.copy_within(src, dst, n)
    }

    fn fill_range(&mut self, start: usize, end: usize, v: Cell) {
        self.count();
        self.inner.fill_range(start, end, v)
    }
}

// ---------------------------------------------------------------------
// The traced replica.
// ---------------------------------------------------------------------

type FileStore = ArcFileMem<Cell, TimedDev<DirectFile>>;
pub type FileSeam = TimedMem<FileStore>;
pub type MemSeam = CountedMem<PlainMem<Cell>>;

/// `GCola::stats()` and `GCola::num_levels()` as plain data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounts {
    pub inserts: u64,
    pub merges: u64,
    pub cells_written: u64,
    pub searches: u64,
    pub cells_scanned: u64,
    pub max_cells_per_insert: u64,
    pub filter_skips: u64,
    pub levels: u64,
}

impl CoreCounts {
    /// Counters since `earlier`; the two that are not sums (the largest
    /// single insert, the level count) keep their current value.
    pub fn since(&self, earlier: &CoreCounts) -> CoreCounts {
        CoreCounts {
            inserts: self.inserts - earlier.inserts,
            merges: self.merges - earlier.merges,
            cells_written: self.cells_written - earlier.cells_written,
            searches: self.searches - earlier.searches,
            cells_scanned: self.cells_scanned - earlier.cells_scanned,
            max_cells_per_insert: self.max_cells_per_insert,
            filter_skips: self.filter_skips - earlier.filter_skips,
            levels: self.levels,
        }
    }
}

/// The 4-COLA over a seam-wrapped store, driven directly.
pub struct Traced<M: Mem<Cell>> {
    cola: GCola<M>,
    /// The file store's second handle, as `DbBuilder` keeps one: commits,
    /// cache control and counters. `None` in memory.
    store: Option<FileStore>,
    probe: Rc<Probe>,
    seen: Seen,
    core_base: CoreCounts,
    rec: Recorder,
}

/// Seam totals at the end of the previous span.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    mem_ns: u64,
    mem_calls: u64,
    dev_ns: u64,
    dev_calls: u64,
    dev_bytes: u64,
}

impl Stack for Traced<FileSeam> {
    /// As `build_shard` for `(Backend::File, GCola)`, then the initial
    /// commit `DbBuilder::build` makes.
    fn create(cfg: &StoreCfg, clock: Clock) -> (Traced<FileSeam>, OpenTimes) {
        let path = cfg.path.as_deref().expect("a file store needs a path");
        let probe = Probe::new(clock);
        let t = clock.now();
        let dev = TimedDev {
            inner: DirectFile::create(path, false).expect("DirectFile::create"),
            probe: probe.clone(),
        };
        let store = ArcFileMem::new(
            FileMem::<Cell, _>::create_on_sized(
                dev,
                PAGE_BYTES,
                cache_pages(cfg.cache_bytes),
                ELEM_BYTES,
                META_SLOT_BYTES,
            )
            .expect("FileMem::create_on_sized"),
        );
        let store_s = secs(t, clock.now());
        let seam = TimedMem {
            inner: store.clone(),
            probe: probe.clone(),
        };
        let cola = GCola::new(seam, GROWTH, POINTER_DENSITY);
        let mut this = Traced::assemble(cola, Some(store), probe);
        this.sync();
        (
            this,
            OpenTimes {
                total_s: secs(t, clock.now()),
                store_s,
                from_parts_s: 0.0,
            },
        )
    }

    /// Drop, then as `open_shard` for a 4-COLA.
    fn reopen(self, cfg: &StoreCfg, clock: Clock) -> (Traced<FileSeam>, OpenTimes) {
        drop(self);
        let path = cfg.path.as_deref().expect("a file store needs a path");
        let probe = Probe::new(clock);
        let t0 = clock.now();
        let dev = TimedDev {
            inner: DirectFile::open(path, false).expect("DirectFile::open"),
            probe: probe.clone(),
        };
        let (mem, meta) =
            FileMem::<Cell, _>::open_bounded(dev, cache_pages(cfg.cache_bytes), ELEM_BYTES, None)
                .expect("FileMem::open_bounded");
        let store = ArcFileMem::new(mem);
        let t1 = clock.now();
        let seam = TimedMem {
            inner: store.clone(),
            probe: probe.clone(),
        };
        let cola = GCola::from_parts(seam, &meta).expect("GCola::from_parts");
        let t2 = clock.now();
        let times = OpenTimes {
            total_s: secs(t0, t2),
            store_s: secs(t0, t1),
            from_parts_s: secs(t1, t2),
        };
        (Traced::assemble(cola, Some(store), probe), times)
    }

    fn finish(self) {}

    fn start_recording(&mut self) {
        self.begin_pass()
    }

    fn take_layers(&mut self) -> Option<Layers> {
        Some(self.end_pass())
    }
}

impl Stack for Traced<MemSeam> {
    /// As `build_shard` for `(Backend::Mem, GCola)`.
    fn create(_cfg: &StoreCfg, clock: Clock) -> (Traced<MemSeam>, OpenTimes) {
        let probe = Probe::new(clock);
        let seam = CountedMem {
            inner: PlainMem::new(),
            probe: probe.clone(),
        };
        let cola = GCola::new(seam, GROWTH, POINTER_DENSITY);
        (Traced::assemble(cola, None, probe), OpenTimes::default())
    }

    fn reopen(self, _cfg: &StoreCfg, _clock: Clock) -> (Traced<MemSeam>, OpenTimes) {
        unreachable!("a memory store has no file to reopen; no workload asks")
    }

    fn finish(self) {}

    fn start_recording(&mut self) {
        self.begin_pass()
    }

    fn take_layers(&mut self) -> Option<Layers> {
        Some(self.end_pass())
    }
}

/// `build_shard`'s cache sizing: whole pages, at least two.
fn cache_pages(cache_bytes: usize) -> usize {
    (cache_bytes / PAGE_BYTES).max(2)
}

impl<M: Mem<Cell>> Traced<M> {
    fn assemble(cola: GCola<M>, store: Option<FileStore>, probe: Rc<Probe>) -> Traced<M> {
        Traced {
            cola,
            store,
            probe,
            seen: Seen::default(),
            core_base: CoreCounts::default(),
            rec: Recorder::default(),
        }
    }

    pub fn core(&self) -> CoreCounts {
        let s = self.cola.stats();
        CoreCounts {
            inserts: s.inserts,
            merges: s.merges,
            cells_written: s.cells_written,
            searches: s.searches,
            cells_scanned: s.cells_scanned,
            max_cells_per_insert: s.max_cells_per_insert,
            filter_skips: s.filter_skips,
            levels: self.cola.num_levels() as u64,
        }
    }

    /// Forgets the spans and seam totals so far (set-up is not traced).
    pub fn begin_pass(&mut self) {
        self.rec = Recorder::default();
        self.seen = self.totals();
        self.core_base = self.core();
        *self.probe.dev.borrow_mut() = DevCounts::default();
    }

    /// Everything seen since [`Traced::begin_pass`].
    pub fn end_pass(&mut self) -> Layers {
        Layers {
            core: self.core().since(&self.core_base),
            dev: self.probe.dev.borrow().clone(),
            rec: std::mem::take(&mut self.rec),
        }
    }

    fn totals(&self) -> Seen {
        Seen {
            mem_ns: self.probe.mem_ns.get(),
            mem_calls: self.probe.mem_calls.get(),
            dev_ns: self.probe.dev_ns.get(),
            dev_calls: self.probe.dev_calls.get(),
            dev_bytes: self.probe.dev_bytes.get(),
        }
    }
}

impl<M: Mem<Cell>> Target for Traced<M> {
    fn insert(&mut self, key: u64, val: u64) {
        self.cola.insert(key, val)
    }
    fn delete(&mut self, key: u64) {
        self.cola.delete(key)
    }
    fn get(&mut self, key: u64) -> Option<u64> {
        self.cola.get(key)
    }
    fn scan(&mut self, lo: u64, len: u32) -> (u32, u64) {
        fold_cursor(self.cola.cursor(lo, u64::MAX), len)
    }
    fn sync(&mut self) {
        if let Some(store) = &self.store {
            let meta = self.cola.save_meta();
            store.commit_meta(&meta).expect("ArcFileMem::commit_meta");
        }
    }
    fn insert_batch(&mut self, sorted: &[(u64, u64)]) {
        self.cola.insert_batch(sorted)
    }
    fn range_all(&mut self) -> Vec<(u64, u64)> {
        self.cola.range(0, u64::MAX)
    }
    fn io(&self) -> IoCounts {
        self.store
            .as_ref()
            .map(|s| s.stats().into())
            .unwrap_or_default()
    }
    fn drop_cache(&mut self) {
        if let Some(store) = &self.store {
            store.drop_cache().expect("ArcFileMem::drop_cache");
        }
    }
    fn op_done(&mut self, kind: Kind, start_ns: u64, end_ns: u64) {
        let now = self.totals();
        self.rec.record(Span {
            id: 0,
            kind,
            start_ns,
            end_ns,
            mem_ns: now.mem_ns - self.seen.mem_ns,
            mem_calls: now.mem_calls - self.seen.mem_calls,
            dev_ns: now.dev_ns - self.seen.dev_ns,
            dev_calls: now.dev_calls - self.seen.dev_calls,
            dev_bytes: now.dev_bytes - self.seen.dev_bytes,
        });
        self.seen = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ingest_ops, model_replay, Op};
    use crate::scratch::Scratch;

    fn drive(t: &mut dyn Target, ops: &[Op]) {
        for op in ops {
            match *op {
                Op::Insert { key, val } => t.insert(key, val),
                Op::Delete { key } => t.delete(key),
                Op::Get { key } => drop(t.get(key)),
                Op::Scan { lo, len } => drop(t.scan(lo, len)),
                Op::Sync => t.sync(),
            }
        }
    }

    /// The wrappers are observationally transparent: same contents and
    /// the same `IoStats` as the unwrapped stack the facade builds.
    #[test]
    fn seams_are_transparent() {
        let scratch = Scratch::create().unwrap();
        let ops = ingest_ops(5, 6_000, 1_000);
        let (_, want) = model_replay(&[], &ops);
        let cache = 8 * PAGE_BYTES;

        let clock = Clock::start();
        let fcfg = StoreCfg::file(scratch.path("facade.db"), cache);
        let tcfg = StoreCfg::file(scratch.path("traced.db"), cache);
        let (mut facade, _) = Facade::create(&fcfg, clock);
        drive(&mut facade, &ops);
        let (mut traced, _) = Traced::<FileSeam>::create(&tcfg, clock);
        drive(&mut traced, &ops);

        assert_eq!(facade.io(), traced.io());
        assert!(
            facade.io().writebacks > 0,
            "the stream must spill the cache"
        );
        assert_eq!(facade.range_all(), want);
        assert_eq!(traced.range_all(), want);
        let dev = traced.end_pass().dev;
        assert!(dev.write.calls > 0 && dev.sync.calls > 0);

        // Reopened through the seams: same contents, same counters as a
        // facade reopen reading the same keys.
        facade.sync();
        traced.sync();
        let (mut facade, _) = facade.reopen(&fcfg, clock);
        let (mut traced, times) = traced.reopen(&tcfg, clock);
        assert!(times.from_parts_s > 0.0 && times.store_s > 0.0);
        assert_eq!(facade.io(), traced.io());
        for &(k, v) in want.iter().step_by(7) {
            assert_eq!(facade.get(k), Some(v));
            assert_eq!(traced.get(k), Some(v));
        }
        assert_eq!(facade.io(), traced.io());
        facade.finish();

        let (mut mem, _) = Traced::<MemSeam>::create(&StoreCfg::mem(), clock);
        drive(&mut mem, &ops);
        assert_eq!(mem.range_all(), want);
        assert_eq!(mem.io(), IoCounts::default());
    }

    #[test]
    fn spans_attribute_seam_time_to_the_op_that_caused_it() {
        let scratch = Scratch::create().unwrap();
        let clock = Clock::start();
        let cfg = StoreCfg::file(scratch.path("t.db"), 2 * PAGE_BYTES);
        let (mut t, _) = Traced::<FileSeam>::create(&cfg, clock);
        t.begin_pass();
        for i in 0..2_000u64 {
            let s = clock.now();
            t.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
            t.op_done(Kind::Insert, s, clock.now());
        }
        let s = clock.now();
        t.sync();
        t.op_done(Kind::Sync, s, clock.now());
        let Layers { core, dev, rec } = t.end_pass();
        assert_eq!(rec.spans, 2_001);
        assert_eq!(rec.self_time.total(), rec.span_ns);
        assert!(rec.self_time.core > 0 && rec.self_time.cache > 0);
        assert!(rec.self_time.dev > 0, "a 2-page cache must hit the device");
        assert!(rec.self_time.commit > 0);
        assert!(rec.mem_calls >= 2_000);
        assert_eq!(core.inserts, 2_000);
        assert!(dev.read.calls > 0 && dev.write.bytes > 0);
    }
}

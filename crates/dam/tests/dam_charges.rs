//! The file store charges what the DAM model charges:
//!
//! 1. **Growth is free.** Growing an element array over fresh pages with
//!    a zero fill moves no counter, as growing a [`SimMem`] moves none,
//!    and the grown cells read back as zeros through every way a page
//!    can leave and re-enter the cache — sync, cache drop, commit and
//!    reopen, crash recovery over a device that extends past the
//!    committed high-water mark. A fill over pages that already exist,
//!    or a fill that is not all zero bytes, is still written cell by
//!    cell.
//! 2. **A page is written back once per change.** A page written, synced
//!    and then evicted unwritten costs one writeback, not two.

use std::ops::Range;

use cosbt_dam::{
    new_shared_sim, ArcFileMem, CacheConfig, CrashDev, FileMem, FilePages, IoStats, Mem, PageStore,
    SimMem,
};

const PAGE: usize = 64;
const PER_PAGE: usize = PAGE / 8;
const CACHE: usize = 2;

type Array = FileMem<u64, CrashDev>;

fn create(dev: &CrashDev) -> Array {
    FileMem::create_on(dev.clone(), PAGE, CACHE, 8).unwrap()
}

/// Reopens the committed state of `dev`'s current image.
fn reopen(dev: &CrashDev) -> Array {
    FileMem::open_on(CrashDev::from_image(dev.snapshot()), CACHE, 8)
        .unwrap()
        .0
}

fn assert_zeros(fm: &mut Array, cells: Range<usize>, when: &str) {
    for i in cells {
        assert_eq!(fm.get(i), 0, "{when}: cell {i}");
    }
}

#[test]
fn growing_over_fresh_pages_with_a_zero_fill_moves_no_counter() {
    let dev = CrashDev::new();
    let mut fm = create(&dev);
    let end = dev.snapshot().len();
    fm.resize(10 * PER_PAGE, 0);
    assert_eq!(fm.pages().stats(), IoStats::default(), "growth charged");
    fm.pages().sync().unwrap();
    assert_eq!(fm.pages().stats(), IoStats::default(), "sync wrote a page");
    assert_eq!(dev.snapshot().len(), end, "grown pages stay sparse");

    // The cells read as zeros: resident, after a sync, after a cache
    // drop, after a commit and reopen. Reading them writes nothing.
    assert_zeros(&mut fm, 0..10 * PER_PAGE, "fresh");
    fm.pages().sync().unwrap();
    assert_zeros(&mut fm, 0..10 * PER_PAGE, "synced");
    fm.pages().drop_cache().unwrap();
    assert_zeros(&mut fm, 0..10 * PER_PAGE, "dropped");
    assert_eq!(fm.pages().stats().writebacks, 0);
    fm.commit_meta(b"").unwrap();
    let mut re = reopen(&dev);
    assert_eq!(re.len(), 10 * PER_PAGE);
    assert_zeros(&mut re, 0..10 * PER_PAGE, "reopened");
}

#[test]
fn growth_after_recovery_reads_zeros_over_stale_slots() {
    // Commit two pages, then grow by four more, fill them and sync
    // without committing: the device now holds stale bytes past the
    // committed high-water mark.
    let dev = CrashDev::new();
    let mut fm = create(&dev);
    fm.resize(2 * PER_PAGE, 0);
    fm.write_run(0, &[7; 2 * PER_PAGE]);
    fm.commit_meta(b"").unwrap();
    fm.resize(6 * PER_PAGE, 0);
    fm.write_run(2 * PER_PAGE, &[9; 4 * PER_PAGE]);
    fm.pages().sync().unwrap();
    drop(fm);

    // Recovery sees the committed two pages; growing over the stale
    // slots is still free and reads zeros.
    let mut re = reopen(&dev);
    assert_eq!(re.len(), 2 * PER_PAGE);
    re.resize(6 * PER_PAGE, 0);
    assert_eq!(re.pages().stats(), IoStats::default(), "growth charged");
    assert_zeros(&mut re, 2 * PER_PAGE..6 * PER_PAGE, "recovered");
    assert_eq!(re.get(0), 7);
    re.pages().drop_cache().unwrap();
    assert_zeros(&mut re, 2 * PER_PAGE..6 * PER_PAGE, "recovered, dropped");
}

#[test]
fn growing_over_existing_pages_writes_every_new_cell() {
    let dev = CrashDev::new();
    let mut fm = create(&dev);
    fm.resize(4 * PER_PAGE, 0);
    fm.write_run(0, &[5; 4 * PER_PAGE]);
    // Shrink to mid-page, then grow past the pages that exist: the
    // cells on the four old pages are written, the two new pages are
    // not touched.
    fm.resize(PER_PAGE + 3, 0);
    let _ = fm.pages().take_stats();
    fm.resize(6 * PER_PAGE, 0);
    let grow = fm.pages().take_stats();
    assert_eq!(grow.accesses, (4 * PER_PAGE - (PER_PAGE + 3)) as u64);
    assert_zeros(&mut fm, PER_PAGE + 3..6 * PER_PAGE, "regrown");
    assert_eq!(fm.get(PER_PAGE + 2), 5);
    fm.pages().drop_cache().unwrap();
    assert_zeros(&mut fm, PER_PAGE + 3..6 * PER_PAGE, "regrown, dropped");
}

#[test]
fn a_non_zero_fill_is_written_everywhere() {
    let dev = CrashDev::new();
    let mut fm = create(&dev);
    fm.resize(3 * PER_PAGE, 0xAB);
    let grow = fm.pages().stats();
    assert_eq!(grow.accesses, (3 * PER_PAGE) as u64);
    assert_eq!(grow.fetches, 3);
    fm.pages().drop_cache().unwrap();
    for i in 0..3 * PER_PAGE {
        assert_eq!(fm.get(i), 0xAB, "cell {i}");
    }
}

#[test]
fn sim_and_file_stores_charge_growth_alike() {
    let sim = new_shared_sim(CacheConfig::new(PAGE, CACHE));
    let mut s: SimMem<u64> = SimMem::with_elem_bytes(sim.clone(), 8);
    let mut f = ArcFileMem::new(create(&CrashDev::new()));
    s.resize(10 * PER_PAGE, 0);
    f.resize(10 * PER_PAGE, 0);
    assert_eq!(sim.borrow().stats(), IoStats::default());
    assert_eq!(f.stats(), IoStats::default());
    // The first sweep over the grown array is where the model charges,
    // and both charge the same (the simulator counts no seeks).
    for i in 0..10 * PER_PAGE {
        s.set(i, i as u64);
        f.set(i, i as u64);
    }
    let file = IoStats {
        seeks: 0,
        ..f.stats()
    };
    assert_eq!(file, sim.borrow().stats());
}

/// Pages 0..3 of a two-frame store; page 0 written, then the cache
/// cycles through pages 1 and 2 so page 0 is evicted.
fn evict_page_0(fp: &mut FilePages<CrashDev>) {
    fp.with_page(1, |_| ());
    fp.with_page(2, |_| ());
}

#[test]
fn a_synced_page_evicted_unwritten_is_written_back_once() {
    let mut fp = FilePages::create_on(CrashDev::new(), PAGE, CACHE).unwrap();
    for _ in 0..3 {
        fp.alloc_page();
    }
    fp.with_page_mut(0, |pg| pg[0] = 1);
    fp.sync().unwrap();
    evict_page_0(&mut fp);
    let s = fp.take_stats();
    assert_eq!((s.writebacks, s.evictions), (1, 1), "{s:?}");
    assert_eq!(fp.with_page(0, |pg| pg[0]), 1);

    // Written again after the sync: the change is written back too.
    let _ = fp.take_stats();
    fp.with_page_mut(0, |pg| pg[0] = 2);
    fp.sync().unwrap();
    fp.with_page_mut(0, |pg| pg[0] = 3);
    evict_page_0(&mut fp);
    assert_eq!(fp.take_stats().writebacks, 2);
    assert_eq!(fp.with_page(0, |pg| pg[0]), 3);
}

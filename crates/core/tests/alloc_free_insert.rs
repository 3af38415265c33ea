//! The memory contract of the g-COLA's amortized write path, observed
//! from outside through a counting global allocator: once every level
//! has been written, a carry allocates nothing and leaves nothing behind,
//! a write into the head allocates nothing at all,
//! and the largest carry's peak of live heap bytes stays within its
//! level's accelerators plus a fixed scratch bound. And of every COLA's read path: a
//! point lookup allocates nothing, stepping a cursor allocates nothing on
//! any backend, and opening one asks the allocator for what it asked
//! before cursors kept windows.
//!
//! One `#[test]` on purpose: the counters are process-wide, and the
//! harness runs the tests of a binary on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use cosbt_core::{Dictionary, GCola};
use cosbt_dam::{ArcFileMem, CrashDev, FileMem, PlainMem};

struct Counting;

/// Allocator calls that hand out memory (`alloc`, `realloc`, zeroed).
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Bytes those calls asked for.
static REQUESTED: AtomicU64 = AtomicU64::new(0);
/// The most bytes allocated at once since it was last set to `LIVE`.
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Adds `bytes` to `LIVE` and raises `PEAK` to the new total.
fn grow(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the counters are side effects that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_state_carries_allocate_nothing_and_big_ones_retain_nothing() {
    // SplitMix64 keys: fresh random inserts, no allocation of our own.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next_key = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    // Warm-up: every level of the measured window exists (a new level
    // grows the store), and every small level has been a carry target,
    // a lookahead-only level and empty at least once.
    let base = LIVE.load(Ordering::Relaxed);
    let mut cola = GCola::new_plain(4);
    for i in 0..1u64 << 16 {
        cola.insert(next_key(), i);
    }
    let levels = cola.num_levels();

    // After a carry this large the structure may hold its store (32 B a
    // slot), its accelerators (filter ≤ 2.5 B, ghost sample 1 B a slot)
    // and the fixed scratch (a 16 KiB chunk per level, the 16 KiB sweep
    // buffer and the lookahead keys) — no buffer the size of the carry.
    const BIG: u64 = 1 << 14;
    let (mut inserts, mut big) = (0u64, 0u64);
    for i in 0..3u64 << 14 {
        let key = next_key();
        let (calls, written) = (CALLS.load(Ordering::Relaxed), cola.stats().cells_written);
        cola.insert(key, i);
        let calls = CALLS.load(Ordering::Relaxed) - calls;
        let w = cola.stats().cells_written - written;
        assert_eq!(cola.num_levels(), levels, "window must not add a level");
        inserts += 1;
        assert_eq!(calls, 0, "insert {i} wrote {w} cells and allocated");
        if w >= BIG {
            big += 1;
            let slots = cola.mem().as_slice().len() as i64;
            let held = LIVE.load(Ordering::Relaxed) - base - 32 * slots;
            let allowed = 5 * slots + (128 << 10);
            assert!(
                held <= allowed,
                "insert {i} wrote {w} cells and left {held} B beside the store (allowed {allowed})"
            );
        }
    }
    assert_eq!(inserts, 3 << 14);
    assert!(big >= 3, "only {big} big carries observed");

    // The largest carry of a 2^18-insert stream merges 2^17 items into
    // the 2^17 of level 9 (393,216 items, 432,537 slots). Its peak of
    // live bytes above what the structure held before it is bounded by
    // the accelerators of that level — a filter of 2^22 bits for its
    // item capacity and a ghost key per 8 slots, which the level keeps
    // from its first carry on — plus 256 KiB. A carry that folded its
    // sources in a buffer of their size peaked 8 MiB above.
    let (mut largest, mut peak) = (0, 0);
    for i in 3u64 << 14..(1 << 18) - (1 << 16) {
        let key = next_key();
        let (live, written) = (LIVE.load(Ordering::Relaxed), cola.stats().cells_written);
        PEAK.store(live, Ordering::Relaxed);
        cola.insert(key, i);
        let w = cola.stats().cells_written - written;
        if w > largest {
            (largest, peak) = (w, PEAK.load(Ordering::Relaxed) - live);
        }
    }
    assert_eq!(cola.insertions(), 1 << 18);
    assert!(largest > 1 << 18, "largest carry wrote {largest} cells");
    let (cap, slots) = (393_216usize, 432_537usize);
    let aux = (cap * 10).next_power_of_two() / 8 + slots.div_ceil(8) * 8;
    let allowed = aux as i64 + (256 << 10);
    eprintln!("largest carry: {largest} cells, peak {peak} B above the store before it");
    assert!(
        peak <= allowed,
        "the largest carry ({largest} cells) peaked {peak} B above its start (allowed {allowed})"
    );

    // The head: a new key, an overwrite and a delete of a key it holds,
    // and a delete of one it does not, all in DRAM, allocate nothing —
    // with levels below it, where a delete leaves a tombstone, and over
    // a fresh structure, where it takes the key out.
    let mut head_writes = |name: &str, cola: &mut GCola<PlainMem<_>>| {
        for round in 0..100u64 {
            let key = next_key();
            let calls = CALLS.load(Ordering::Relaxed);
            cola.insert(key, round);
            cola.insert(key, round + 1);
            cola.delete(key);
            cola.delete(key ^ 1);
            let calls = CALLS.load(Ordering::Relaxed) - calls;
            assert_eq!(calls, 0, "{name}: round {round} of head writes allocated");
        }
    };
    head_writes("4-COLA over levels", &mut cola);
    head_writes("fresh 4-COLA", &mut GCola::new_plain(4));

    // Point lookups: 1,000 `get`s, hits and misses alternating, on each
    // of the three COLAs at 2^12 keys.
    let keys: Vec<u64> = (0..1u64 << 12).map(|_| next_key() | 1).collect();
    let gets_allocate_nothing = |name: &str, d: &mut dyn Dictionary| {
        for (i, &k) in keys.iter().enumerate() {
            d.insert(k, i as u64);
        }
        let calls = CALLS.load(Ordering::Relaxed);
        for (i, &k) in keys.iter().take(500).enumerate() {
            assert_eq!(d.get(k), Some(i as u64), "{name}: hit");
            assert_eq!(d.get(k & !1), None, "{name}: miss");
        }
        let calls = CALLS.load(Ordering::Relaxed) - calls;
        assert_eq!(calls, 0, "{name}: 1,000 gets made {calls} allocator calls");
    };
    gets_allocate_nothing("basic COLA", &mut GCola::basic(PlainMem::new()));
    gets_allocate_nothing("4-COLA", &mut GCola::new_plain(4));
    gets_allocate_nothing("deamortized COLA", &mut GCola::deamortized(PlainMem::new()));

    // Cursors: 1,000 scans of 64 on each of the three COLAs at 2^12 keys,
    // in memory and over a file store whose 8-page cache the first pass
    // fills (a fault into a free frame allocates the frame). Returns what
    // opening and dropping the cursors asked of the allocator.
    let scans = |name: &str, d: &mut dyn Dictionary| {
        for (i, &k) in keys.iter().enumerate() {
            d.insert(k, i as u64);
        }
        let mut opening = (0, 0);
        for pass in 0..2 {
            opening = (0, 0);
            for &lo in keys.iter().take(1000) {
                let before = (
                    CALLS.load(Ordering::Relaxed),
                    REQUESTED.load(Ordering::Relaxed),
                );
                let mut cur = d.cursor(lo, u64::MAX);
                let open = CALLS.load(Ordering::Relaxed);
                let mut n = 0;
                while n < 64 && cur.next().is_some() {
                    n += 1;
                }
                let stepped = CALLS.load(Ordering::Relaxed) - open;
                drop(cur);
                assert!(
                    pass == 0 || stepped == 0,
                    "{name}: {n} steps made {stepped} allocator calls"
                );
                opening.0 += CALLS.load(Ordering::Relaxed) - before.0 - stepped;
                opening.1 += REQUESTED.load(Ordering::Relaxed) - before.1;
            }
        }
        opening
    };
    let file = || {
        let fm = FileMem::create_on(CrashDev::new(), 4096, 8, 32).expect("store on a RAM device");
        ArcFileMem::new(fm)
    };
    // Allocator calls and bytes requested by 1,000 opens over `PlainMem`
    // at the commit before cursors kept windows: the runs, the two
    // per-run arrays and the boxed cursor. The windows live in the
    // structure's scratch and cost an open nothing but the pointer to
    // it in the box.
    let parent = [(4000u64, 264_000u64), (5000, 456_000), (6000, 1_262_544)];
    let opened = [
        scans("basic COLA", &mut GCola::basic(PlainMem::new())),
        scans("4-COLA", &mut GCola::new_plain(4)),
        scans("deamortized COLA", &mut GCola::deamortized(PlainMem::new())),
    ];
    for (now, was) in opened.iter().zip(parent) {
        assert!(
            now.0 <= was.0 && now.1 <= was.1 + 8 * 1000,
            "1,000 opens made (calls, bytes) {now:?}, {was:?} before windows"
        );
    }
    // The 4-COLA again, five keys past a multiple of 2g: its head holds
    // the last five written and rides in the merge of every scan that
    // starts below its largest key, within the same bound.
    let mut headed = GCola::new_plain(4);
    for k in 0..5 {
        headed.insert(k, k);
    }
    let (now, was) = (scans("4-COLA with a head", &mut headed), parent[1]);
    assert!(
        now.0 <= was.0 && now.1 <= was.1 + 8 * 1000,
        "1,000 opens with a head made (calls, bytes) {now:?}, {was:?} before windows"
    );
    scans("basic COLA on a file", &mut GCola::basic(file()));
    scans("4-COLA on a file", &mut GCola::new(file(), 4, 0.1));
    scans(
        "deamortized COLA on a file",
        &mut GCola::deamortized(file()),
    );
}

//! Differential tests for the accounting rule of [`Mem::read_run`] /
//! [`Mem::write_run`]: a backend's run override must be indistinguishable
//! from the per-cell loop it replaces — same contents, same [`IoStats`]
//! in all six fields after every step, and for the file store the same
//! bytes on the device. And for the rule of [`Mem::peek_run`]: a peek is
//! invisible to the store.

use cosbt_dam::{
    new_shared_sim, ArcFileMem, CacheConfig, CrashDev, FileMem, IoStats, Mem, PlainMem, SimMem,
};
use cosbt_testkit::{check_cases, Rng};

/// Forwards only the four required methods, so run calls take the
/// trait's per-cell default: the reference every override is held to.
struct PerCell<M>(M);

impl<M: Mem<u64>> Mem<u64> for PerCell<M> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn get(&self, i: usize) -> u64 {
        self.0.get(i)
    }
    fn set(&mut self, i: usize, v: u64) {
        self.0.set(i, v)
    }
    fn resize(&mut self, new_len: usize, fill: u64) {
        self.0.resize(new_len, fill)
    }
}

#[derive(Debug)]
enum Step {
    ReadRun(usize, usize),
    WriteRun(usize, Vec<u64>),
    Get(usize),
    Set(usize, u64),
    /// Only the run side peeks: the per-cell wrapper inherits the
    /// default, which peeks nothing.
    PeekRun(usize, usize),
    Resize(usize, u64),
    /// Store-level steps; the in-memory backends skip them.
    Commit,
    DropCache,
}

/// Cells per page in every store below (128-byte pages, 16-byte stride).
const PER_PAGE: usize = 8;

/// A span of `0..len`: whole pages, empty, one cell, the partial last
/// page, or anything (straddling page boundaries more often than not).
fn span(rng: &mut Rng, len: usize) -> (usize, usize) {
    match rng.below(6) {
        0 => {
            let start = rng.index(len / PER_PAGE + 1) * PER_PAGE;
            (start, ((1 + rng.index(3)) * PER_PAGE).min(len - start))
        }
        1 => (rng.index(len + 1), 0),
        2 => (rng.index(len), 1),
        3 => {
            let start = (len - 1) / PER_PAGE * PER_PAGE;
            (start, len - start)
        }
        _ => {
            let start = rng.index(len);
            (start, rng.index((len - start).min(4 * PER_PAGE) + 1))
        }
    }
}

fn step(rng: &mut Rng, len: usize) -> Step {
    if len == 0 {
        return Step::Resize(1 + rng.index(5 * PER_PAGE), rng.next_u64());
    }
    match rng.below(18) {
        0..=4 => {
            let (start, n) = span(rng, len);
            Step::ReadRun(start, n)
        }
        16 | 17 => {
            let (start, n) = span(rng, len);
            Step::PeekRun(start, n)
        }
        5..=9 => {
            let (start, n) = span(rng, len);
            Step::WriteRun(start, rng.vec_u64(n))
        }
        10 | 11 => Step::Get(rng.index(len)),
        12 => Step::Set(rng.index(len), rng.next_u64()),
        // Shrinks, growth inside the last page, growth by pages.
        13 => Step::Resize(rng.index(len + 3 * PER_PAGE), rng.next_u64()),
        14 => Step::Commit,
        _ => Step::DropCache,
    }
}

/// Applies a `Mem`-level step and returns what it read.
fn apply<M: Mem<u64>>(m: &mut M, step: &Step) -> Vec<u64> {
    match step {
        Step::ReadRun(start, n) => {
            let mut out = vec![0; *n];
            m.read_run(*start, &mut out);
            out
        }
        Step::WriteRun(start, src) => {
            m.write_run(*start, src);
            Vec::new()
        }
        Step::Get(i) => vec![m.get(*i)],
        Step::Set(i, v) => {
            m.set(*i, *v);
            Vec::new()
        }
        Step::Resize(n, fill) => {
            m.resize(*n, *fill);
            Vec::new()
        }
        Step::PeekRun(start, n) => {
            let mut out = vec![0; *n];
            let got = m.peek_run(*start, &mut out);
            let page_end = (*start / PER_PAGE + 1) * PER_PAGE;
            assert!(got <= *n && start + got <= page_end.min(m.len()));
            out.truncate(got);
            out
        }
        Step::Commit | Step::DropCache => Vec::new(),
    }
}

fn contents<M: Mem<u64>>(m: &M) -> Vec<u64> {
    (0..m.len()).map(|i| m.get(i)).collect()
}

type Store = ArcFileMem<u64, CrashDev>;

fn file_store(cache_pages: usize) -> (Store, CrashDev) {
    let dev = CrashDev::new();
    let fm = FileMem::create_on(dev.clone(), PER_PAGE * 16, cache_pages, 16).unwrap();
    (ArcFileMem::new(fm), dev)
}

#[test]
fn file_store_run_calls_charge_what_per_cell_calls_charge() {
    check_cases("file_store_run_accounting", 48, |rng: &mut Rng| {
        let cache_pages = 1 + rng.index(4);
        let (mut run, run_dev) = file_store(cache_pages);
        let (cell_handle, cell_dev) = file_store(cache_pages);
        let mut cell = PerCell(cell_handle.clone());
        for i in 0..400 {
            let s = step(rng, run.len());
            if let Step::PeekRun(start, _) = s {
                // Whatever it returns is what a read would, and the
                // store cannot tell: the counters stand, and a moved
                // replacement position would show in a later step.
                let (before, peeked) = (run.stats(), apply(&mut run, &s));
                assert_eq!(run.stats(), before, "step {i} {s:?}");
                let want = apply(&mut cell, &Step::ReadRun(start, peeked.len()));
                assert_eq!(peeked, want, "step {i} {s:?}");
                apply(&mut run, &Step::ReadRun(start, peeked.len()));
                assert_eq!(run.stats(), cell_handle.stats(), "step {i} {s:?}");
                continue;
            }
            assert_eq!(apply(&mut run, &s), apply(&mut cell, &s), "step {i} {s:?}");
            match s {
                Step::Commit => {
                    run.commit_meta(b"m").unwrap();
                    cell_handle.commit_meta(b"m").unwrap();
                }
                Step::DropCache => {
                    run.drop_cache().unwrap();
                    cell_handle.drop_cache().unwrap();
                }
                _ => {}
            }
            assert_eq!(run.stats(), cell_handle.stats(), "step {i} {s:?}");
        }
        assert_eq!(contents(&run), contents(&cell));
        run.commit_meta(b"end").unwrap();
        cell_handle.commit_meta(b"end").unwrap();
        assert_eq!(run.stats(), cell_handle.stats());
        assert!(
            run_dev.snapshot() == cell_dev.snapshot(),
            "device images differ"
        );
    });
}

/// The rule in numbers: `k` cells on one page are `k` accesses and `k`
/// hits, or `k − 1` hits after the fault; a run over `p` pages faults
/// each page at most once.
#[test]
fn a_run_is_charged_per_cell_and_looked_up_per_page() {
    let (mut m, _dev) = file_store(2);
    m.resize(5 * PER_PAGE, 0);
    m.drop_cache().unwrap();
    m.reset_stats();
    let mut out = [0u64; 3 * PER_PAGE];
    // Cells 4..28: half of page 0, pages 1 and 2, half of page 3.
    m.read_run(4, &mut out);
    let cold = m.stats();
    assert_eq!(
        (cold.accesses, cold.hits, cold.fetches),
        (24, 20, 4),
        "{cold:?}"
    );
    // Pages 2 and 3 are the two resident ones now.
    m.reset_stats();
    m.write_run(2 * PER_PAGE, &out[..PER_PAGE + 1]);
    let warm = m.stats();
    assert_eq!(
        warm,
        IoStats {
            accesses: 9,
            hits: 9,
            ..IoStats::default()
        }
    );
}

/// The peek rule in numbers: a resident page's cells from `start` to the
/// page end, the array end or the buffer end, nothing of a page that is
/// not resident, and neither a counter nor the eviction order moved.
#[test]
fn a_peek_copies_a_resident_page_and_leaves_no_trace() {
    let (mut m, _dev) = file_store(2);
    m.resize(3 * PER_PAGE + 3, 0);
    for i in 0..m.len() {
        m.set(i, 100 + i as u64);
    }
    m.drop_cache().unwrap();
    let mut out = [0u64; 2 * PER_PAGE];
    assert_eq!(m.peek_run(3, &mut out), 0, "nothing is resident");
    // Page 0, then page 1: page 0 is the next victim.
    m.get(3);
    m.get(PER_PAGE);
    m.reset_stats();
    assert_eq!(m.peek_run(3, &mut out), PER_PAGE - 3, "to the page end");
    assert_eq!(out[..PER_PAGE - 3], [103, 104, 105, 106, 107]);
    assert_eq!(m.peek_run(3, &mut out[..2]), 2, "to the buffer end");
    assert_eq!(m.peek_run(2 * PER_PAGE, &mut out), 0, "page 2 is on disk");
    assert_eq!(m.peek_run(m.len(), &mut out), 0, "past the end");
    for _ in 0..5 {
        assert_eq!(m.peek_run(0, &mut out), PER_PAGE);
    }
    assert_eq!(m.stats(), IoStats::default(), "a peek is not an access");
    // Five peeks did not make page 0 recent: faulting page 3 in evicts
    // it, not page 1, and there the array's end cuts the peek short.
    m.get(3 * PER_PAGE);
    assert_eq!(
        m.peek_run(3 * PER_PAGE + 1, &mut out),
        2,
        "to the array end"
    );
    assert_eq!(
        out[..2],
        [100 + 3 * PER_PAGE as u64 + 1, 100 + 3 * PER_PAGE as u64 + 2]
    );
    assert_eq!(m.peek_run(0, &mut out), 0, "page 0 was the victim");
    assert_eq!(m.peek_run(PER_PAGE, &mut out), PER_PAGE, "page 1 stayed");
    // The in-memory backends peek nothing, and say so: their reads are
    // cheap.
    assert!(m.peeks());
    let plain = PlainMem::with_len(4, 7u64);
    assert!(!plain.peeks() && plain.peek_run(0, &mut out) == 0);
    let mut sim = SimMem::new(new_shared_sim(CacheConfig::new(64, 3)));
    sim.resize(4, 7u64);
    assert!(!sim.peeks() && sim.peek_run(0, &mut out) == 0);
}

#[test]
fn plain_and_sim_run_calls_match_the_per_cell_loop() {
    check_cases("mem_run_contents", 32, |rng: &mut Rng| {
        let mut plain = PlainMem::new();
        let mut plain_cell = PerCell(PlainMem::new());
        // 64-byte blocks under 24-byte cells: cells straddle blocks.
        let sims = [(); 2].map(|_| new_shared_sim(CacheConfig::new(64, 3)));
        let mut sim = SimMem::with_elem_bytes(sims[0].clone(), 24);
        let mut sim_cell = PerCell(SimMem::with_elem_bytes(sims[1].clone(), 24));
        for i in 0..300 {
            let s = step(rng, plain.len());
            let want = apply(&mut plain_cell, &s);
            assert_eq!(apply(&mut plain, &s), want, "plain, step {i} {s:?}");
            assert_eq!(apply(&mut sim, &s), want, "sim, step {i} {s:?}");
            assert_eq!(apply(&mut sim_cell, &s), want, "sim, step {i} {s:?}");
            assert_eq!(
                sims[0].borrow().stats(),
                sims[1].borrow().stats(),
                "step {i} {s:?}"
            );
        }
        assert_eq!(contents(&plain), contents(&plain_cell));
        assert_eq!(contents(&sim), contents(&plain_cell));
    });
}

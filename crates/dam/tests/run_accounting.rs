//! Differential tests for the accounting rule of [`Mem::read_run`] /
//! [`Mem::write_run`]: a backend's run override must be indistinguishable
//! from the per-cell loop it replaces — same contents, same [`IoStats`]
//! in all six fields after every step, and for the file store the same
//! bytes on the device.

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
    match rng.below(16) {
        0..=4 => {
            let (start, n) = span(rng, len);
            Step::ReadRun(start, n)
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

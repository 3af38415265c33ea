//! The COLAs' run-level `Mem` calls change time, not counts: the same
//! seeded stream over a file store driven through the run overrides and
//! through a wrapper that forwards only `get`/`set` (so every sweep takes
//! the trait's per-cell default) must report the same [`IoStats`] in all
//! six fields, phase by phase, the same answers, and leave byte-identical
//! device images. So must a cursor's peeked windows: the wrapper inherits
//! the `peek_run` that peeks nothing, so its cursors step per cell.

use cosbt_core::entry::Cell;
use cosbt_core::{Dictionary, GCola, Persist};
use cosbt_dam::{ArcFileMem, CrashDev, FileMem, IoStats, Mem};
use cosbt_testkit::Rng;

type Store = ArcFileMem<Cell, CrashDev>;

/// Forwards only the four required methods.
struct PerCell(Store);

impl Mem<Cell> for PerCell {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn get(&self, i: usize) -> Cell {
        self.0.get(i)
    }
    fn set(&mut self, i: usize, v: Cell) {
        self.0.set(i, v)
    }
    fn resize(&mut self, new_len: usize, fill: Cell) {
        self.0.resize(new_len, fill)
    }
}

/// 16 cells per page, 6 resident pages: merges of a few thousand cells
/// evict constantly and chunks of 512 cells span 32 pages. With 2
/// resident pages a k-way scan evicts a window's own page between the
/// peek that filled it and the `read_run` that pays for it.
const PAGE: usize = 512;
const CACHE_PAGES: [usize; 2] = [6, 2];

fn store(cache_pages: usize) -> (Store, CrashDev) {
    let dev = CrashDev::new();
    let fm = FileMem::create_on(dev.clone(), PAGE, cache_pages, 32).unwrap();
    (ArcFileMem::new(fm), dev)
}

/// Ingest (single inserts, deletes, sorted batches), a commit, then cold
/// gets and a scan, then the cursor battery: bounded scans dropped
/// mid-window, re-seeks with charges still owed, and `next`/`prev`
/// flips. Returns the stats of each phase and the answers.
fn drive<D: Dictionary + Persist>(d: &mut D, store: &Store) -> (Vec<IoStats>, Vec<u64>) {
    let mut rng = Rng::new(0x5EED_CE11);
    let mut phases = Vec::new();
    let mut keys = Vec::new();
    for round in 0..6 {
        for _ in 0..700 {
            let k = rng.next_u64() >> 16;
            if rng.chance(1, 10) && !keys.is_empty() {
                d.delete(keys[rng.index(keys.len())]);
            } else {
                d.insert(k, k ^ round);
                keys.push(k);
            }
        }
        let mut batch: Vec<(u64, u64)> = (0..300).map(|_| (rng.next_u64() >> 16, round)).collect();
        batch.sort_unstable();
        batch.dedup_by_key(|e| e.0);
        d.insert_batch(&batch);
        phases.push(store.take_stats());
    }
    store.commit_meta(&d.save_meta()).unwrap();
    store.drop_cache().unwrap();
    phases.push(store.take_stats());
    let mut answers = Vec::new();
    for i in 0..400 {
        let k = if i % 2 == 0 {
            keys[rng.index(keys.len())]
        } else {
            rng.next_u64() >> 16
        };
        answers.push(d.get(k).unwrap_or(u64::MAX));
    }
    phases.push(store.take_stats());
    answers.extend(d.range(0, u64::MAX >> 20).into_iter().map(|(k, _)| k));
    phases.push(store.take_stats());

    keys.sort_unstable();
    let start = |rng: &mut Rng| keys[rng.index(keys.len())];
    let mut note = |e: Option<(u64, u64)>| answers.push(e.map_or(u64::MAX, |(k, v)| k ^ v));
    // Scans of 1 to 60 entries, over a few windows at most, dropped where
    // they stop.
    for _ in 0..60 {
        let mut cur = d.cursor(start(&mut rng), u64::MAX);
        for _ in 0..1 + rng.index(60) {
            note(cur.next());
        }
    }
    phases.push(store.take_stats());
    // One cursor, re-seeked while it owes for the cells it last loaded.
    let mut cur = d.cursor(0, u64::MAX);
    for _ in 0..60 {
        cur.seek(start(&mut rng));
        for _ in 0..rng.index(40) {
            note(cur.next());
        }
    }
    drop(cur);
    phases.push(store.take_stats());
    // Flips: forward loads go through windows, backward ones never do.
    let mut cur = d.cursor(keys[keys.len() / 4], keys[3 * keys.len() / 4]);
    for _ in 0..150 {
        for _ in 0..rng.index(25) {
            note(cur.next());
        }
        for _ in 0..rng.index(20) {
            note(cur.prev());
        }
    }
    drop(cur);
    phases.push(store.take_stats());
    (phases, answers)
}

/// Runs `build`'s structure on the run path and on the per-cell path,
/// then reopens both (`from_parts`: the rebuild scans) the same two ways.
fn check(
    name: &str,
    cache_pages: usize,
    build_run: impl Fn(Store) -> GCola<Store>,
    build_cell: impl Fn(PerCell) -> GCola<PerCell>,
) {
    let name = &format!("{name}, {cache_pages} resident pages");
    let (run_store, run_dev) = store(cache_pages);
    let (cell_store, cell_dev) = store(cache_pages);
    let mut run = build_run(run_store.clone());
    let mut cell = build_cell(PerCell(cell_store.clone()));
    let (run_phases, run_answers) = drive(&mut run, &run_store);
    let (cell_phases, cell_answers) = drive(&mut cell, &cell_store);
    assert_eq!(run_phases, cell_phases, "{name}: IoStats per phase");
    assert_eq!(run_answers, cell_answers, "{name}: answers");
    assert!(
        run_phases.iter().all(|p| p.transfers() > 0),
        "{name}: every phase did device I/O"
    );

    let meta = run.save_meta();
    assert_eq!(meta, cell.save_meta(), "{name}: metadata");
    run_store.commit_meta(&meta).unwrap();
    cell_store.commit_meta(&meta).unwrap();
    assert!(
        run_dev.snapshot() == cell_dev.snapshot(),
        "{name}: device images differ"
    );
    drop((run, cell));
    for s in [&run_store, &cell_store] {
        s.drop_cache().unwrap();
        s.reset_stats();
    }
    let mut run = GCola::from_parts(run_store.clone(), &meta).unwrap();
    let mut cell = GCola::from_parts(PerCell(cell_store.clone()), &meta).unwrap();
    assert_eq!(run_store.stats(), cell_store.stats(), "{name}: reopen scan");
    assert!(
        run_store.stats().fetches > 0,
        "{name}: reopen read the runs"
    );
    assert_eq!(run.get(1), cell.get(1));
}

/// `check` with each constructor written once (the two paths need two
/// instantiations of it, so it cannot be passed as one value).
macro_rules! check_both {
    ($name:expr, $new:expr) => {
        for cache_pages in CACHE_PAGES {
            check($name, cache_pages, $new, $new)
        }
    };
}

#[test]
fn gcola_ingest_reports_the_same_iostats_on_both_paths() {
    check_both!("4-COLA", |m| GCola::new(m, 4, 0.1));
}

#[test]
fn other_variants_report_the_same_iostats_on_both_paths() {
    check_both!("basic COLA", GCola::basic);
    check_both!("deamortized COLA", GCola::deamortized);
}

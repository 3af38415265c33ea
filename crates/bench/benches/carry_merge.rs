//! The amortized COLA write path in isolation, over plain memory — no
//! cache, device or facade — in ns per insert and ns per cell a carry
//! writes (`ColaStats::cells_written`), best of 3, beside the carries per
//! 1,000 inserts (`ColaStats::merges`) and the cells written per insert,
//! which say how much of the time is the carries' and how much the
//! head's:
//!
//! - `random_insert`: `GCola::new_plain(4)`, 2^19 fresh random inserts.
//!   The head, levels 0 to 3's items in DRAM, takes 2g^3 − 1 = 127 of
//!   every 128 inserts, merging its front into its back every eighth, so
//!   one insert in 128 is a carry: the merge kernel plus the level
//!   rewrites, and nothing else.
//! - `zipf_insert`: the store `scan_merge` builds — 2^17 keys in 16
//!   sorted batches — then its 2^17 seeded zipf-0.99 writes (one in nine
//!   a delete), the only part timed. Most writes overwrite hot keys,
//!   which the head absorbs in DRAM.
//!
//! And `aux_build`: ns per cell to build a `LevelAux` (fences, ghost
//! sample, filter) over a sorted 2^16-cell run, best of 9.
//!
//! Compare two commits by running the same file against each (it uses
//! public API only): `cargo bench --bench carry_merge`.

use std::time::Instant;

use cosbt::testkit::{Rng, Zipf};
use cosbt_bench::random_keys;
use cosbt_core::cascade::build_aux;
use cosbt_core::{Cell, Dictionary, GCola};

/// SplitMix64's finalizer: the key of universe index `i`.
fn key(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Best of 3 of `run`, which builds a store untimed, then times its
/// writes and returns their ns, the cells they wrote and the carries
/// they ran.
fn best_of_3(mut run: impl FnMut() -> (u128, u64, u64)) -> (f64, u64, u64) {
    let (mut best, mut cells, mut carries) = (f64::INFINITY, 0, 0);
    for _ in 0..3 {
        let (ns, written, merges) = run();
        best = best.min(ns as f64);
        (cells, carries) = (written, merges);
    }
    (best, cells, carries)
}

fn row(name: &str, writes: u64, (ns, cells, carries): (f64, u64, u64)) {
    println!(
        "{name:<14} {:>8.1} ns/insert  {:>6.2} ns/cell written  {:>7.2} carries/1k inserts  {:>6.2} cells written/insert ({cells} cells)",
        ns / writes as f64,
        ns / cells as f64,
        1000.0 * carries as f64 / writes as f64,
        cells as f64 / writes as f64,
    );
}

fn main() {
    let n = 1u64 << 19;
    let keys = random_keys(n, 0xCA44);
    println!("== carry_merge (GCola::new_plain(4), best of 3) ==");
    let random = best_of_3(|| {
        let mut d = GCola::new_plain(4);
        let t = Instant::now();
        for (i, &k) in keys.iter().enumerate() {
            d.insert(k, i as u64);
        }
        let ns = t.elapsed().as_nanos();
        let stats = std::hint::black_box(&d).stats();
        assert_eq!(stats.inserts, n);
        (ns, stats.cells_written, stats.merges)
    });
    row("random_insert", n, random);

    let (prefill, batches, writes) = (1u64 << 17, 16, 1u64 << 17);
    let universe = 2 * prefill;
    let zipf = Zipf::new(universe, 0.99);
    let zipfian = best_of_3(|| {
        let mut rng = Rng::new(42);
        let mut d = GCola::new_plain(4);
        let per = prefill / batches;
        for b in 0..batches {
            let mut batch: Vec<(u64, u64)> =
                (b * per..(b + 1) * per).map(|i| (key(i), i)).collect();
            batch.sort_unstable();
            d.insert_batch(&batch);
        }
        let stream: Vec<(u64, bool)> = (0..writes)
            .map(|_| {
                (
                    key(key(zipf.sample(&mut rng)) % universe),
                    rng.below(9) == 0,
                )
            })
            .collect();
        let before = d.stats();
        let t = Instant::now();
        for (i, &(k, delete)) in stream.iter().enumerate() {
            match delete {
                true => d.delete(k),
                false => d.insert(k, i as u64),
            }
        }
        let ns = t.elapsed().as_nanos();
        let after = std::hint::black_box(&d).stats();
        let merges = after.merges - before.merges;
        (ns, after.cells_written - before.cells_written, merges)
    });
    row("zipf_insert", writes, zipfian);

    let run: Vec<Cell> = (0..1u64 << 16).map(|i| Cell::item(i * 3, i)).collect();
    let mut best = f64::INFINITY;
    for _ in 0..9 {
        let t = Instant::now();
        std::hint::black_box(build_aux(std::hint::black_box(&run)));
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    println!(
        "aux_build      {:>8.2} ns/cell ({} cells)",
        best / run.len() as f64,
        run.len()
    );
}

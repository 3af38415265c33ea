//! The amortized COLA write path in isolation: `GCola::new_plain(4)`,
//! 2^19 fresh random inserts over plain memory, best of 3, in ns per
//! insert and ns per cell a carry writes (`ColaStats::cells_written`).
//! The head, levels 0 and 1's items in DRAM, takes 2g − 1 of every 2g
//! inserts, so at g = 4 one insert in eight is a carry: the merge kernel
//! plus the level rewrites, and nothing else — no cache, device or
//! facade. Compare two commits by running the same file against each
//! (it uses public API only): `cargo bench --bench carry_merge`.

use std::time::Instant;

use cosbt_bench::random_keys;
use cosbt_core::{Dictionary, GCola};

fn main() {
    let n = 1u64 << 19;
    let keys = random_keys(n, 0xCA44);
    println!("== carry_merge (GCola::new_plain(4), N = {n}, best of 3) ==");
    let (mut best, mut cells) = (f64::INFINITY, 0);
    for _ in 0..3 {
        let mut d = GCola::new_plain(4);
        let t = Instant::now();
        for (i, &k) in keys.iter().enumerate() {
            d.insert(k, i as u64);
        }
        best = best.min(t.elapsed().as_nanos() as f64);
        let stats = std::hint::black_box(&d).stats();
        assert_eq!(stats.inserts, n);
        cells = stats.cells_written;
    }
    let per_cell = best / cells as f64;
    println!(
        "random_insert  {:>8.1} ns/insert  {per_cell:>6.2} ns/cell written ({cells} cells)",
        best / n as f64
    );
}

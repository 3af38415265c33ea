//! The amortized COLA write path in isolation: `GCola::new_plain(4)`,
//! 2^19 fresh random inserts over plain memory, best of 3, ns/insert.
//! Every second insert is a carry, so this is the merge kernel plus the
//! level rewrites and nothing else — no cache, device or facade. Compare
//! two commits by running the same file against each (it uses public API
//! only): `cargo bench --bench carry_merge`.

use std::time::Instant;

use cosbt_bench::random_keys;
use cosbt_core::{Dictionary, GCola};

fn main() {
    let n = 1u64 << 19;
    let keys = random_keys(n, 0xCA44);
    println!("== carry_merge (GCola::new_plain(4), N = {n}, best of 3) ==");
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut d = GCola::new_plain(4);
        let t = Instant::now();
        for (i, &k) in keys.iter().enumerate() {
            d.insert(k, i as u64);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / n as f64);
        assert_eq!(std::hint::black_box(&d).stats().inserts, n);
    }
    println!("random_insert  {best:>8.1} ns/insert");
}

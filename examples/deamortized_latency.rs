//! Deamortization in action (Theorem 22): the amortized COLA has inserts
//! that occasionally rewrite the entire structure; the deamortized COLA
//! bounds every insert by O(log N) moved cells.
//!
//! ```text
//! cargo run --release --example deamortized_latency [N]
//! ```
//!
//! Prints a per-insert cell-movement histogram for the amortized basic
//! COLA (`GCola::basic`, the g-COLA at g = 2 without lookahead pointers)
//! vs the deamortized COLA (`GCola::deamortized`, the same levels with
//! their merges run on a per-insert budget) — the "tail latency" picture
//! a production system cares about.

use cosbt::cola::{Cell, Dictionary, GCola};
use cosbt::dam::PlainMem;

/// Inserts `keys` into `cola`, returning the cells each insert moved.
fn moved(cola: &mut GCola<PlainMem<Cell>>, keys: &[u64]) -> Vec<u64> {
    let mut prev = 0;
    let mut moved = |(i, &k): (usize, &u64)| {
        cola.insert(k, i as u64);
        let now = cola.stats().cells_written;
        now - std::mem::replace(&mut prev, now)
    };
    keys.iter().enumerate().map(&mut moved).collect()
}

fn histogram(name: &str, deltas: &mut [u64]) {
    deltas.sort_unstable();
    let n = deltas.len();
    let pct = |p: f64| deltas[((n as f64 - 1.0) * p) as usize];
    let avg = deltas.iter().sum::<u64>() as f64 / n as f64;
    println!(
        "{:>26}  avg {:>8.2}   p50 {:>6}   p99 {:>6}   p99.9 {:>8}   max {:>10}",
        name,
        avg,
        pct(0.50),
        pct(0.99),
        pct(0.999),
        deltas[n - 1],
    );
}

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 17);
    let keys: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
    println!(
        "per-insert moved cells over N = {n} random inserts (log N = {:.0}):\n",
        (n as f64).log2()
    );

    let mut amort = GCola::basic(PlainMem::new());
    histogram("amortized basic COLA", &mut moved(&mut amort, &keys));
    let mut dc = GCola::deamortized(PlainMem::new());
    histogram("deamortized COLA", &mut moved(&mut dc, &keys));
    println!(
        "{:>26}  (mover budget m = 2k+2 = {} plus the head's 4 cells, worst observed {})",
        "",
        2 * dc.num_levels() + 2,
        dc.stats().max_cells_per_insert
    );

    println!(
        "\nreading it: both do O(log N) amortized work, but the amortized\n\
         COLA's max is Θ(N) — a full-structure merge on one unlucky\n\
         insert — while the deamortized max stays at O(log N)."
    );

    // Sanity: both agree on content.
    for probe in keys.iter().step_by(997) {
        assert_eq!(amort.get(*probe), dc.get(*probe));
    }
    println!("content agreement: ok");
}

//! **E9** — deamortization (Theorem 22): the amortized COLA's worst-case
//! insert touches Θ(N) cells (a full-structure merge), while the
//! deamortized COLA bounds every insert by O(log N) moves with the same
//! amortized totals.
//!
//! Prints, for each structure: total cells written per insert (amortized
//! cost), the worst single insert, and a tail profile of per-insert cell
//! movement.

use cosbt_bench::measure::results_dir;
use cosbt_bench::{random_keys, scaled};
use cosbt_core::{Dictionary, GCola};
use cosbt_dam::PlainMem;
use std::io::Write as _;

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p) as usize;
    sorted[idx]
}

fn profile(
    name: &str,
    mut writes_of: impl FnMut(u64) -> u64,
    keys: &[u64],
) -> (f64, u64, u64, u64) {
    let mut deltas = Vec::with_capacity(keys.len());
    let mut prev = 0u64;
    for (i, &_k) in keys.iter().enumerate() {
        let now = writes_of(i as u64);
        deltas.push(now - prev);
        prev = now;
    }
    deltas.sort_unstable();
    let total: u64 = deltas.iter().sum();
    let avg = total as f64 / keys.len() as f64;
    let p99 = percentile(&deltas, 0.99);
    let p999 = percentile(&deltas, 0.999);
    let max = *deltas.last().unwrap();
    println!(
        "{:>26} {:>12.2} {:>10} {:>10} {:>12}",
        name, avg, p99, p999, max
    );
    (avg, p99, p999, max)
}

fn main() {
    let n = scaled(1 << 16, 1 << 20);
    let keys = random_keys(n, 0xE9);
    let lg = (n as f64).log2();
    let csv_path = results_dir().join("deamort_worst_case.csv");
    std::fs::create_dir_all(results_dir()).ok();
    let mut csv = std::fs::File::create(&csv_path).unwrap();
    writeln!(csv, "structure,avg_writes,p99,p999,max,log_n").unwrap();

    println!("== E9: per-insert cell movement, N = {n} (log N = {lg:.0}) ==");
    println!(
        "{:>26} {:>12} {:>10} {:>10} {:>12}",
        "structure", "avg", "p99", "p99.9", "worst"
    );

    let mut r = (0.0, 0, 0, 0);
    for (name, row, mut cola) in [
        (
            "amortized basic COLA",
            "basic",
            GCola::basic(PlainMem::new()),
        ),
        (
            "deamortized COLA",
            "deamort",
            GCola::deamortized(PlainMem::new()),
        ),
    ] {
        let mut writes_of = |i: u64| {
            cola.insert(keys[i as usize], i);
            cola.stats().cells_written
        };
        r = profile(name, &mut writes_of, &keys);
        writeln!(csv, "{row},{},{},{},{},{lg:.1}", r.0, r.1, r.2, r.3).unwrap();
    }

    println!(
        "\nshape check: the amortized COLA's worst insert moves ~N cells;\n\
         the deamortized COLA stays within m = 2k + 2 = O(log N) ≈ {:.0}\n\
         moves plus the head's 4 cells (measured worst: {}).",
        2.0 * lg + 2.0,
        r.3
    );
    println!("csv: {}", csv_path.display());
}

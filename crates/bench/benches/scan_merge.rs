//! The COLA scan path in isolation: `GCola::new_plain(4)` loaded the way
//! the repository benchmark's `mixed_mem` loads it — 2^17 keys in 16
//! sorted batches — then a seeded zipf-0.99 stream of 2^17 inserts and
//! deletes, so a scan merges about six runs (the head and the occupied
//! levels). Then 2^15 cursors opened at zipf keys, best of 5, in ns:
//! opening a cursor and reading its first entry, each further entry of a
//! 64-entry scan, and each entry of one scan over everything. Plain
//! memory: no cache, device or facade, only the merge. Compare two
//! commits by running the same file against each (it uses public API
//! only): `cargo bench --bench scan_merge`.

use std::time::Instant;

use cosbt::testkit::{Rng, Zipf};
use cosbt_core::{Dictionary, GCola};

/// SplitMix64's finalizer: the key of universe index `i`.
fn key(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Best of 5 of `f`, in ns per `per` units.
fn best(per: u64, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as f64 / per as f64);
    }
    best
}

fn main() {
    let (prefill, batches, writes, scans, len) = (1u64 << 17, 16, 1u64 << 17, 1u64 << 15, 64);
    let universe = 2 * prefill;
    let zipf = Zipf::new(universe, 0.99);
    let mut rng = Rng::new(42);
    // Zipf ranks scattered over the universe, so the hot keys are spread.
    let pick = |rng: &mut Rng| key(key(zipf.sample(rng)) % universe);

    let mut d = GCola::new_plain(4);
    let per = prefill / batches;
    for b in 0..batches {
        let mut batch: Vec<(u64, u64)> = (b * per..(b + 1) * per).map(|i| (key(i), i)).collect();
        batch.sort_unstable();
        d.insert_batch(&batch);
    }
    for i in 0..writes {
        let k = pick(&mut rng);
        match rng.below(9) {
            0 => d.delete(k),
            _ => d.insert(k, i),
        }
    }
    let starts: Vec<u64> = (0..scans).map(|_| pick(&mut rng)).collect();
    println!(
        "== scan_merge (GCola::new_plain(4), {prefill} loaded + {writes} zipf writes, {} levels, best of 5) ==",
        d.num_levels()
    );

    // Every open reads `n` entries; the first-entry pass is subtracted
    // from the 64-entry pass to leave the further entries.
    let mut read = |n: usize| {
        let mut got = 0u64;
        for &lo in &starts {
            let mut cur = d.cursor(lo, u64::MAX);
            for _ in 0..n {
                match cur.next() {
                    Some((k, _)) => got = got.wrapping_add(k | 1),
                    None => break,
                }
            }
        }
        got
    };
    let first = best(scans, || read(1));
    let scan = best(scans, || read(len));
    let further = (scan - first) / (len - 1) as f64;
    let entries = d.cursor(0, u64::MAX).collect().len() as u64;
    let full = best(entries, || {
        let mut cur = d.cursor(0, u64::MAX);
        std::iter::from_fn(|| cur.next()).count() as u64
    });
    println!("open_first_entry {first:>8.1} ns/scan");
    println!("further_entry    {further:>8.1} ns/entry (of {len} a scan)");
    println!("full_scan        {full:>8.1} ns/entry ({entries} entries)");
}

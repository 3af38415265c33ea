//! **Figure 3** — sorted (descending) inserts (experiment E2).
//!
//! "Data is inserted in sorted order, which gives best-case performance
//! for the B-tree. The 4-COLA is 3.1 times slower than the B-tree for
//! N = 2^30 − 1." The B-tree wins here because it only touches its
//! leftmost root-to-leaf path, which stays in memory.

use std::time::Duration;

use cosbt::Structure;
use cosbt_bench::measure::{insert_throughput, pow2_checkpoints, print_ratio, results_dir};
use cosbt_bench::{descending, scaled, OutOfCore};

fn main() {
    let n = scaled(1 << 18, 1 << 22);
    let cache = scaled(1 << 20, 8 << 20) as usize;
    let cap = Duration::from_secs(scaled(60, 900));
    let keys = descending(n);
    let cps = pow2_checkpoints(1 << 12, n);
    let dir = std::env::temp_dir().join("cosbt-fig3");
    let csv = results_dir().join("fig3_sorted_inserts.csv");
    std::fs::remove_file(&csv).ok();

    println!("== Figure 3: sorted (descending) inserts, N = {n} ==");
    let mut finals: Vec<(String, f64)> = Vec::new();
    for structure in [
        Structure::GCola { g: 2 },
        Structure::GCola { g: 4 },
        Structure::GCola { g: 8 },
        Structure::BTree,
    ] {
        let mut ooc = OutOfCore::create(structure, &dir, cache);
        let label = ooc.dict.label().to_string();
        let probe = ooc.dict.io();
        let series = insert_throughput(&label, &mut ooc.dict, &keys, &cps, cap, &|| {
            probe.snapshot()
        });
        series.print();
        series.write_csv(&csv).expect("write results csv");
        finals.push((label, series.final_disk_rate()));
        println!();
    }
    let cola = finals.iter().find(|(n, _)| n == "4-COLA").unwrap().1;
    let btree = finals.iter().find(|(n, _)| n == "B-tree").unwrap().1;
    print_ratio(
        "sorted inserts (paper: 3.1x)",
        "4-COLA",
        cola,
        "B-tree",
        btree,
    );
    println!("csv: {}", csv.display());
}

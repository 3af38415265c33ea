//! **Figure 2** — COLA vs B-tree, random inserts (experiment E1).
//!
//! Paper setup: keys inserted in uniformly random order into 2-, 4-, and
//! 8-COLAs and a traditional B-tree, all out of core; average inserts per
//! second plotted against N. Headline: "The 2-COLA is 790 times faster
//! than the B-tree for N = (256 × 2^20) − 1"; the paper's B-tree run was
//! stopped after 87 hours. Here N and the memory budget are scaled down
//! together (the data stays ≫ the cache budget, keeping the out-of-core
//! regime) and the B-tree run is time-capped just as the paper's was.
//!
//! Run with `COSBT_SCALE=full` for the larger configuration.

use std::time::Duration;

use cosbt::Structure;
use cosbt_bench::measure::{insert_throughput, pow2_checkpoints, print_ratio, results_dir};
use cosbt_bench::{random_keys, scaled, OutOfCore};

fn main() {
    let n = scaled(1 << 18, 1 << 22);
    let cache = scaled(1 << 20, 8 << 20) as usize;
    let cap = Duration::from_secs(scaled(30, 600));
    let keys = random_keys(n, 0xF162);
    let cps = pow2_checkpoints(1 << 12, n);
    let dir = std::env::temp_dir().join("cosbt-fig2");
    let csv = results_dir().join("fig2_random_inserts.csv");
    std::fs::remove_file(&csv).ok();

    println!("== Figure 2: random inserts, N = {n}, memory budget = {cache} B ==");
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
    let cola = finals.iter().find(|(n, _)| n == "2-COLA").unwrap().1;
    let btree = finals.iter().find(|(n, _)| n == "B-tree").unwrap().1;
    print_ratio(
        "random inserts (paper: 790x)",
        "2-COLA",
        cola,
        "B-tree",
        btree,
    );
    println!("csv: {}", csv.display());
}

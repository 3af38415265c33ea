//! **Figure 5** — ascending vs descending vs random inserts into a
//! 4-COLA (experiment E4).
//!
//! "Inserting 2^30 − 1 keys sorted in descending order is 1.1 times
//! faster than inserting in ascending order, and 1.1 times faster than
//! inserting in random order." The paper attributes this to the final
//! merge: with descending keys the elements already in the target level
//! do not move.

use std::time::Duration;

use cosbt::Structure;
use cosbt_bench::measure::{insert_throughput, pow2_checkpoints, print_ratio, results_dir};
use cosbt_bench::{ascending, descending, random_keys, scaled, OutOfCore};

fn main() {
    let n = scaled(1 << 18, 1 << 22);
    let cache = scaled(1 << 20, 8 << 20) as usize;
    let cap = Duration::from_secs(scaled(60, 900));
    let cps = pow2_checkpoints(1 << 12, n);
    let dir = std::env::temp_dir().join("cosbt-fig5");
    let csv = results_dir().join("fig5_insert_patterns.csv");
    std::fs::remove_file(&csv).ok();

    println!("== Figure 5: 4-COLA insert patterns, N = {n} ==");
    let workloads: Vec<(&str, Vec<u64>)> = vec![
        ("4-COLA (Ascending)", ascending(n)),
        ("4-COLA (Descending)", descending(n)),
        ("4-COLA (Random)", random_keys(n, 0xF165)),
    ];
    let mut finals: Vec<(String, f64)> = Vec::new();
    for (name, keys) in workloads {
        let mut ooc = OutOfCore::create(Structure::GCola { g: 4 }, &dir, cache);
        let probe = ooc.dict.io();
        let series = insert_throughput(name, &mut ooc.dict, &keys, &cps, cap, &|| probe.snapshot());
        series.print();
        series.write_csv(&csv).expect("write results csv");
        finals.push((name.to_string(), series.final_disk_rate()));
        println!();
    }
    let asc = finals[0].1;
    let desc = finals[1].1;
    let rnd = finals[2].1;
    print_ratio(
        "descending vs ascending (paper: 1.1x)",
        "descending",
        desc,
        "ascending",
        asc,
    );
    print_ratio(
        "descending vs random (paper: 1.1x)",
        "descending",
        desc,
        "random",
        rnd,
    );
    print_ratio(
        "ascending vs random (paper: 1.02x)",
        "ascending",
        asc,
        "random",
        rnd,
    );
    println!("csv: {}", csv.display());
}

//! **Figure 4** — random searches (experiment E3).
//!
//! "When N = 2^30 − 1, the 4-COLA performs 2^15 searches 3.5 times slower
//! than the B-tree. Initial searches are slow due to the cache being
//! empty. The source data was created from the test in Figure 3."
//!
//! Following the paper: build each structure with descending inserts
//! (Figure 3's workload), clear the cache ("remounted the RAID array"),
//! then time 2^15 random searches, checkpointing after search 2^x.

use cosbt::Structure;
use cosbt_bench::measure::{print_ratio, results_dir, search_throughput};
use cosbt_bench::{descending, scaled, search_probes, OutOfCore};

fn main() {
    let n = scaled(1 << 18, 1 << 22);
    let cache = scaled(1 << 20, 8 << 20) as usize;
    let probes_n = scaled(1 << 13, 1 << 15);
    let keys = descending(n);
    let probes = search_probes(&keys, probes_n, 0xF164);
    let dir = std::env::temp_dir().join("cosbt-fig4");
    let csv = results_dir().join("fig4_searches.csv");
    std::fs::remove_file(&csv).ok();

    println!("== Figure 4: {probes_n} random searches after sorted build, N = {n} ==");
    let mut finals: Vec<(String, f64)> = Vec::new();
    for structure in [
        Structure::GCola { g: 2 },
        Structure::GCola { g: 4 },
        Structure::GCola { g: 8 },
        Structure::BTree,
    ] {
        let mut ooc = OutOfCore::create(structure, &dir, cache);
        let label = ooc.dict.label().to_string();
        for (i, &k) in keys.iter().enumerate() {
            ooc.dict.insert(k, i as u64);
        }
        ooc.drop_cache();
        ooc.dict.io().reset();
        let probe = ooc.dict.io();
        let series = search_throughput(&label, &mut ooc.dict, &probes, &|| probe.snapshot());
        series.print();
        series.write_csv(&csv).expect("write results csv");
        finals.push((label, series.final_disk_rate()));
        println!();
    }
    let cola = finals.iter().find(|(n, _)| n == "4-COLA").unwrap().1;
    let btree = finals.iter().find(|(n, _)| n == "B-tree").unwrap().1;
    print_ratio("searches (paper: 3.5x)", "4-COLA", cola, "B-tree", btree);
    println!("csv: {}", csv.display());
}

//! **E6** — COLA theory bounds in the DAM simulator (Lemmas 19 & 20).
//!
//! * amortized insert transfers = O((log N)/B);
//! * COLA (with lookahead pointers) search transfers = O(log N);
//! * basic COLA search transfers = O(log² N).
//!
//! The table prints, per N, the measured transfers per operation next to
//! the predicted shape (a constant times log N/B, log N, log² N); the
//! ratio column should stay roughly flat as N doubles.

use cosbt_bench::measure::results_dir;
use cosbt_bench::{random_keys, scaled, search_probes};
use cosbt_core::entry::Cell;
use cosbt_core::{Dictionary, GCola};
use cosbt_dam::{new_shared_sim, CacheConfig, SimMem};
use std::io::Write as _;

const BLOCK: usize = 4096; // bytes; B = 128 cells of 32 bytes
const MEM_BLOCKS: usize = 64;

fn main() {
    let max_n = scaled(1 << 16, 1 << 20);
    let csv_path = results_dir().join("bounds_cola.csv");
    std::fs::create_dir_all(results_dir()).ok();
    let mut csv = std::fs::File::create(&csv_path).unwrap();
    writeln!(csv, "structure,n,insert_tpi,search_tps,log_n,b_cells").unwrap();

    println!("== E6: COLA transfer bounds (B = 128 cells, M = {MEM_BLOCKS} blocks) ==");
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>16} {:>16}",
        "N", "logN", "ins tpi", "ins tpi/(lgN/B)", "search tps", "search shape"
    );
    let mut n = 1u64 << 12;
    while n <= max_n {
        let keys = random_keys(n, 0xE6);
        let probes = search_probes(&keys, 512, 0xE61);
        let lg = (n as f64).log2();
        let b_cells = (BLOCK / 32) as f64;

        // COLA with lookahead pointers (growth 2, every-8th sampling).
        let sim = new_shared_sim(CacheConfig::new(BLOCK, MEM_BLOCKS));
        let mem: SimMem<Cell> = SimMem::with_elem_bytes(sim.clone(), 32);
        let mut cola = GCola::new(mem, 2, 0.125);
        for (i, &k) in keys.iter().enumerate() {
            cola.insert(k, i as u64);
        }
        let ins_t = sim.borrow().stats().transfers() as f64 / n as f64;
        sim.borrow_mut().drop_cache();
        sim.borrow_mut().reset_stats();
        for &p in &probes {
            cola.get(p);
        }
        let search_t = sim.borrow().stats().fetches as f64 / probes.len() as f64;
        println!(
            "{:>10} {:>12.1} {:>14.4} {:>14.3} {:>16.2} {:>16.3}",
            n,
            lg,
            ins_t,
            ins_t / (lg / b_cells),
            search_t,
            search_t / lg
        );
        writeln!(csv, "cola,{n},{ins_t:.6},{search_t:.4},{lg:.2},{b_cells}").unwrap();

        // Basic COLA: same inserts, O(log^2 N) searches.
        let sim = new_shared_sim(CacheConfig::new(BLOCK, MEM_BLOCKS));
        let mem: SimMem<Cell> = SimMem::with_elem_bytes(sim.clone(), 32);
        let mut basic = GCola::basic(mem);
        for (i, &k) in keys.iter().enumerate() {
            basic.insert(k, i as u64);
        }
        let ins_b = sim.borrow().stats().transfers() as f64 / n as f64;
        sim.borrow_mut().drop_cache();
        sim.borrow_mut().reset_stats();
        for &p in &probes {
            basic.get(p);
        }
        let search_b = sim.borrow().stats().fetches as f64 / probes.len() as f64;
        println!(
            "{:>10} {:>12} {:>14.4} {:>14} {:>16.2} {:>16.3}  (basic; shape = tps/lg^2)",
            "",
            "",
            ins_b,
            "",
            search_b,
            search_b / (lg * lg)
        );
        writeln!(csv, "basic,{n},{ins_b:.6},{search_b:.4},{lg:.2},{b_cells}").unwrap();

        n *= 4;
    }
    println!("csv: {}", csv_path.display());
}

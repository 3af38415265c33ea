//! **E13** — sharded parallel ingest vs a single merge machine.
//!
//! The ROADMAP's scaling claim, measured: range-partitioning the keyspace
//! across `S` independent 4-COLAs and applying sorted sub-batches on a
//! scoped thread pool should scale batch ingestion with cores while
//! leaving the read path (point gets, spliced cursors) intact. The table
//! reports wall-clock ingest throughput for 1/2/4(/8 at full scale)
//! shards — every batch here is far above `PARALLEL_MIN_OPS`, so a
//! sharded row runs on worker threads whenever the machine has more than
//! one core — plus a read-back column so a routing bug cannot masquerade
//! as a speedup.

use std::time::Instant;

use cosbt::{DbBuilder, Structure};
use cosbt_bench::measure::results_dir;
use cosbt_bench::{random_keys, scaled};
use std::io::Write as _;

const BATCH: usize = 16 * 1024;

struct Row {
    shards: usize,
    ingest_mops: f64,
    get_mops: f64,
    scan_len: usize,
}

/// Ingests `keys` in sorted batches of [`BATCH`], then reads back a probe
/// set and drains one full cursor.
fn measure(keys: &[u64], shards: usize) -> Row {
    let mut db = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .shards(shards)
        .build()
        .unwrap();

    let t = Instant::now();
    for (c, chunk) in keys.chunks(BATCH).enumerate() {
        let mut run: Vec<(u64, u64)> = chunk.iter().map(|&k| (k, c as u64)).collect();
        run.sort_unstable_by_key(|&(k, _)| k);
        db.insert_batch(&run);
    }
    let ingest = t.elapsed().as_secs_f64();

    let probes: Vec<u64> = keys.iter().step_by(64).copied().collect();
    let t = Instant::now();
    let mut hits = 0usize;
    for &k in &probes {
        if db.get(k).is_some() {
            hits += 1;
        }
    }
    let get = t.elapsed().as_secs_f64();
    assert_eq!(hits, probes.len(), "every ingested key must be found");

    // Full spliced scan: validates the cross-shard merge and yields the
    // live count (duplicate keys collapse, so it's ≤ keys.len()).
    let scan_len = db.range(0, u64::MAX).len();

    Row {
        shards,
        ingest_mops: keys.len() as f64 / ingest / 1e6,
        get_mops: probes.len() as f64 / get / 1e6,
        scan_len,
    }
}

fn main() {
    let n = scaled(1 << 19, 1 << 22);
    let keys = random_keys(n, 0x5A4D);
    let shard_counts: &[usize] = if cosbt_bench::full_scale() {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4]
    };

    let csv_path = results_dir().join("bounds_shards.csv");
    std::fs::create_dir_all(results_dir()).ok();
    let mut csv = std::fs::File::create(&csv_path).unwrap();
    writeln!(csv, "shards,ingest_mops,get_mops,scan_len").unwrap();

    println!(
        "== E13: sharded ingest scaling (N = {n}, batch = {BATCH}, 4-COLA per shard, \
         {} cores) ==",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    println!(
        "{:>7} {:>16} {:>13} {:>10}",
        "shards", "ingest Mops/s", "get Mops/s", "scan len"
    );
    let mut rows = Vec::new();
    for &s in shard_counts {
        let r = measure(&keys, s);
        println!(
            "{:>7} {:>16.2} {:>13.2} {:>10}",
            r.shards, r.ingest_mops, r.get_mops, r.scan_len
        );
        writeln!(
            csv,
            "{},{:.4},{:.4},{}",
            r.shards, r.ingest_mops, r.get_mops, r.scan_len
        )
        .unwrap();
        rows.push(r);
    }

    // Every configuration must agree on the live-entry count: the shard
    // router is a routing layer, not a different dictionary.
    let scan0 = rows[0].scan_len;
    assert!(
        rows.iter().all(|r| r.scan_len == scan0),
        "sharded scans disagree on the live count"
    );

    let single = rows
        .iter()
        .find(|r| r.shards == 1)
        .expect("single-shard baseline ran");
    if let Some(best) = rows
        .iter()
        .filter(|r| r.shards > 1)
        .max_by(|a, b| a.ingest_mops.total_cmp(&b.ingest_mops))
    {
        println!(
            "\nbest sharded config ({} shards): {:.2}x single-shard ingest \
             ({:.2} vs {:.2} Mops/s)",
            best.shards,
            best.ingest_mops / single.ingest_mops.max(1e-12),
            best.ingest_mops,
            single.ingest_mops
        );
    }
    println!("csv: {}", csv_path.display());
}

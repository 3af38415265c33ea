//! Micro-benchmarks: raw in-memory operation throughput of every
//! dictionary in the workspace, of the per-level filter and ghost
//! window under the COLAs' lookups, of a `DbReader` point read over
//! a deep snapshot run stack and of that stack's compaction and scan,
//! and of one resident-cell store call, for quick regression tracking. (The
//! paper's figures are regenerated by the other bench targets and the
//! `figures` binary; these are engineering benchmarks.)
//!
//! Plain timing loops rather than an external harness so the workspace
//! builds offline; run with `cargo bench --bench micro_ops`.

use std::hint::black_box;
use std::time::Instant;

use cosbt::{Backend, CursorOps, Db, DbBuilder, DbReader, Structure};
use cosbt_bench::{random_keys, scaled, search_probes};
use cosbt_core::cascade::build_aux;
use cosbt_core::entry::Cell;
use cosbt_core::epoch::{merge_runs, Run};
use cosbt_core::{LevelFilter, Probe};
use cosbt_dam::{ArcFileMem, FileMem, Mem, PlainMem, DEFAULT_PAGE_SIZE};

/// Every unsharded cell of the shared configuration matrix — the same
/// list the conformance battery and the scenario harness enumerate.
fn builders() -> Vec<(String, DbBuilder)> {
    DbBuilder::matrix(&[1])
        .into_iter()
        .map(|b| (b.label(), b))
        .collect()
}

fn report(group: &str, name: &str, ops: u64, secs: f64) {
    println!(
        "{group:<24} {name:<24} {:>12.0} ops/s  ({ops} ops in {secs:.3}s)",
        ops as f64 / secs.max(1e-9)
    );
}

fn main() {
    let n = scaled(50_000, 500_000);
    let keys = random_keys(n, 0xC41);
    let probes = search_probes(&keys, 10_000, 0xC43);

    println!("== micro_ops (N = {n}) ==");
    for (name, builder) in builders() {
        // Random inserts.
        let mut d = builder.clone().build().unwrap();
        let t = Instant::now();
        for (i, &k) in keys.iter().enumerate() {
            d.insert(k, i as u64);
        }
        report("random_insert", &name, n, t.elapsed().as_secs_f64());

        // Point lookups on the loaded structure.
        let t = Instant::now();
        let mut hits = 0u64;
        for &p in &probes {
            if d.get(p).is_some() {
                hits += 1;
            }
        }
        report(
            "point_lookup",
            &name,
            probes.len() as u64,
            t.elapsed().as_secs_f64(),
        );
        assert!(hits > 0);

        // Range scans (~1k results of a dense key space).
        let mut d = builder.clone().build().unwrap();
        for k in 0..n {
            d.insert(k * 7, k);
        }
        let t = Instant::now();
        let mut total = 0usize;
        for _ in 0..20 {
            total += d.range(70_000, 77_000).len();
        }
        report(
            "range_scan_1k",
            &name,
            total as u64,
            t.elapsed().as_secs_f64(),
        );

        // Streaming cursor over the same interval (no materialization).
        cursor_scan_1k(&name, &mut d);

        // Sorted batched inserts (1k-key batches).
        let mut d = builder.clone().build().unwrap();
        let t = Instant::now();
        for chunk in keys.chunks(1000) {
            let mut run: Vec<(u64, u64)> = chunk.iter().map(|&k| (k, 1)).collect();
            run.sort_unstable_by_key(|&(k, _)| k);
            d.insert_batch(&run);
        }
        report("insert_batch_1k", &name, n, t.elapsed().as_secs_f64());
    }

    // The same scan where a store call is a lock and a residency lookup:
    // the 4-COLA on a file, its 64 KiB cache holding the interval after
    // the first pass, so the row times the cursor's calls, not the disk.
    let path = cosbt_testkit::TempPath::new("micro-ops.dat");
    let mut d = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(path.to_path_buf()))
        .cache_bytes(64 << 10)
        .build()
        .unwrap();
    for k in 0..n {
        d.insert(k * 7, k);
    }
    cursor_scan_1k("4-COLA, file", &mut d);
    d.discard_on_drop();

    aux_probe();
    snapshot_get();
    store_call();
}

/// One `Mem` call on cells that are all resident: a `get` and an 8-cell
/// `read_run` inside one page, on a 4 KiB-page file store whose cache
/// holds every page of its 4,096 cells, and on `PlainMem`. The file
/// rows are the store's fixed costs per call — lock, residency lookup,
/// counter update — with no device access; each row ~4 M calls in
/// random cell order.
fn store_call() {
    const CELLS: usize = 4_096;
    let path = cosbt_testkit::TempPath::new("micro-ops-store.dat");
    let pages = CELLS * 32 / DEFAULT_PAGE_SIZE;
    let fm = FileMem::<Cell>::create(&path, DEFAULT_PAGE_SIZE, 2 * pages, 32).unwrap();
    let cells: Vec<Cell> = (0..CELLS as u64).map(|k| Cell::item(k, k)).collect();
    let mut file = ArcFileMem::new(fm);
    let mut plain = PlainMem::new();
    for m in [&mut file as &mut dyn Mem<Cell>, &mut plain] {
        m.resize(CELLS, Cell::default());
        m.write_run(0, &cells);
    }
    let idx: Vec<usize> = random_keys(1 << 16, 0x5C0)
        .into_iter()
        .map(|k| k as usize % CELLS)
        .collect();
    file.reset_stats();
    store_rows("file", &file, &idx);
    store_rows("plain", &plain, &idx);
    assert_eq!(file.stats().fetches, 0, "the file rows left the cache");
}

fn store_rows<M: Mem<Cell>>(store: &str, m: &M, idx: &[usize]) {
    let calls = 1u64 << 22;
    let row = |what: &str, secs: f64| {
        println!(
            "{:<24} {:<24} {:>12.1} ns/call  ({calls} calls in {secs:.3}s)",
            "store_call",
            format!("{what}, {store}"),
            secs * 1e9 / calls as f64
        );
    };
    let t = Instant::now();
    let mut sum = 0u64;
    for &i in idx.iter().cycle().take(calls as usize) {
        sum = sum.wrapping_add(m.get(black_box(i)).val);
    }
    row("get", t.elapsed().as_secs_f64());
    let mut out = [Cell::default(); 8];
    let t = Instant::now();
    for &i in idx.iter().cycle().take(calls as usize) {
        m.read_run(black_box(i & !7), &mut out);
        sum = sum.wrapping_add(out[7].val);
    }
    row("read_run 8", t.elapsed().as_secs_f64());
    black_box(sum);
}

/// The DRAM half of a level probe, below every structure: the filter's
/// inserts, its probes that hit and that miss, and the ghost window, at
/// a level of 1,536 slots (a 4-COLA's fifth) and one of 393,216 (its
/// ninth), each row ~8 M calls in random key order.
fn aux_probe() {
    for slots in [1_536u64, 393_216] {
        let keys = random_keys(slots, 0xA0C);
        let absent = random_keys(slots, 0xA0D);
        let reps = (1 << 23) / slots;
        let calls = reps * slots;
        let done = |what: &str, t: Instant| {
            let secs = t.elapsed().as_secs_f64();
            report("aux_probe", &format!("{what}, {slots} slots"), calls, secs);
        };

        let mut filter = LevelFilter::with_capacity(slots as usize);
        let t = Instant::now();
        for _ in 0..reps {
            for &k in &keys {
                filter.insert(black_box(k));
            }
        }
        black_box(&filter);
        done("insert", t);

        for (what, probes) in [("contains hit", &keys), ("contains miss", &absent)] {
            let t = Instant::now();
            let mut yes = 0u64;
            for _ in 0..reps {
                for &k in probes {
                    yes += filter.contains(&Probe::new(black_box(k))) as u64;
                }
            }
            black_box(yes);
            done(what, t);
        }

        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let cells: Vec<Cell> = sorted.iter().map(|&k| Cell::item(k, k)).collect();
        let aux = build_aux(&cells);
        let t = Instant::now();
        let mut span = 0usize;
        for _ in 0..reps {
            for &k in &keys {
                let (lo, hi) = aux.window(black_box(k));
                span += hi - lo;
            }
        }
        black_box(span);
        done("window", t);
    }
}

/// `DbReader::get` on the deepest run stack a reader holds once
/// `snapshot()` returns: a 65,536-entry base under seven 256-entry
/// deltas (an eighth delta's publish would compact the stack). Rows: a
/// key of the newest delta, a key only the base holds, and an absent
/// key, each ~4 M calls in random key order.
fn snapshot_get() {
    const BASE: usize = 65_536;
    const DELTA: usize = 256;
    const DELTAS: usize = 7;
    let keys = random_keys((2 * BASE + DELTAS * DELTA) as u64, 0x5A9);
    let (base, rest) = keys.split_at(BASE);
    let (deltas, absent) = rest.split_at(DELTAS * DELTA);
    let mut db = DbBuilder::new().build().unwrap();
    for &k in base {
        db.insert(k, k);
    }
    let mut reader = db.reader();
    for delta in deltas.chunks(DELTA) {
        for &k in delta {
            db.insert(k, k);
        }
        db.snapshot();
    }
    let newest = &deltas[(DELTAS - 1) * DELTA..];
    assert_eq!(reader.get(newest[0]), Some(newest[0]));
    let runs = reader.pin().run_count();
    assert_eq!(runs, 1 + DELTAS, "the stack compacted");

    let calls = 1u64 << 22;
    for (what, probes, hits) in [
        ("newest delta hit", newest, true),
        ("base-only hit", base, true),
        ("absent", absent, false),
    ] {
        let t = Instant::now();
        let mut found = 0u64;
        for &k in probes.iter().cycle().take(calls as usize) {
            found += reader.get(black_box(k)).is_some() as u64;
        }
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(found, if hits { calls } else { 0 });
        println!(
            "{:<24} {:<24} {:>12.1} ns/call  ({runs} runs, {calls} calls in {secs:.3}s)",
            "snapshot_get",
            what,
            secs * 1e9 / calls as f64
        );
    }
    snapshot_walks(&mut reader, base, deltas, DELTA);
}

/// The other two readers of `snapshot_get`'s stack, in ns per entry,
/// each the best of 5 passes: the compaction the next `snapshot()`
/// runs (a ninth run's publish keeps the newest four and merges the
/// base and the four oldest deltas into one run, tombstones dropped),
/// and a `DbSnapshot` cursor walking the whole stack.
fn snapshot_walks(reader: &mut DbReader, base: &[u64], deltas: &[u64], delta: usize) {
    let upserts = |keys: &[u64]| keys.iter().map(|&k| (k, Some(k))).collect::<Vec<_>>();
    let mut stack: Vec<Run> = (deltas.chunks(delta).rev())
        .map(|d| Run::from_ops(upserts(d)))
        .collect();
    stack.push(Run::from_ops(upserts(base)));
    let snap = reader.pin();
    assert_eq!(snap.run_count(), stack.len(), "the stack compacted");
    let best_of_5 = |f: &mut dyn FnMut() -> usize| {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                let entries = f();
                t.elapsed().as_secs_f64() * 1e9 / entries as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let oldest = &stack[3..];
    let entries: usize = oldest.iter().map(Run::len).sum();
    let ns = best_of_5(&mut || {
        assert_eq!(black_box(merge_runs(oldest, true)).len(), entries);
        entries
    });
    println!(
        "{:<24} {:<24} {:>12.1} ns/entry  ({} runs, {entries} entries, best of 5)",
        "snapshot_compact",
        "base + 4 deltas",
        ns,
        oldest.len()
    );
    let ns = best_of_5(&mut || {
        let mut cur = snap.cursor(0, u64::MAX);
        std::iter::from_fn(|| cur.next()).count()
    });
    println!(
        "{:<24} {:<24} {:>12.1} ns/entry  ({} runs, {} entries, best of 5)",
        "snapshot_scan",
        "whole stack",
        ns,
        stack.len(),
        snap.range(0, u64::MAX).len()
    );
}

/// 20 scans of the ~1k entries in `[70_000, 77_000]` of the dense
/// `k * 7` key space.
fn cursor_scan_1k(name: &str, d: &mut Db) {
    let t = Instant::now();
    let mut total = 0usize;
    for _ in 0..20 {
        let mut cur = d.cursor(70_000, 77_000);
        while cur.next().is_some() {
            total += 1;
        }
    }
    report(
        "cursor_scan_1k",
        name,
        total as u64,
        t.elapsed().as_secs_f64(),
    );
}

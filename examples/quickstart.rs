//! Quickstart: the unified streaming B-tree dictionary API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! One builder configures every structure the paper describes; the shared
//! `Dictionary` interface then exercises upserts, deletes, batched
//! updates, point queries, and streaming cursors identically on each.

use cosbt::{Db, DbBuilder, Structure, UpdateBatch};

fn configs() -> Vec<DbBuilder> {
    vec![
        // The paper's implemented structure: g-COLA (Section 4). Growth
        // factor 2 with lookahead pointers is the COLA of Lemma 20.
        DbBuilder::new().structure(Structure::GCola { g: 2 }),
        // The 4-COLA: the configuration the paper found best overall.
        DbBuilder::new().structure(Structure::GCola { g: 4 }),
        // Basic COLA (no lookahead pointers): O(log² N) searches.
        DbBuilder::new().structure(Structure::BasicCola),
        // The deamortized COLA: same amortized cost, O(log N) worst case.
        DbBuilder::new().structure(Structure::DeamortizedCola),
        // The baselines the paper compares against.
        DbBuilder::new().structure(Structure::BTree),
        DbBuilder::new().structure(Structure::Brt),
        // The shuttle tree (Section 2).
        DbBuilder::new().structure(Structure::Shuttle { c: 4 }),
    ]
}

fn exercise(db: &mut Db) {
    // Streaming upserts: newest version must win. Every key is written
    // five times; "physical size" below is what each structure still
    // stores of that — one version per key and level in the COLAs (the
    // g-COLAs, the basic and the deamortized COLA), whose merges drop
    // shadowed versions.
    for k in 0..50_000u64 {
        db.insert(k % 10_000, k);
    }
    // Deletes are first-class (tombstones in the log-structured variants).
    for k in (0..10_000u64).step_by(100) {
        db.delete(k);
    }
    // Batched updates: one merge pass instead of one cascade per key.
    let mut batch = UpdateBatch::new();
    for k in 20_000..21_000u64 {
        batch.put(k, k * 2);
    }
    batch.delete(20_500);
    db.apply(&mut batch);

    assert_eq!(db.get(1), Some(40_001));
    assert_eq!(db.get(100), None, "deleted");
    assert_eq!(db.get(20_400), Some(40_800), "batched put");
    assert_eq!(db.get(20_500), None, "batched delete");

    // Streaming range scan: a bidirectional cursor, no materialization.
    let mut cur = db.cursor(500, 520);
    let first = cur.next();
    assert_eq!(first, Some((501, 40_501)));
    let mut in_window = 1;
    while cur.next().is_some() {
        in_window += 1;
    }
    assert_eq!(
        cur.prev().map(|(k, _)| k),
        Some(520),
        "walks back from the end"
    );
    drop(cur);

    println!(
        "{:>24}  live-range[500..=520]={in_window:>2} entries, physical size {:>6}",
        db.label(),
        db.physical_len()
    );
}

fn main() {
    println!("cache-oblivious streaming B-trees: quickstart\n");
    for builder in configs() {
        let mut db = builder.build().expect("in-memory configs always build");
        exercise(&mut db);
    }
    println!("\nsame API, six structures — see DESIGN.md for what differs underneath");
}

//! Macro-generated trait-conformance battery: one shared suite of
//! upsert / delete / get / cursor / range / batch checks against a
//! `BTreeMap` model, instantiated for every structure in the workspace.
//! A new `Dictionary` method gets its battery check added **here once**
//! and every structure is held to it — per-crate drift fails this file.

use std::collections::BTreeMap;

use cosbt::{Dictionary, UpdateBatch};

/// The model the battery compares against.
struct Checked<D: Dictionary> {
    dict: D,
    model: BTreeMap<u64, u64>,
}

impl<D: Dictionary> Checked<D> {
    fn new(dict: D) -> Self {
        Checked {
            dict,
            model: BTreeMap::new(),
        }
    }

    fn insert(&mut self, k: u64, v: u64) {
        self.dict.insert(k, v);
        self.model.insert(k, v);
    }

    fn delete(&mut self, k: u64) {
        self.dict.delete(k);
        self.model.remove(&k);
    }

    fn assert_get(&mut self, k: u64) {
        assert_eq!(
            self.dict.get(k),
            self.model.get(&k).copied(),
            "{} get({k})",
            self.dict.name()
        );
    }

    /// range + forward cursor + backward cursor + seek, all vs the model.
    fn assert_window(&mut self, lo: u64, hi: u64) {
        let name = self.dict.name();
        let want: Vec<(u64, u64)> = if lo > hi {
            Vec::new()
        } else {
            self.model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
        };
        if lo > hi {
            assert_eq!(self.dict.range(lo, hi), want, "{name} inverted range");
            return;
        }
        assert_eq!(self.dict.range(lo, hi), want, "{name} range({lo},{hi})");

        let mut cur = self.dict.cursor(lo, hi);
        let mut fwd = Vec::new();
        while let Some(kv) = cur.next() {
            fwd.push(kv);
        }
        let mut bwd = Vec::new();
        while let Some(kv) = cur.prev() {
            bwd.push(kv);
        }
        bwd.reverse();
        drop(cur);
        assert_eq!(fwd, want, "{name} cursor forward ({lo},{hi})");
        assert_eq!(bwd, want, "{name} cursor backward ({lo},{hi})");

        for probe_at in [0, want.len() / 2, want.len().saturating_sub(1)] {
            if let Some(&(k, v)) = want.get(probe_at) {
                let mut cur = self.dict.cursor(lo, hi);
                cur.seek(k);
                assert_eq!(cur.next(), Some((k, v)), "{name} seek({k})");
                assert_eq!(cur.prev(), Some((k, v)), "{name} seek+next+prev({k})");
            }
        }

        // Seeking past the upper bound must clamp: next() finds nothing,
        // prev() walks back in from the last in-bounds entry.
        if hi < u64::MAX {
            let mut cur = self.dict.cursor(lo, hi);
            cur.seek(hi.saturating_add(1));
            assert_eq!(cur.next(), None, "{name} seek past hi then next");
            assert_eq!(
                cur.prev(),
                want.last().copied(),
                "{name} seek past hi then prev"
            );
        }
    }
}

/// The shared battery. `key_space` keeps collision pressure high so
/// upserts, tombstones, and batch-overwrite paths all engage.
fn battery<D: Dictionary>(dict: D) {
    let mut c = Checked::new(dict);
    let key_space = 512u64;
    let mut x = 0x5EEDu64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };

    // Phase 1: upserts (duplicates guaranteed) + point checks.
    for i in 0..3_000u64 {
        c.insert(rand() % key_space, i);
        if i % 251 == 0 {
            c.assert_get(rand() % key_space);
        }
    }
    c.assert_window(0, u64::MAX);

    // Phase 2: deletes, including misses and boundary keys.
    for _ in 0..800 {
        c.delete(rand() % (key_space + 64));
    }
    c.delete(0);
    c.delete(u64::MAX);
    c.assert_window(0, u64::MAX);
    c.assert_window(100, 300);
    c.assert_window(301, 300); // empty (inverted handled by range's guard)

    // Phase 3: boundary keys live in the structure.
    c.insert(0, 1);
    c.insert(u64::MAX, 2);
    c.insert(u64::MAX - 1, 3);
    c.assert_get(0);
    c.assert_get(u64::MAX);
    c.assert_window(u64::MAX - 2, u64::MAX);

    // Phase 4: apply() batches — puts, deletes, intra-batch overwrites.
    let mut batch = UpdateBatch::new();
    for _ in 0..400 {
        let k = rand() % key_space;
        if rand() % 4 == 0 {
            batch.delete(k);
            c.model.remove(&k);
        } else {
            let v = rand();
            batch.put(k, v);
            c.model.insert(k, v);
        }
    }
    c.dict.apply(&mut batch);
    assert!(batch.is_empty(), "{} apply must drain", c.dict.name());
    c.assert_window(0, u64::MAX);

    // Phase 5: insert_batch() sorted runs, overlapping existing keys.
    let mut run: Vec<(u64, u64)> = (0..600)
        .map(|_| (rand() % (2 * key_space), rand()))
        .collect();
    run.sort_unstable_by_key(|&(k, _)| k);
    for &(k, v) in &run {
        c.model.insert(k, v); // duplicates: later (sorted-stable) wins
    }
    c.dict.insert_batch(&run);
    c.assert_window(0, u64::MAX);
    c.assert_window(key_space, 2 * key_space);

    // Phase 6: interleave batches with single-key traffic.
    for round in 0..10u64 {
        let mut batch = UpdateBatch::new();
        for _ in 0..50 {
            let k = rand() % key_space;
            let v = round;
            batch.put(k, v);
            c.model.insert(k, v);
        }
        c.dict.apply(&mut batch);
        c.insert(rand() % key_space, round + 1000);
        c.delete(rand() % key_space);
        c.assert_get(rand() % key_space);
    }
    c.assert_window(0, u64::MAX);
}

macro_rules! conformance {
    ($($name:ident => $make:expr;)+) => {
        $(
            #[test]
            fn $name() {
                battery($make);
            }
        )+
    };
}

conformance! {
    basic_cola    => cosbt::cola::GCola::basic(cosbt::dam::PlainMem::new());
    gcola2        => cosbt::cola::GCola::new_plain(2);
    gcola4        => cosbt::cola::GCola::new_plain(4);
    gcola8        => cosbt::cola::GCola::new_plain(8);
    // The deamortized COLA: the `deamort` engine, reached through the
    // facade's builder and shard layer.
    deamort_basic => cosbt::DbBuilder::new()
        .structure(cosbt::Structure::DeamortizedCola)
        .build()
        .unwrap();
    deamort       => cosbt::cola::DeamortCola::new_plain();
    btree         => cosbt::btree::BTree::new_plain();
    brt           => cosbt::brt::Brt::new_plain();
    shuttle       => cosbt::shuttle::ShuttleTree::new(4);
    // Default even splitters: the battery's small keys all land in shard
    // 0 — the degenerate routing must still behave exactly like one
    // structure.
    db_sharded_even_split => cosbt::DbBuilder::new()
        .structure(cosbt::Structure::GCola { g: 4 })
        .shards(4)
        .build()
        .unwrap();
}

// The `Db` facade is held to the same battery across the **entire**
// supported configuration matrix — the one list `DbBuilder::matrix`
// also hands to the benchmark harness, so a structure added to the
// builder is conformance-tested and benchmarkable for free.
#[test]
fn matrix_unsharded_cells_conform() {
    for b in cosbt::DbBuilder::matrix(&[1]) {
        battery(b.build().unwrap());
    }
}

// Same matrix, range-partitioned: boundaries placed inside the battery's
// key range, so every shard takes traffic and every window assertion
// crosses shard boundaries.
#[test]
fn matrix_sharded_cells_conform() {
    for b in cosbt::DbBuilder::matrix(&[4]) {
        battery(b.shard_splitters(vec![128, 256, 384]).build().unwrap());
    }
}

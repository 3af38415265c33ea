//! # cosbt — Cache-Oblivious Streaming B-trees
//!
//! A from-scratch Rust reproduction of *Cache-Oblivious Streaming B-trees*
//! (Bender, Farach-Colton, Fineman, Fogel, Kuszmaul, Nelson — SPAA 2007):
//! the cache-oblivious lookahead array (COLA) family, the shuttle tree,
//! their substrates (DAM-model simulator, packed-memory array), and the
//! baselines the paper compares against (B-tree, buffered repository tree).
//!
//! This facade crate re-exports every sub-crate under one roof and adds
//! the [`Db`]/[`DbBuilder`] handle that configures any structure over any
//! backend; see the workspace `README.md` for a tour and `DESIGN.md` for
//! the system map.
//!
//! ## Quick start
//!
//! ```
//! use cosbt::{Backend, DbBuilder, Structure, UpdateBatch};
//!
//! // The paper's experimental structure: a 4-COLA (growth factor 4),
//! // in memory. Swap one line for `.structure(Structure::BTree)` or
//! // `.backend(Backend::file(path)).cache_bytes(1 << 20)` to change
//! // structure or storage.
//! let mut db = DbBuilder::new()
//!     .structure(Structure::GCola { g: 4 })
//!     .backend(Backend::Mem)
//!     .build()
//!     .unwrap();
//!
//! // Point writes, or whole batches in one merge pass:
//! for k in 0..10_000u64 {
//!     db.insert(k * 2654435761 % 1_000_003, k);
//! }
//! let mut batch = UpdateBatch::new();
//! batch.put(7, 70).put(9, 90).delete(7);
//! db.apply(&mut batch);
//!
//! assert_eq!(db.get(2654435761 % 1_000_003), Some(1));
//! assert_eq!(db.get(9), Some(90));
//! assert_eq!(db.get(7), None);
//!
//! // Streaming range scans: a cursor walks entries without materializing.
//! let mut cur = db.cursor(0, 100);
//! let first = cur.next();
//! assert!(first.is_some());
//! assert_eq!(cur.prev(), first, "cursors are bidirectional");
//! ```
//!
//! ## Scaling across cores
//!
//! `.shards(n)` range-partitions the keyspace across `n` independent
//! instances of the configured structure, and `.parallel_ingest(true)`
//! applies batches on a scoped pool of worker threads — one coherent
//! dictionary view, `n` merge machines (see [`shard`]):
//!
//! ```
//! use cosbt::{DbBuilder, Structure, UpdateBatch};
//!
//! let mut db = DbBuilder::new()
//!     .structure(Structure::GCola { g: 4 })
//!     .shards(4)
//!     .parallel_ingest(true)
//!     .build()
//!     .unwrap();
//! let mut batch = UpdateBatch::new();
//! for k in 0..10_000u64 {
//!     batch.put(k.wrapping_mul(0x9E3779B97F4A7C15), k); // spread over u64
//! }
//! db.apply(&mut batch); // split by shard, applied in parallel
//! assert_eq!(db.range(0, u64::MAX).len(), 10_000);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod db;
pub mod shard;
pub mod snapshot;

pub use db::{
    Backend, BuildError, Db, DbBuilder, DbConfig, IoHandle, OpenError, Structure,
    VALID_COMBINATIONS,
};
pub use shard::ShardRouter;
pub use snapshot::{DbReader, DbSnapshot, SnapshotCursor};

/// The shared dictionary API: trait, batches, cursors.
pub use cosbt_core::{BatchOp, Cursor, CursorOps, Dictionary, UpdateBatch, VecCursor};

/// DAM-model simulator and storage substrates.
pub use cosbt_dam as dam;

/// The COLA family (the paper's Section 3 and 4).
pub use cosbt_core as cola;

/// Baseline B+-tree (the comparator of Figures 2–4).
pub use cosbt_btree as btree;

/// Buffered repository tree baseline.
pub use cosbt_brt as brt;

/// The shuttle tree (the paper's Section 2).
pub use cosbt_shuttle as shuttle;

/// Deterministic randomized-testing helpers (offline `rand` stand-in).
pub use cosbt_testkit as testkit;

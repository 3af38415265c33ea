//! The cache-oblivious lookahead array (COLA) family — the primary
//! contribution of *Cache-Oblivious Streaming B-trees* (Bender et al.,
//! SPAA 2007), Sections 3 and 4.
//!
//! * [`BasicCola`] — Section 3's basic COLA: `log₂ N` full-or-empty
//!   levels, binary-carry merging, `O((log N)/B)` amortized insert
//!   transfers, `O(log² N)` search transfers.
//! * [`GCola`] — Section 4's implementation: growth factor `g`, pointer
//!   density `p`, fractional-cascading lookahead pointers, `O(log N)`
//!   search transfers. `GCola::cola(p)` (g = 2) is the COLA of Lemma 20;
//!   `GCola::cache_aware(b, eps)` is the cache-aware lookahead array that
//!   matches the Bᵉ-tree bounds.
//! * [`DeamortBasicCola`] — Theorem 22's partial deamortization: two
//!   arrays per level, safe/unsafe levels, `m = 2k + 2` moves per insert,
//!   worst-case `O(log N)` per insert.
//! * [`DeamortCola`] — Theorem 24: three arrays per level with
//!   shadow/visible status and array linking, hiding merges from queries.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod basic;
pub mod cascade;
pub mod cursor;
pub mod deamort;
pub mod deamort_basic;
pub mod dict;
pub mod entry;
pub mod epoch;
pub mod gcola;
mod merge;
pub mod persist;
mod run;
mod runbuf;
pub mod stats;
pub mod worker;

pub use basic::BasicCola;
pub use cascade::{AuxBuilder, LevelAux, LevelFilter};
pub use cursor::{MergeCursor, Run, RunMergeCursor};
pub use deamort::DeamortCola;
pub use deamort_basic::DeamortBasicCola;
pub use dict::{BatchOp, Cursor, CursorOps, Dictionary, UpdateBatch, VecCursor};
pub use entry::Cell;
pub use epoch::{EpochManager, EpochStats, EpochVersion, PinnedEpoch};
pub use gcola::GCola;
pub use persist::{MetaError, MetaReader, MetaWriter, Persist};
pub use stats::ColaStats;
pub use worker::WorkerPool;

//! Disk-access-machine (DAM) model simulator and storage substrates.
//!
//! The DAM model (Aggarwal–Vitter) assumes an internal memory of size `M`
//! organized into blocks of size `B` and an arbitrarily large external
//! memory; the cost of an algorithm is the number of *block transfers*
//! between the two. The cache-oblivious model is the same machine, but the
//! algorithm does not know `B` or `M`.
//!
//! This crate provides the three storage backends every data structure in
//! the workspace is generic over:
//!
//! * [`PlainMem`] / [`VecPages`] — ordinary heap storage, zero overhead;
//!   used for wall-clock benchmarks.
//! * [`SimMem`] / [`SimPages`] — every access is routed through an exact
//!   LRU block-cache simulator ([`IoSim`]) that counts block transfers;
//!   used to validate the paper's asymptotic bounds empirically.
//! * [`FilePages`] — real file-backed storage behind a *bounded
//!   user-space page cache*, so the out-of-core regime (`M ≪ N`) is
//!   explicit and not hidden by the OS page cache; used for the paper's
//!   Figure 2–4 style experiments. One cache, one element view
//!   ([`FileMem`], the same pages read as a flat array) and one handle:
//!   [`Shared`] locks either and is what a structure runs over —
//!   [`ArcFileMem`] is the [`Mem`], [`ArcFilePages`] the [`PageStore`],
//!   [`SharedStore`] the kind-erased clone that only counts, commits and
//!   controls the cache.
//!
//! Because the traits are monomorphized, `PlainMem` compiles to direct
//! slice indexing: the instrumentation is zero-cost when it is not used.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dev;
pub mod file;
pub mod format;
pub mod lru;
pub mod mem;
pub mod page;
pub mod pod;
pub mod reclaim;
pub mod sim;
pub mod stats;

pub use dev::{CrashDev, DevOp, DirectFile, RawDev, DIRECT_ALIGN};
pub use file::{ArcFileMem, ArcFilePages, FileMem, FilePages, Shared, SharedStore, Store};
pub use format::OpenError;
pub use lru::LruCache;
pub use mem::{Mem, PlainMem, SimMem};
pub use page::{PageStore, SimPages, VecPages, DEFAULT_PAGE_SIZE};
pub use pod::Pod;
pub use reclaim::{FixedHorizon, ReclaimGate};
pub use sim::{new_shared_sim, CacheConfig, IoSim, SharedSim};
pub use stats::{AtomicIoStats, IoStats};

//! The top-level handle: one builder configures any structure in the
//! workspace over any storage backend, optionally range-partitioned
//! across shards.
//!
//! The per-crate constructors (`GCola::new`, `BTree::new(FilePages::…)`,
//! …) remain available for code that needs a concrete type, but examples,
//! tests, and benchmarks go through [`DbBuilder`] so switching structure
//! or backend is a one-line change:
//!
//! ```
//! use cosbt::{Backend, DbBuilder, Structure};
//!
//! let mut db = DbBuilder::new()
//!     .structure(Structure::GCola { g: 4 })
//!     .backend(Backend::Mem)
//!     .build()
//!     .unwrap();
//! db.insert(1, 10);
//! assert_eq!(db.get(1), Some(10));
//! ```
//!
//! Adding `.shards(n)` splits the keyspace across `n` independent
//! instances of the configured structure behind the same interface; a
//! large batch that reaches several shards is applied on worker threads
//! (see [`crate::shard`]).

use std::io;
use std::path::{Path, PathBuf};

use cosbt_brt::Brt;
use cosbt_btree::BTree;
use cosbt_core::entry::Cell;
use cosbt_core::legacy::{self, Heir};
use cosbt_core::persist::{
    peek_tag, tag_name, Root, TAG_BASIC_COLA, TAG_BRT, TAG_BTREE, TAG_DEAMORT_BASIC, TAG_GCOLA,
};
use cosbt_core::{Cursor, Dictionary, EpochStats, GCola, MetaError, UpdateBatch};
use cosbt_dam::format::{sibling_path, DEFAULT_SLOT_BYTES, KIND_PAGES};
use cosbt_dam::{
    ArcFileMem, ArcFilePages, DirectFile, FileMem, FilePages, IoStats, Mem, PageStore as _,
    PlainMem, SharedStore, Store, DEFAULT_PAGE_SIZE,
};
use cosbt_shuttle::ShuttleTree;

use crate::shard::{even_splitters, Shard, ShardRouter};
use crate::snapshot::{DbReader, DbSnapshot, MvccState};

/// Which data structure a [`DbBuilder`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Structure {
    /// Section 3's basic COLA: the g-COLA at growth factor 2 with no
    /// lookahead pointers ([`GCola::basic`]), so its levels are the
    /// paper's `2^k`-slot arrays and the pointer density is ignored. It
    /// keeps its own structure identity in a database's root, and a store
    /// in the basic COLA's retired format opens under it ([`legacy`]).
    BasicCola,
    /// Section 4's lookahead array with growth factor `g` (the paper's
    /// experimental structure; `g = 2` is the COLA of Lemma 20).
    GCola {
        /// Growth factor, at least 2.
        g: usize,
    },
    /// Section 3's deamortized COLA (Lemma 21, Theorem 22):
    /// [`GCola::deamortized`], the basic COLA with two extents per level
    /// and a budgeted mover, so no insert moves more than `O(log N)`
    /// cells. Its merges keep one version of a key, as the g-COLA's
    /// carries do.
    DeamortizedCola,
    /// The baseline B+-tree (4 KiB pages).
    BTree,
    /// The buffered repository tree.
    Brt,
    /// The shuttle tree with fanout parameter `c`.
    Shuttle {
        /// Fanout parameter, at least 2.
        c: usize,
    },
}

/// Where a [`DbBuilder`] puts the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backend {
    /// Plain heap memory (no instrumentation overhead).
    Mem,
    /// A file at the given path behind a bounded user-space page cache
    /// (see [`DbBuilder::cache_bytes`]); the out-of-core regime of the
    /// paper's experiments. The file is created (truncated) at build.
    /// With [`DbBuilder::shards`] > 1, shard `i` stores its partition in
    /// `<path>.shard<i>` and the cache budget is divided evenly. Those
    /// files are the whole store: shard 0's commit carries the database's
    /// root (see [`Db::sync`]), and no other file is written.
    ///
    /// Construct with [`Backend::file`] / [`Backend::file_direct`].
    File {
        /// Path of the backing file (the shard base path when sharded).
        path: PathBuf,
        /// Route aligned page traffic through `O_DIRECT`, bypassing the
        /// kernel page cache so counted transfers are real device
        /// transfers. Falls back to buffered I/O (with a one-time
        /// warning) on filesystems or platforms that refuse it; see
        /// [`cosbt_dam::DirectFile`].
        direct: bool,
    },
}

impl Backend {
    /// A buffered file backend at `path` — the default file mode, and
    /// exactly the pre-`direct` behavior.
    pub fn file(path: impl Into<PathBuf>) -> Backend {
        Backend::File {
            path: path.into(),
            direct: false,
        }
    }

    /// A file backend at `path` that requests `O_DIRECT` for aligned
    /// page I/O (buffered fallback where unsupported).
    pub fn file_direct(path: impl Into<PathBuf>) -> Backend {
        Backend::File {
            path: path.into(),
            direct: true,
        }
    }
}

/// A serializable summary of a database configuration: everything a
/// [`DbBuilder`] knows, as plain data. [`DbBuilder::config`] and
/// [`Db::config`] report it; the benchmark harness records it in its
/// JSON artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct DbConfig {
    /// The data structure.
    pub structure: Structure,
    /// Lookahead-pointer density (g-COLA only; retained for others).
    pub pointer_density: f64,
    /// Shard count (1 = unsharded).
    pub shards: usize,
    /// Explicit shard boundaries, if any were configured or recovered.
    pub splitters: Option<Vec<u64>>,
    /// Page-cache budget in bytes (file backends).
    pub cache_bytes: usize,
    /// Metadata commit-slot capacity in bytes (file backends).
    pub meta_slot_bytes: usize,
    /// Storage backend, including the direct-I/O flag.
    pub backend: Backend,
}

impl DbConfig {
    /// Display label of the structure configuration ("4-COLA", "B-tree",
    /// "4-COLA ×4 shards", …), matching [`Db::label`].
    pub fn label(&self) -> String {
        let base = match self.structure {
            Structure::BasicCola => "basic-COLA".to_string(),
            Structure::GCola { g } => format!("{g}-COLA"),
            Structure::DeamortizedCola => "deamortized-COLA".to_string(),
            Structure::BTree => "B-tree".to_string(),
            Structure::Brt => "BRT".to_string(),
            Structure::Shuttle { c } => format!("shuttle({c})"),
        };
        if self.shards > 1 {
            format!("{base} ×{} shards", self.shards)
        } else {
            base
        }
    }

    /// Short backend tag: `mem`, `file`, or `file-direct`.
    pub fn backend_kind(&self) -> &'static str {
        match &self.backend {
            Backend::Mem => "mem",
            Backend::File { direct: false, .. } => "file",
            Backend::File { direct: true, .. } => "file-direct",
        }
    }
}

/// The supported structure × backend matrix, enumerated in every
/// [`BuildError::Unsupported`] message so a failed build names the valid
/// alternatives, not just the invalid request.
pub const VALID_COMBINATIONS: &str = "\
  BasicCola          × Mem | File
  GCola { g ≥ 2 }    × Mem | File  (pointer_density in [0, 1))
  DeamortizedCola    × Mem | File
  BTree              × Mem | File
  Brt                × Mem | File
  Shuttle { c ≥ 2 }  × Mem only
  modifiers: shards(n ≥ 1) with strictly increasing shard_splitters (n − 1 of them)";

/// Why a [`DbBuilder::build`] call failed.
#[derive(Debug)]
pub enum BuildError {
    /// The requested structure/modifier/backend combination does not
    /// exist (e.g. a 1-COLA, or a file-backed shuttle tree).
    /// The message enumerates the valid combinations.
    Unsupported(String),
    /// Creating the backing file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Unsupported(what) => write!(
                f,
                "unsupported configuration: {what}; valid combinations are:\n{VALID_COMBINATIONS}"
            ),
            BuildError::Io(e) => write!(f, "backend I/O error: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<std::io::Error> for BuildError {
    fn from(e: std::io::Error) -> Self {
        BuildError::Io(e)
    }
}

/// Why a [`DbBuilder::open`] call failed. Every variant is diagnosable
/// without reading the file yourself, and **no open path ever modifies
/// or unlinks an existing file** — a failed open leaves the store
/// byte-identical.
#[derive(Debug)]
pub enum OpenError {
    /// A required file (the data file, a shard file, or the shard
    /// manifest of a sharded store written before roots) does not exist.
    /// [`DbBuilder::open_or_create`] falls back to creation on this
    /// variant and only this variant.
    Missing(PathBuf),
    /// The storage layer rejected the file: wrong magic, unsupported
    /// on-disk format version, payload-kind mismatch, checksum failure,
    /// or a store that was created but never synced.
    Store {
        /// The offending file.
        path: PathBuf,
        /// The storage-layer diagnosis.
        source: cosbt_dam::OpenError,
    },
    /// The file was written with a different page size than this build
    /// uses.
    PageSizeMismatch {
        /// The offending file.
        path: PathBuf,
        /// Page size recorded in the file's superblock.
        found: usize,
        /// Page size the builder expected.
        expected: usize,
    },
    /// The file holds a different structure (or structure parameters)
    /// than the builder was configured for.
    StructureMismatch {
        /// The offending file.
        path: PathBuf,
        /// Human label of what the file holds.
        found: String,
        /// Human label of what the builder asked for.
        expected: String,
    },
    /// The database's root records a different shard count than the
    /// builder was configured for.
    ShardCountMismatch {
        /// Shard count recorded in the root.
        found: usize,
        /// Shard count the builder asked for.
        expected: usize,
    },
    /// The builder supplied explicit splitters that disagree with the
    /// root's (omit [`DbBuilder::shard_splitters`] to adopt the persisted
    /// routing).
    SplitterMismatch {
        /// Splitters recorded in the root.
        found: Vec<u64>,
        /// Splitters the builder supplied.
        expected: Vec<u64>,
    },
    /// A side file of a sharded store written before roots — its shard
    /// manifest or its cross-shard commit record — exists but fails
    /// validation ([`legacy::sidecar_root`]).
    ManifestCorrupt {
        /// The side file.
        path: PathBuf,
        /// What failed.
        why: String,
    },
    /// The store opened cleanly but the structure's control state did not
    /// decode.
    Meta {
        /// The offending file.
        path: PathBuf,
        /// The structure-layer diagnosis.
        source: MetaError,
    },
    /// The builder configuration itself is invalid (or names the memory
    /// backend, which has nothing to open).
    Unsupported(BuildError),
    /// An I/O error outside superblock validation.
    Io(io::Error),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Missing(p) => write!(f, "no store at {}", p.display()),
            OpenError::Store { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            OpenError::PageSizeMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: page size mismatch (file {found}, expected {expected})",
                path.display()
            ),
            OpenError::StructureMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: structure mismatch (file holds {found}, builder asked for {expected})",
                path.display()
            ),
            OpenError::ShardCountMismatch { found, expected } => write!(
                f,
                "shard count mismatch (root records {found}, builder asked for {expected})"
            ),
            OpenError::SplitterMismatch { found, expected } => write!(
                f,
                "splitter mismatch (root {found:?}, builder {expected:?})"
            ),
            OpenError::ManifestCorrupt { path, why } => {
                write!(f, "{}: corrupt side file: {why}", path.display())
            }
            OpenError::Meta { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            OpenError::Unsupported(e) => write!(f, "{e}"),
            OpenError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for OpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpenError::Store { source, .. } => Some(source),
            OpenError::Meta { source, .. } => Some(source),
            OpenError::Unsupported(e) => Some(e),
            OpenError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for OpenError {
    fn from(e: BuildError) -> Self {
        match e {
            BuildError::Io(io) => OpenError::Io(io),
            other => OpenError::Unsupported(other),
        }
    }
}

/// Builder for a [`Db`]; see the module docs for a walkthrough.
#[derive(Debug, Clone)]
pub struct DbBuilder {
    cfg: DbConfig,
}

impl Default for DbBuilder {
    fn default() -> Self {
        let cfg = DbConfig {
            structure: Structure::GCola { g: 4 },
            backend: Backend::Mem,
            cache_bytes: 16 * 1024 * 1024,
            meta_slot_bytes: DEFAULT_SLOT_BYTES,
            pointer_density: 0.1,
            shards: 1,
            splitters: None,
        };
        DbBuilder { cfg }
    }
}

impl DbBuilder {
    /// A builder with the paper's defaults: an in-memory 4-COLA with
    /// pointer density 0.1, a single shard, and (for file backends) a
    /// 16 MiB cache budget.
    pub fn new() -> DbBuilder {
        DbBuilder::default()
    }

    /// Selects the data structure.
    pub fn structure(mut self, s: Structure) -> DbBuilder {
        self.cfg.structure = s;
        self
    }

    /// Selects the storage backend.
    pub fn backend(mut self, b: Backend) -> DbBuilder {
        self.cfg.backend = b;
        self
    }

    /// Memory budget of the user-space page cache for file backends
    /// (ignored by [`Backend::Mem`]). With multiple shards the budget is
    /// divided evenly across the per-shard caches; every cache is floored
    /// at 2 pages, and a sharded build fails if the budget cannot cover
    /// that floor (silently exceeding the budget would corrupt the
    /// transfer counts the out-of-core experiments measure).
    pub fn cache_bytes(mut self, bytes: usize) -> DbBuilder {
        self.cfg.cache_bytes = bytes;
        self
    }

    /// Capacity of each shard file's metadata commit slot (default
    /// 256 KiB; file backends only, fixed at creation). The slot holds
    /// the committed page table (4 bytes per page) plus the structure's
    /// control state, so it caps a shard at roughly
    /// `bytes / 4 × page_size` of data — 256 KiB ⇒ ~256 MiB per shard at
    /// 4 KiB pages. Past the cap, `sync` fails with `InvalidInput` on
    /// every call (loudly — the store itself keeps working, but commits
    /// no longer fit). Size this for the data a store must grow to; it
    /// is ignored by [`DbBuilder::open`], which reads the capacity from
    /// the superblock, and [`Db::config`] reports that.
    pub fn meta_slot_bytes(mut self, bytes: usize) -> DbBuilder {
        self.cfg.meta_slot_bytes = bytes;
        self
    }

    /// Lookahead-pointer density for [`Structure::GCola`] (default 0.1,
    /// as in the paper's experiments; 0 disables the pointers).
    pub fn pointer_density(mut self, p: f64) -> DbBuilder {
        self.cfg.pointer_density = p;
        self
    }

    /// Range-partitions the keyspace across `n` independent instances of
    /// the configured structure (default 1 = unsharded). The keyspace is
    /// split evenly unless [`DbBuilder::shard_splitters`] overrides the
    /// boundaries; reads, writes, and cursors behave exactly as with one
    /// shard. A batch of at least [`crate::shard::PARALLEL_MIN_OPS`]
    /// operations that reaches more than one shard is applied on worker
    /// threads when the machine has more than one core.
    ///
    /// ```
    /// use cosbt::{DbBuilder, Structure};
    ///
    /// let mut db = DbBuilder::new()
    ///     .structure(Structure::GCola { g: 4 })
    ///     .shards(4)
    ///     .build()
    ///     .unwrap();
    /// // Keys land in different quadrants of the u64 space → different
    /// // shards, but the view is one dictionary.
    /// db.insert_batch(&[(1, 10), (1 << 62, 20), (u64::MAX, 30)]);
    /// assert_eq!(db.range(0, u64::MAX).len(), 3);
    /// ```
    pub fn shards(mut self, n: usize) -> DbBuilder {
        self.cfg.shards = n;
        self
    }

    /// Custom shard boundaries: strictly increasing, exactly
    /// `shards − 1` of them; shard `i` owns keys in
    /// `[splitters[i-1], splitters[i])`. Use when the key distribution is
    /// skewed and even splitting would leave shards idle.
    pub fn shard_splitters(mut self, splitters: Vec<u64>) -> DbBuilder {
        self.cfg.splitters = Some(splitters);
        self
    }

    /// Validates the configuration (structure parameters, modifiers,
    /// shard layout) without touching any backend. Shared by
    /// [`DbBuilder::build`] and [`DbBuilder::open`].
    fn validate(&self) -> Result<(), BuildError> {
        let label = self.label();
        let unsupported = |what: &str| BuildError::Unsupported(format!("{what} ({label})"));

        if let Structure::GCola { g } = self.cfg.structure {
            if g < 2 {
                return Err(unsupported("growth factor must be at least 2"));
            }
            if !(0.0..1.0).contains(&self.cfg.pointer_density) {
                return Err(unsupported("pointer density must be in [0, 1)"));
            }
        }
        if let Structure::Shuttle { c } = self.cfg.structure {
            if c < 2 {
                return Err(unsupported("fanout parameter must be at least 2"));
            }
            if self.cfg.backend != Backend::Mem {
                return Err(unsupported(
                    "the shuttle tree is in-memory only (its file layout is measured \
                     through LayoutImage, not served from disk)",
                ));
            }
        }
        if self.cfg.shards == 0 {
            return Err(unsupported("shard count must be at least 1"));
        }
        if self.cfg.meta_slot_bytes < 4096 {
            return Err(unsupported("metadata slot capacity must be at least 4 KiB"));
        }
        if let Some(splitters) = &self.cfg.splitters {
            if splitters.len() != self.cfg.shards - 1 {
                return Err(unsupported(
                    "shard_splitters must supply exactly shards − 1 boundaries",
                ));
            }
            if !splitters.windows(2).all(|w| w[0] < w[1]) {
                return Err(unsupported("shard_splitters must be strictly increasing"));
            }
        }
        if self.cfg.shards > 1
            && matches!(self.cfg.backend, Backend::File { .. })
            && self.cfg.cache_bytes / self.cfg.shards < 2 * DEFAULT_PAGE_SIZE
        {
            // Each shard's cache is floored at 2 pages; flooring past the
            // configured budget would silently enlarge the effective
            // cache and distort measured transfer counts.
            return Err(unsupported(
                "cache budget too small: each shard's page cache needs at least 2 pages",
            ));
        }
        Ok(())
    }

    /// Instantiates the configured dictionary, creating (truncating) the
    /// backing files for file backends. A freshly built file-backed
    /// database is committed immediately, so it can be reopened with
    /// [`DbBuilder::open`] even before the first explicit
    /// [`Db::sync`].
    pub fn build(self) -> Result<Db, BuildError> {
        self.validate()?;
        // `Err` holds how many shard files the build had created.
        let built = (|| {
            let (mut shards, mut ios) = (Vec::with_capacity(self.cfg.shards), Vec::new());
            for i in 0..self.cfg.shards {
                let (shard, io) = self.shard(i, Origin::Create).map_err(|e| (i + 1, e))?;
                shards.push(shard);
                ios.extend(io);
            }
            let fresh = Found {
                root: self.root(),
                sidecars: Vec::new(),
                config: self.config(),
            };
            // Make a fresh file-backed database immediately reopenable:
            // commit its empty state and root.
            let mut db = self.assemble(shards, ios, fresh);
            db.sync().map_err(|e| (self.cfg.shards, OpenError::Io(e)))?;
            Ok(db)
        })();
        built.map_err(|(made, e)| {
            // A failed build must not leave the (truncated) files it
            // created behind: the stores built so far are released, then
            // those files unlinked, best-effort. (`validate` refused every
            // configuration error before any file was touched.)
            for p in self.data_paths().into_iter().take(made) {
                let _ = std::fs::remove_file(p);
            }
            match e {
                OpenError::Io(e) => BuildError::Io(e),
                e => BuildError::Unsupported(e.to_string()),
            }
        })
    }

    /// Opens an existing file-backed database previously created (and
    /// synced) with this configuration. The builder must be configured
    /// with the same structure and shard count the store's root records —
    /// every mismatch is a distinct typed [`OpenError`] — and the open
    /// path **never modifies or unlinks** the files it inspects.
    ///
    /// Shard 0 is opened at its newest commit, whose root names the epoch
    /// every other shard committed with it; each of them is rolled back to
    /// that epoch, so a crash between two shards' commits opens as the
    /// last whole commit. Omitting [`DbBuilder::shard_splitters`] adopts
    /// the recorded routing. A store written before roots existed opens
    /// too: an unsharded one is its own root, and a sharded one is read
    /// through its side files ([`legacy::sidecar_root`]). The
    /// lookahead-pointer density of a g-COLA and the metadata slot
    /// capacity are restored from the files; the cache budget is a
    /// runtime knob and may differ per open.
    ///
    /// ```no_run
    /// use cosbt::{Backend, DbBuilder, Structure};
    ///
    /// let builder = DbBuilder::new()
    ///     .structure(Structure::GCola { g: 4 })
    ///     .backend(Backend::file("index.db"));
    /// let mut db = builder.clone().build().unwrap();
    /// db.insert(7, 70);
    /// db.sync().unwrap();
    /// drop(db);
    /// let mut db = builder.open().unwrap();
    /// assert_eq!(db.get(7), Some(70));
    /// ```
    pub fn open(self) -> Result<Db, OpenError> {
        self.validate().map_err(OpenError::from)?;
        if self.cfg.backend == Backend::Mem {
            return Err(OpenError::Unsupported(BuildError::Unsupported(format!(
                "nothing to open for the memory backend ({})",
                self.label()
            ))));
        }
        let mut found = Found {
            root: Root::default(),
            sidecars: Vec::new(),
            config: self.config(),
        };
        let (shard, io) = self.shard(0, Origin::Root(&mut found))?;
        let (mut shards, mut ios) = (vec![shard], Vec::from_iter(io));
        for (i, &epoch) in found.root.epochs.iter().enumerate() {
            let (shard, io) = self.shard(i + 1, Origin::Open(epoch))?;
            shards.push(shard);
            ios.extend(io);
        }
        Ok(self.assemble(shards, ios, found))
    }

    /// Wraps built or opened shards (and their stores, in shard order)
    /// into a [`Db`] routing by the root's splitters.
    fn assemble(&self, shards: Vec<Shard>, ios: Vec<StoreHandle>, found: Found) -> Db {
        let mut db = Db {
            router: ShardRouter::new(shards, found.root.splitters.clone()),
            ios,
            label: self.label(),
            dirty: false,
            root: found.root,
            sidecars: found.sidecars,
            mvcc: MvccState::new(),
            config: found.config,
        };
        db.install_reclaim_gates();
        db
    }

    /// [`DbBuilder::open`] if the store exists, [`DbBuilder::build`]
    /// otherwise. Only a genuinely missing store — **no** backing file
    /// of this configuration present at all — falls back to creation; a
    /// present-but-invalid store, and equally a *partially* missing one
    /// (a lost shard file next to intact ones), surfaces its open error
    /// untouched. `build` truncates every backing file, so
    /// re-creating over remnants would destroy data an operator may
    /// want to inspect or repair.
    pub fn open_or_create(self) -> Result<Db, OpenError> {
        match self.clone().open() {
            Err(err @ OpenError::Missing(_)) => {
                if self.data_paths().iter().any(|p| p.exists()) {
                    return Err(err);
                }
                self.build().map_err(OpenError::from)
            }
            other => other,
        }
    }

    /// The structure identity `(tag, parameter)` a root records for this
    /// configuration: the meta tag of the structure it names, and its
    /// growth factor or fanout (0 if none).
    fn structure_identity(&self) -> (u8, u64) {
        match self.cfg.structure {
            Structure::BasicCola => (TAG_BASIC_COLA, 0),
            Structure::GCola { g } => (TAG_GCOLA, g as u64),
            Structure::DeamortizedCola => (TAG_DEAMORT_BASIC, 0),
            Structure::BTree => (TAG_BTREE, 0),
            Structure::Brt => (TAG_BRT, 0),
            Structure::Shuttle { c } => (cosbt_core::persist::TAG_SHUTTLE, c as u64),
        }
    }

    /// The meta tag this configuration's engine writes (not its structure
    /// identity), and the engine it is when [`legacy`] rebuilds retired
    /// formats into it.
    fn engine(&self) -> (u8, Option<Heir>) {
        match self.cfg.structure {
            Structure::BasicCola => (TAG_GCOLA, Some(Heir::BasicCola)),
            Structure::DeamortizedCola => (TAG_DEAMORT_BASIC, Some(Heir::DeamortizedCola)),
            _ => (self.structure_identity().0, None),
        }
    }

    /// The root of a fresh database of this configuration.
    fn root(&self) -> Root {
        let even = || even_splitters(self.cfg.shards);
        Root {
            structure: self.structure_identity(),
            splitters: self.cfg.splitters.clone().unwrap_or_else(even),
            epochs: Vec::new(),
        }
    }

    /// Refuses a root, found in shard 0's file at `path`, that records
    /// another shard count or structure than this configuration, or other
    /// splitters than it states.
    fn check_root(&self, path: &Path, root: &Root) -> Result<(), OpenError> {
        if root.shards() != self.cfg.shards {
            return Err(OpenError::ShardCountMismatch {
                found: root.shards(),
                expected: self.cfg.shards,
            });
        }
        let (tag, param) = root.structure;
        if (tag, param) != self.structure_identity() {
            return Err(OpenError::StructureMismatch {
                path: path.to_path_buf(),
                found: format!("{} (parameter {param})", tag_name(tag)),
                expected: self.label(),
            });
        }
        match &self.cfg.splitters {
            Some(requested) if *requested != root.splitters => Err(OpenError::SplitterMismatch {
                found: root.splitters.clone(),
                expected: requested.clone(),
            }),
            _ => Ok(()),
        }
    }

    /// The root of a sharded store written before shard 0 carried one,
    /// from the two side files it kept at `<base>.manifest` and
    /// `<base>.commit`, with shard 0's recorded epoch and the files.
    fn sidecar_root(&self, base: &Path) -> Result<(Root, u64, Vec<PathBuf>), OpenError> {
        let paths = [".manifest", ".commit"].map(|side| sibling_path(base, side));
        let read = |i: usize| {
            std::fs::read(&paths[i]).map_err(|e| match (e.kind(), i) {
                (io::ErrorKind::NotFound, 0) => OpenError::Missing(paths[0].clone()),
                (io::ErrorKind::NotFound, _) => OpenError::Store {
                    path: paths[1].clone(),
                    source: cosbt_dam::OpenError::NeverCommitted,
                },
                _ => OpenError::Io(e),
            })
        };
        let (root, epoch) = legacy::sidecar_root(&read(0)?, &read(1)?).map_err(|(i, why)| {
            let path = paths[i].clone();
            OpenError::ManifestCorrupt { path, why }
        })?;
        Ok((root, epoch, paths.to_vec()))
    }

    /// Frames in each shard's page cache: an even share of the budget,
    /// floored at 2 pages.
    fn cache_pages(&self) -> usize {
        (self.cfg.cache_bytes / self.cfg.shards / DEFAULT_PAGE_SIZE).max(2)
    }

    /// Refuses a store written with another page size, or whose committed
    /// meta names neither the engine this configuration runs nor a
    /// retired format [`legacy`] rebuilds into it.
    fn check_store(&self, path: &Path, page_size: usize, meta: &[u8]) -> Result<(), OpenError> {
        if page_size != DEFAULT_PAGE_SIZE {
            return Err(OpenError::PageSizeMismatch {
                path: path.to_path_buf(),
                found: page_size,
                expected: DEFAULT_PAGE_SIZE,
            });
        }
        let (writes, heir) = self.engine();
        match peek_tag(meta) {
            Some(tag) if tag == writes || heir.is_some_and(|h| legacy::heir(tag) == Some(h)) => {
                Ok(())
            }
            Some(tag) => Err(OpenError::StructureMismatch {
                path: path.to_path_buf(),
                found: tag_name(tag).to_string(),
                expected: self.label(),
            }),
            None => Err(OpenError::Meta {
                path: path.to_path_buf(),
                source: MetaError::Truncated,
            }),
        }
    }

    /// The backing-file paths this configuration stores data in: the
    /// configured path itself when unsharded, `<path>.shard<i>` per shard
    /// otherwise; empty for the memory backend. They are the whole store
    /// (a sharded store written before roots also has the two side files
    /// [`legacy::sidecar_root`] reads, until its first sync removes
    /// them). This is the one source of the file naming convention —
    /// harnesses that own the files' lifecycle (e.g. the bench CLI's
    /// delete-after-run) should unlink exactly this list rather than
    /// re-deriving names.
    pub fn data_paths(&self) -> Vec<PathBuf> {
        match &self.cfg.backend {
            Backend::Mem => Vec::new(),
            Backend::File { path: base, .. } => (0..self.cfg.shards)
                .map(|i| self.shard_file_path(base, i))
                .collect(),
        }
    }

    /// Data-file path of shard `idx`: the configured path itself when
    /// unsharded, `<path>.shard<idx>` otherwise.
    fn shard_file_path(&self, base: &std::path::Path, idx: usize) -> PathBuf {
        if self.cfg.shards == 1 {
            base.to_path_buf()
        } else {
            sibling_path(base, &format!(".shard{idx}"))
        }
    }

    /// Shard `idx` of [`DbBuilder::shards`] (the whole dictionary when
    /// unsharded): its structure and, file-backed, the store it runs
    /// over. A file-backed shard is made in three steps: the device (the
    /// file, created or opened), the store on it (created, or opened as
    /// `origin` says and checked, see [`DbBuilder::store`]), and the
    /// structure (fresh, or rebuilt from the store's committed meta).
    fn shard(&self, idx: usize, origin: Origin) -> Result<(Shard, Option<StoreHandle>), OpenError> {
        let Backend::File { path: base, direct } = &self.cfg.backend else {
            let shard: Shard = match self.cfg.structure {
                Structure::BTree => Box::new(BTree::new_plain()),
                Structure::Brt => Box::new(Brt::new_plain()),
                Structure::Shuttle { c } => Box::new(ShuttleTree::new(c)),
                _ => self.cola_shard(PlainMem::new(), None, Path::new(""))?,
            };
            return Ok((shard, None));
        };
        let path = self.shard_file_path(base, idx);
        let (cache_pages, slot_bytes) = (self.cache_pages(), self.cfg.meta_slot_bytes);
        let meta_err = |source| OpenError::Meta {
            path: path.clone(),
            source,
        };
        if let Structure::BTree | Structure::Brt = self.cfg.structure {
            let (store, meta) = self.store(
                (base, *direct),
                &path,
                origin,
                |dev| FilePages::create_on_sized(dev, DEFAULT_PAGE_SIZE, cache_pages, slot_bytes),
                |dev, max| FilePages::open_bounded(dev, cache_pages, (KIND_PAGES, 0), max),
            )?;
            let store = ArcFilePages::new(store);
            let shard: Shard = match (self.cfg.structure, meta) {
                (Structure::BTree, None) => Box::new(BTree::new(store.clone())),
                (Structure::BTree, Some(meta)) => {
                    Box::new(BTree::from_parts(store.clone(), &meta).map_err(meta_err)?)
                }
                (_, None) => Box::new(Brt::new(store.clone())),
                (_, Some(meta)) => {
                    Box::new(Brt::from_parts(store.clone(), &meta).map_err(meta_err)?)
                }
            };
            return Ok((shard, Some(store.erased())));
        }
        // A COLA (`validate` keeps the shuttle tree off files), over
        // 32-byte modeled elements, as in the paper.
        let (store, meta) = self.store(
            (base, *direct),
            &path,
            origin,
            |dev| FileMem::create_on_sized(dev, DEFAULT_PAGE_SIZE, cache_pages, 32, slot_bytes),
            |dev, max| FileMem::<Cell, DirectFile>::open_bounded(dev, cache_pages, 32, max),
        )?;
        let mem = ArcFileMem::new(store);
        let shard = self.cola_shard(mem.clone(), meta.as_deref(), &path)?;
        Ok((shard, Some(mem.erased())))
    }

    /// The store in the shard file at `path` of the database at `base`
    /// (`O_DIRECT` if `direct`): made by `create`, or by `open` (a store's
    /// `open_bounded`) at the commit `origin` names and checked, with the
    /// meta of the structure on it. Shard 0 opens at its newest commit
    /// and its root is split off. Bare meta there is its own root if the
    /// database is unsharded; else the store predates roots, and its side
    /// files hold the root and pin shard 0's epoch.
    fn store<S: Store<Dev = DirectFile>>(
        &self,
        (base, direct): (&Path, bool),
        path: &Path,
        origin: Origin,
        create: impl FnOnce(DirectFile) -> io::Result<S>,
        open: impl Fn(DirectFile, Option<u64>) -> Result<(S, Vec<u8>), cosbt_dam::OpenError>,
    ) -> Result<(S, Option<Vec<u8>>), OpenError> {
        let open = |max_epoch| {
            let dev = DirectFile::open(path, direct).map_err(cosbt_dam::OpenError::Io);
            dev.and_then(|dev| open(dev, max_epoch))
                .map_err(|e| match e {
                    e if e.is_missing() => OpenError::Missing(path.to_path_buf()),
                    source => OpenError::Store {
                        path: path.to_path_buf(),
                        source,
                    },
                })
        };
        let (mut store, meta) = match origin {
            Origin::Create => {
                let dev = DirectFile::create(path, direct).map_err(OpenError::Io)?;
                return Ok((create(dev).map_err(OpenError::Io)?, None));
            }
            Origin::Open(epoch) => open(Some(epoch))?,
            Origin::Root(found) => {
                let (store, meta) = open(None)?;
                let meta_err = |source| OpenError::Meta {
                    path: path.to_path_buf(),
                    source,
                };
                let (mut store, meta) = match Root::split(&meta).map_err(meta_err)? {
                    Some((root, shard0)) => {
                        found.root = root;
                        (store, shard0.to_vec())
                    }
                    None if self.cfg.shards == 1 => {
                        found.root = self.root();
                        (store, meta)
                    }
                    None => {
                        let (root, epoch, sidecars) = self.sidecar_root(base)?;
                        (found.root, found.sidecars) = (root, sidecars);
                        drop(store);
                        open(Some(epoch))?
                    }
                };
                self.check_root(path, &found.root)?;
                // The recorded routing and slot capacity are authoritative,
                // so `Db::config()` reports them even where the builder
                // left them out or stated another capacity.
                found.config.splitters = Some(found.root.splitters.clone());
                found.config.meta_slot_bytes = store.pages().slot_bytes();
                (store, meta)
            }
        };
        self.check_store(path, store.pages().page_size(), &meta)?;
        Ok((store, Some(meta)))
    }

    /// The COLA shard this configuration keeps in `mem`: a fresh one, or,
    /// given the meta committed in the file at `path`, the one the meta
    /// describes. The basic COLA is [`GCola::basic`]: it reopens a
    /// g-COLA of growth factor 2 and pointer density 0, and the
    /// deamortized COLA one whose merges run on a budget
    /// ([`GCola::deamortized`]). A g-COLA reopens
    /// with the growth factor asked for. A store in a retired format is
    /// asked of [`legacy`] first, and its live entries are bulk-loaded
    /// into a fresh engine of the configured kind: a fresh shard is the
    /// bulk load of nothing.
    fn cola_shard<M: Mem<Cell> + Send + Sync + 'static>(
        &self,
        mem: M,
        meta: Option<&[u8]>,
        path: &Path,
    ) -> Result<Shard, OpenError> {
        let meta_err = |source| OpenError::Meta {
            path: path.to_path_buf(),
            source,
        };
        // `Ok` holds the entries to bulk-load, `Err` the meta to reopen.
        let load = match meta {
            None => Ok(Vec::new()),
            Some(meta) => legacy::live_entries(&mem, meta)
                .map_err(meta_err)?
                .ok_or(meta),
        };
        let cola = match (self.cfg.structure, load) {
            (Structure::DeamortizedCola, Ok(live)) => GCola::deamortized_bulk_load(mem, &live),
            (Structure::GCola { g }, Ok(live)) => {
                GCola::bulk_load(mem, g, self.cfg.pointer_density, &live)
            }
            (_, Ok(live)) => GCola::bulk_load(mem, 2, 0.0, &live),
            (_, Err(meta)) => GCola::from_parts(mem, meta).map_err(meta_err)?,
        };
        let (g, p) = (cola.growth(), cola.pointer_density());
        let fits = match self.cfg.structure {
            Structure::GCola { g: want } => g == want,
            _ => (g, p) == (2, 0.0),
        };
        if !fits {
            return Err(OpenError::StructureMismatch {
                path: path.to_path_buf(),
                found: format!("{g}-COLA, pointer density {p}"),
                expected: self.label(),
            });
        }
        Ok(Box::new(cola))
    }

    /// Enumerates every supported structure of the configuration matrix
    /// (see [`VALID_COMBINATIONS`]) over the memory backend, crossed with
    /// the given shard counts. This is the **one** list of valid
    /// configurations shared by the conformance battery and the benchmark
    /// harness, so a structure added to the builder is automatically
    /// tested and benchmarkable; callers that want the out-of-core regime
    /// override the backend per cell (the shuttle tree is memory-only and
    /// must be skipped or left on [`Backend::Mem`]).
    ///
    /// Every returned builder is valid: `build()` succeeds.
    ///
    /// ```
    /// use cosbt::DbBuilder;
    ///
    /// for b in DbBuilder::matrix(&[1, 4]) {
    ///     b.build().expect("every matrix cell builds");
    /// }
    /// ```
    pub fn matrix(shard_counts: &[usize]) -> Vec<DbBuilder> {
        let structures = [
            Structure::BasicCola,
            Structure::DeamortizedCola,
            Structure::GCola { g: 2 },
            Structure::GCola { g: 4 },
            Structure::GCola { g: 8 },
            Structure::BTree,
            Structure::Brt,
            Structure::Shuttle { c: 4 },
        ];
        let shard_counts = shard_counts.iter().filter(|&&n| n > 0);
        structures
            .iter()
            .flat_map(|&s| {
                let b = DbBuilder::new().structure(s);
                shard_counts.clone().map(move |&n| b.clone().shards(n))
            })
            .collect()
    }

    /// The builder's configuration as plain serializable data.
    pub fn config(&self) -> DbConfig {
        self.cfg.clone()
    }

    /// Display label of the configured structure ("4-COLA", "B-tree",
    /// "4-COLA ×4 shards", …).
    pub fn label(&self) -> String {
        self.cfg.label()
    }
}

/// The store of one file-backed shard, kind erased: what the facade
/// counts, commits and drops the cache of.
type StoreHandle = SharedStore<DirectFile>;

/// Where [`DbBuilder::shard`] gets a file-backed shard's store.
enum Origin<'a> {
    /// A new file, truncated if one was there.
    Create,
    /// Shard 0 of an existing store: what it says of the database goes
    /// to `found`.
    Root(&'a mut Found),
    /// A shard past 0 of an existing store, at the epoch the root
    /// recorded for it.
    Open(u64),
}

/// What a database is beyond its shards: its root, the side files a
/// store older than roots kept it in, and its configuration. `build`
/// states it; `open` finds it in shard 0.
struct Found {
    root: Root,
    sidecars: Vec<PathBuf>,
    config: DbConfig,
}

/// The one I/O-statistics surface of a [`Db`]: a cheap, cloneable
/// handle over every shard's counters, obtained from [`Db::io`].
///
/// Counters aggregate (sum fieldwise) across shards. The handle reads
/// lock-free atomics, so it is usable from any thread while the
/// database itself is mutably borrowed — a probe racing a concurrent
/// writer can neither drop nor double-count a transfer, and cannot be
/// starved by a writer mid-merge. For memory backends the handle is
/// empty and every counter reads zero.
#[derive(Clone)]
pub struct IoHandle {
    handles: Vec<StoreHandle>,
}

impl IoHandle {
    /// Current counters, summed across shards.
    pub fn snapshot(&self) -> IoStats {
        self.handles.iter().map(|h| h.stats()).sum()
    }

    /// Returns the counters accumulated so far (summed across shards)
    /// and resets them — one call closes a measurement phase and opens
    /// the next. Each shard's swap is atomic, so no access is lost at
    /// the boundary even while worker threads are mid-batch.
    pub fn take(&self) -> IoStats {
        self.handles.iter().map(|h| h.take_stats()).sum()
    }

    /// Resets the counters of every shard (lock-free).
    pub fn reset(&self) {
        for h in &self.handles {
            h.reset_stats();
        }
    }
}

impl std::fmt::Debug for IoHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoHandle")
            .field("shards", &self.handles.len())
            .field("stats", &self.snapshot())
            .finish()
    }
}

/// A dictionary built by [`DbBuilder`]: any of the six structures behind
/// the one [`Dictionary`] interface — optionally range-partitioned across
/// shards — with uniform access to the backing stores' I/O counters and
/// cache control when file-backed.
///
/// `Db` is [`Send`], so a whole database (sharded or not) can move to a
/// worker thread.
///
/// File-backed databases are **durable**: [`Db::sync`] commits the
/// current state crash-safely (see `cosbt_dam::file`), dropping the
/// handle syncs best-effort, and [`DbBuilder::open`] reconstructs the
/// database from the files later.
///
/// ```
/// use cosbt::{DbBuilder, Structure};
///
/// let mut db = DbBuilder::new()
///     .structure(Structure::BTree)
///     .build()
///     .unwrap();
/// db.insert(7, 70);
/// assert_eq!(db.get(7), Some(70));
/// assert_eq!(db.label(), "B-tree");
/// ```
pub struct Db {
    /// The shards and their routing; an unsharded `Db` is one shard.
    router: ShardRouter,
    /// One handle per file-backed shard, in shard order; empty for
    /// memory backends.
    ios: Vec<StoreHandle>,
    label: String,
    /// Whether the dictionary may have changed since the last commit;
    /// gates the best-effort sync-on-drop so a read-only session never
    /// rewrites metadata.
    dirty: bool,
    /// The root shard 0 commits: the structure identity and routing, and
    /// the other shards' epochs as of the last [`Db::sync`].
    root: Root,
    /// The side files a store older than roots was opened through: the
    /// first [`Db::sync`] unlinks them once the root is committed.
    sidecars: Vec<PathBuf>,
    /// Epoch/snapshot machinery (see [`crate::snapshot`]). Lazy: until
    /// the first [`Db::snapshot`] call it mirrors nothing and costs one
    /// branch per write.
    mvcc: MvccState,
    /// The configuration this database was built/opened with (see
    /// [`Db::config`]).
    config: DbConfig,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("label", &self.label)
            .field("file_backed", &!self.ios.is_empty())
            .finish()
    }
}

impl Db {
    /// Display label of the structure configuration ("4-COLA", …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Inserts or overwrites `key`.
    pub fn insert(&mut self, key: u64, val: u64) {
        self.dirty = true;
        self.mvcc.record(key, Some(val));
        self.router.insert(key, val)
    }

    /// Deletes `key`.
    pub fn delete(&mut self, key: u64) {
        self.dirty = true;
        self.mvcc.record(key, None);
        self.router.delete(key)
    }

    /// Looks up `key`.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.router.get(key)
    }

    /// A streaming cursor over live entries in `[lo, hi]`.
    pub fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_> {
        self.router.cursor(lo, hi)
    }

    /// All live entries in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.router.range(lo, hi)
    }

    /// Applies and drains a batch of updates.
    pub fn apply(&mut self, batch: &mut UpdateBatch) {
        self.dirty = true;
        // Record before `apply` drains the batch.
        self.mvcc.record_ops(batch.ops());
        self.router.apply(batch)
    }

    /// Inserts a key-sorted run of pairs in one batched pass.
    pub fn insert_batch(&mut self, sorted: &[(u64, u64)]) {
        self.dirty = true;
        self.mvcc.record_inserts(sorted);
        self.router.insert_batch(sorted)
    }

    /// Number of physically stored entries, summed across shards: what a
    /// store holds, not what it answers. The log-structured structures
    /// count the shadowed versions and tombstones they still keep — the
    /// g-COLA (the basic and deamortized COLAs included) at most one
    /// version per key and level, since its merges drop the rest.
    pub fn physical_len(&self) -> usize {
        self.router.physical_len()
    }

    /// Commits the current state durably (a no-op returning `Ok` for
    /// memory backends). For every file-backed shard this serializes the
    /// structure's control state ([`cosbt_core::Persist`]) and runs the
    /// store's shadow commit: data pages, then metadata, each behind a
    /// durability barrier — a crash at any point leaves either the
    /// previous or the new committed state of that store, never a
    /// mixture. Shards `n − 1 … 1` commit first; shard 0 commits last,
    /// with the database's root in front of its own meta, and the root
    /// records the epoch each other shard just committed. Shard 0's slot
    /// write is the one commit point of the database: a crash before it
    /// leaves the previous root, and [`DbBuilder::open`] rolls every other
    /// shard back to the epoch that root records, so the previous whole
    /// state is recovered. I/O errors propagate; nothing is swallowed —
    /// and if shard 0's commit itself fails repeatedly while the other
    /// shards' commits keep advancing, the root can fall more than one
    /// epoch behind a shard, and the next open reports it stale
    /// (`Corrupt`) instead of guessing.
    ///
    /// Dropping a file-backed `Db` syncs best-effort (errors reported
    /// to stderr but not propagated, skipped entirely if nothing changed
    /// since the last commit); call `sync` explicitly where durability
    /// failures must be handled.
    ///
    /// The snapshot overlay takes no part in a commit: it lives only in
    /// memory, and [`Db::snapshot`] finishes its compactions before it
    /// returns, so none is in flight here.
    pub fn sync(&mut self) -> io::Result<()> {
        let shards = self.router.shards_mut();
        for (shard, io) in shards.iter_mut().zip(&self.ios).skip(1).rev() {
            io.commit_meta(&shard.save_meta())?;
        }
        if let (Some(shard), Some(io)) = (shards.first_mut(), self.ios.first()) {
            self.root.epochs = self.ios[1..].iter().map(StoreHandle::epoch).collect();
            io.commit_meta(&self.root.encode(&shard.save_meta()))?;
            // The root now stands for the store, and its side files are
            // never read again; one that cannot be unlinked is tried
            // again at the next sync.
            self.sidecars.retain(|p| std::fs::remove_file(p).is_err());
        }
        self.dirty = false;
        Ok(())
    }

    /// The single entry point to the backing stores' I/O counters: a
    /// cheap, cloneable [`IoHandle`] with
    /// [`snapshot`](IoHandle::snapshot) / [`take`](IoHandle::take) /
    /// [`reset`](IoHandle::reset). Counters aggregate (sum fieldwise)
    /// across shards; for memory backends the handle is empty and every
    /// counter reads zero. The handle stays valid while the database is mutably
    /// borrowed or driven from another thread.
    pub fn io(&self) -> IoHandle {
        IoHandle {
            handles: self.ios.clone(),
        }
    }

    /// Declares the in-memory state disposable: suppresses the
    /// best-effort sync-on-drop until the next mutation. For throwaway
    /// stores — benchmark scratch cells whose files are unlinked right
    /// after — where the final commit (which quiesces deamortized
    /// structures and fsyncs metadata) would be pure wasted I/O.
    /// Explicit [`Db::sync`] still works afterwards.
    pub fn discard_on_drop(&mut self) {
        self.dirty = false;
    }

    /// Empties every shard's user-space page cache — the paper's
    /// "remount" — so the next operations run cold (no-op for memory
    /// backends). Dirty pages are written back first, so I/O errors
    /// propagate.
    pub fn drop_cache(&self) -> io::Result<()> {
        for h in &self.ios {
            h.drop_cache()?;
        }
        Ok(())
    }

    /// An immutable, shareable snapshot of the current contents.
    ///
    /// The returned [`DbSnapshot`] is `Send + Sync + Clone`: hand clones
    /// to reader threads and they serve `get`/`range`/`cursor` against
    /// the pinned version without any lock, while this `Db` keeps
    /// writing and publishing newer epochs. Pinned versions also hold
    /// back on-disk page reclamation for file-backed stores, so a
    /// long-lived snapshot keeps its bytes addressable.
    ///
    /// The first call activates the overlay with a full scan (`O(N)`);
    /// subsequent calls publish only the writes since the previous
    /// snapshot. When the published stack holds more than 8 runs, the
    /// call also merges the oldest half into one run, on this thread,
    /// before it returns. A database that never calls `snapshot()` pays
    /// nothing — single-threaded transfer counts are byte-identical to
    /// builds without this subsystem.
    pub fn snapshot(&mut self) -> DbSnapshot {
        let store_epochs: std::sync::Arc<[u64]> = self.ios.iter().map(StoreHandle::epoch).collect();
        if self.mvcc.needs_seed() {
            let base = self.router.range(0, u64::MAX);
            self.mvcc.seed(base, store_epochs);
        } else {
            self.mvcc.publish_pending(store_epochs);
        }
        self.mvcc.maybe_compact();
        DbSnapshot::new(self.mvcc.mgr.pin())
    }

    /// A concurrent read handle: a [`DbReader`] that serves
    /// `get`/`range`/`cursor` lock-free against the newest *published*
    /// epoch, re-pinning whenever a newer one has been published. This
    /// is the documented read path for "many readers, one writer"
    /// deployments: hand one reader to each thread, keep writing through
    /// the `Db`, and call [`Db::snapshot`] (or `reader()` again) to
    /// publish batches of writes to the readers.
    ///
    /// Like [`Db::snapshot`], the call publishes all pending writes
    /// first (the first ever call seeds the overlay with a full scan).
    pub fn reader(&mut self) -> DbReader {
        let snap = self.snapshot();
        DbReader::new(self.mvcc.mgr.clone(), snap)
    }

    /// Counters of the epoch/snapshot subsystem (epochs published, runs
    /// retired/reclaimed, currently pinned snapshots).
    pub fn snapshot_stats(&self) -> EpochStats {
        self.mvcc.mgr.stats()
    }

    /// The configuration this database was built or opened with, as a
    /// serializable [`DbConfig`]; a reopened database reports the shard
    /// boundaries its root recorded and the metadata slot capacity of its
    /// files, whatever the builder stated.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Points every store's page reclamation at the epoch manager so
    /// retired pages are recycled only once no pinned snapshot can
    /// still need them.
    fn install_reclaim_gates(&mut self) {
        for (i, io) in self.ios.iter().enumerate() {
            io.set_reclaim_gate(self.mvcc.mgr.shard_gate(i));
        }
    }
}

impl Drop for Db {
    /// Best-effort sync-on-drop for file-backed databases, so a scope
    /// exit never silently loses a committed-state opportunity. A
    /// failure is reported to stderr (Drop cannot propagate) — call
    /// [`Db::sync`] explicitly where errors must be handled.
    ///
    /// Snapshots, readers and cursors share the epoch manager, not the
    /// `Db`: they keep answering from their pinned epochs after the drop.
    fn drop(&mut self) {
        // Never commit during a panic unwind: the panic may have left a
        // merge or split half-applied, and serializing that bookkeeping
        // would durably overwrite the last *good* epoch (quiescing an
        // inconsistent structure could also double-panic into an abort).
        if std::thread::panicking() {
            return;
        }
        if self.dirty && !self.ios.is_empty() {
            if let Err(e) = self.sync() {
                // Drop cannot propagate; a durability failure must still
                // be visible somewhere. Callers that need the error call
                // sync() themselves.
                eprintln!("cosbt: sync-on-drop of '{}' failed: {e}", self.label);
            }
        }
    }
}

impl Dictionary for Db {
    // Forward through the inherent methods so trait-dispatched writes
    // hit the dirty flag and the snapshot mirror exactly like direct
    // calls do.
    fn insert(&mut self, key: u64, val: u64) {
        Db::insert(self, key, val)
    }

    fn delete(&mut self, key: u64) {
        Db::delete(self, key)
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        Db::get(self, key)
    }

    fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_> {
        Db::cursor(self, lo, hi)
    }

    fn apply(&mut self, batch: &mut UpdateBatch) {
        Db::apply(self, batch)
    }

    fn insert_batch(&mut self, sorted: &[(u64, u64)]) {
        Db::insert_batch(self, sorted)
    }

    fn physical_len(&self) -> usize {
        self.router.physical_len()
    }

    fn name(&self) -> &'static str {
        self.router.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> cosbt_testkit::TempPath {
        cosbt_testkit::TempPath::new(&format!("db-{name}.dat"))
    }

    /// The shared matrix plus a few splitter variants with boundaries
    /// placed inside the small key range the tests exercise.
    fn all_mem_configs() -> Vec<DbBuilder> {
        let mut configs = DbBuilder::matrix(&[1]);
        configs.extend([
            DbBuilder::new()
                .structure(Structure::GCola { g: 4 })
                .shards(4)
                .shard_splitters(vec![100, 600, 1200]),
            DbBuilder::new()
                .structure(Structure::BTree)
                .shards(2)
                .shard_splitters(vec![500]),
            DbBuilder::new()
                .structure(Structure::Shuttle { c: 4 })
                .shards(3)
                .shard_splitters(vec![300, 900]),
        ]);
        configs
    }

    /// The side files a sharded store kept before roots, as a6b301c
    /// wrote them for a 3-shard 4-COLA split at 100 and 10,000 whose
    /// shards had all committed epoch 3: the manifest, then the commit
    /// record.
    const SIDECARS: [&[u8]; 2] = [
        &[
            67, 79, 83, 66, 84, 77, 65, 78, 1, 0, 0, 0, 3, 0, 0, 0, 2, 4, 0, 0, 0, 0, 0, 0, 0, 2,
            0, 0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 16, 39, 0, 0, 0, 0, 0, 0, 13, 55, 192, 254, 202, 61,
            197, 253,
        ],
        &[
            67, 79, 83, 66, 84, 67, 80, 84, 3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0,
            0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 143, 132, 57, 180, 144, 111, 119, 238,
        ],
    ];

    /// The side files decode into the root they held, and every
    /// truncation of either, or a flipped bit in any byte, is an error,
    /// never a panic. A root round-trips with the shard meta after it;
    /// every truncation inside it is an error, and no flipped bit panics
    /// (the slot framing, not the root, catches those).
    #[test]
    fn shard_records_decode_corruption_without_panicking() {
        let root = Root {
            structure: (TAG_GCOLA, 4),
            splitters: vec![100, 10_000],
            epochs: vec![3, 3],
        };
        let [manifest, commit] = SIDECARS;
        assert_eq!(
            legacy::sidecar_root(manifest, commit),
            Ok((root.clone(), 3))
        );
        for (file, buf) in SIDECARS.into_iter().enumerate() {
            let decode = |bad: &[u8]| match file {
                0 => legacy::sidecar_root(bad, commit),
                _ => legacy::sidecar_root(manifest, bad),
            };
            for len in 0..buf.len() {
                assert!(decode(&buf[..len]).is_err(), "file {file} cut to {len}");
            }
            for i in 0..buf.len() {
                let mut bad = buf.to_vec();
                bad[i] ^= 1 << (i % 8);
                assert!(decode(&bad).is_err(), "file {file} byte {i} flipped");
            }
        }

        let shard0 = [TAG_GCOLA, 1, 42];
        let buf = root.encode(&shard0);
        assert_eq!(Root::split(&buf), Ok(Some((root, &shard0[..]))));
        // An empty payload is bare (and no structure's meta).
        assert_eq!(Root::split(&[]), Ok(None));
        for len in 1..buf.len() - shard0.len() {
            assert!(Root::split(&buf[..len]).is_err(), "root cut to {len}");
        }
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 1 << (i % 8);
            let _ = Root::split(&bad);
        }
    }

    #[test]
    fn every_mem_config_builds_and_roundtrips() {
        for b in all_mem_configs() {
            let label = b.label();
            let mut db = b.build().unwrap();
            for k in 0..500u64 {
                db.insert(k * 3, k);
            }
            db.delete(0);
            assert_eq!(db.get(3), Some(1), "{label}");
            assert_eq!(db.get(0), None, "{label}");
            assert_eq!(db.range(3, 9).len(), 3, "{label}");
            let mut c = db.cursor(3, 9);
            assert_eq!(c.next(), Some((3, 1)), "{label}");
            assert_eq!(c.prev(), Some((3, 1)), "{label}");
        }
    }

    #[test]
    fn batches_through_the_facade() {
        for b in all_mem_configs() {
            let label = b.label();
            let mut db = b.build().unwrap();
            let mut batch = UpdateBatch::new();
            for k in 0..100u64 {
                batch.put(k, k + 1);
            }
            batch.delete(50);
            db.apply(&mut batch);
            assert!(batch.is_empty(), "{label}");
            assert_eq!(db.get(10), Some(11), "{label}");
            assert_eq!(db.get(50), None, "{label}");
            db.insert_batch(&[(200, 1), (201, 2), (202, 3)]);
            assert_eq!(db.get(201), Some(2), "{label}");
        }
    }

    #[test]
    fn file_backend_survives_cache_drop() {
        for s in [
            Structure::GCola { g: 4 },
            Structure::BasicCola,
            Structure::BTree,
            Structure::Brt,
        ] {
            let path = tmp(&format!("{s:?}").replace([' ', '{', '}', ':'], ""));
            let mut db = DbBuilder::new()
                .structure(s)
                .backend(Backend::file(path.to_path_buf()))
                .cache_bytes(64 * 1024)
                .build()
                .unwrap();
            for k in 0..2000u64 {
                db.insert(k, k + 7);
            }
            db.drop_cache().unwrap();
            assert_eq!(db.get(1500), Some(1507), "{}", db.label());
            assert!(db.io().snapshot().accesses > 0, "{}", db.label());
            drop(db);
        }
    }

    #[test]
    fn sharded_file_backend_aggregates_io() {
        let base = tmp("sharded");
        let mut db = DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .backend(Backend::file(base.to_path_buf()))
            .cache_bytes(256 * 1024)
            .shards(4)
            .shard_splitters(vec![500, 1000, 1500])
            .build()
            .unwrap();
        let run: Vec<(u64, u64)> = (0..2000u64).map(|k| (k, k + 7)).collect();
        db.insert_batch(&run);
        db.drop_cache().unwrap();
        let probe = db.io();
        let before = probe.snapshot();
        // One get per shard's partition → every shard's store is touched.
        for k in [100u64, 700, 1200, 1800] {
            assert_eq!(db.get(k), Some(k + 7));
        }
        let after = probe.snapshot();
        assert!(after.accesses > before.accesses);
        assert!(after.fetches > 0, "cold reads fetch from every shard");
        probe.reset();
        assert_eq!(db.io().snapshot().accesses, 0);
        drop(db);
        for i in 0..4 {
            let mut os = base.to_path_buf().into_os_string();
            os.push(format!(".shard{i}"));
            let shard_path = PathBuf::from(os);
            assert!(shard_path.exists(), "shard {i} has its own file");
        }
    }

    #[test]
    fn failed_sharded_build_removes_partial_files() {
        let base = tmp("cleanup");
        // A directory squatting on shard 1's path makes its creation fail
        // after shard 0's file was already created and truncated.
        let mut os = base.to_path_buf().into_os_string();
        os.push(".shard1");
        let blocker = PathBuf::from(os);
        std::fs::create_dir_all(&blocker).unwrap();
        let err = DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .backend(Backend::file(base.to_path_buf()))
            .shards(2)
            .build();
        assert!(matches!(err, Err(BuildError::Io(_))));
        let mut os = base.to_path_buf().into_os_string();
        os.push(".shard0");
        assert!(
            !PathBuf::from(os).exists(),
            "a failed build must not leave partial shard files behind"
        );
    }

    #[test]
    fn unsupported_file_build_preserves_preexisting_data() {
        // A misconfiguration error (shuttle × file) fails before the
        // backing file is ever opened — it must not delete a user's
        // pre-existing file at that path.
        let path = tmp("preexisting");
        std::fs::write(&path, b"precious bytes").unwrap();
        let err = DbBuilder::new()
            .structure(Structure::Shuttle { c: 4 })
            .backend(Backend::file(path.to_path_buf()))
            .build();
        assert!(matches!(err, Err(BuildError::Unsupported(_))));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"precious bytes",
            "an Unsupported build error must not unlink pre-existing data"
        );
    }

    #[test]
    fn data_paths_name_every_backing_file() {
        assert!(DbBuilder::new().data_paths().is_empty(), "mem: no files");
        let base = tmp("datapaths");
        let b = DbBuilder::new().backend(Backend::file(base.to_path_buf()));
        assert_eq!(
            b.data_paths(),
            vec![base.to_path_buf()],
            "unsharded: the path"
        );
        let b = b.shards(3);
        let paths = b.data_paths();
        assert_eq!(paths.len(), 3, "one file per shard, nothing beside");
        for (i, p) in paths.iter().enumerate() {
            assert!(
                p.to_string_lossy().ends_with(&format!(".shard{i}")),
                "{p:?}"
            );
        }
        // The advertised contract: building then unlinking data_paths
        // leaves nothing behind.
        let db = b.clone().build().unwrap();
        drop(db);
        for side in [".manifest", ".commit"] {
            assert!(!sibling_path(&base, side).exists(), "build wrote {side}");
        }
        for p in b.data_paths() {
            assert!(p.exists(), "{p:?} was created by build");
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn matrix_cells_all_build_and_cover_every_structure() {
        let cells = DbBuilder::matrix(&[1, 2, 4]);
        assert_eq!(cells.len(), 8 * 3);
        let labels: Vec<String> = cells.iter().map(|b| b.label()).collect();
        for b in cells {
            b.build().expect("every matrix cell must build");
        }
        for needle in [
            "basic-COLA",
            "deamortized-COLA",
            "2-COLA",
            "4-COLA",
            "8-COLA",
            "B-tree",
            "BRT",
            "shuttle(4)",
            "4-COLA ×4 shards",
        ] {
            assert!(
                labels.iter().any(|l| l == needle),
                "matrix misses {needle}: {labels:?}"
            );
        }
    }

    #[test]
    fn take_io_stats_closes_a_phase() {
        let path = tmp("takeio");
        let mut db = DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .backend(Backend::file(path.to_path_buf()))
            .cache_bytes(64 * 1024)
            .build()
            .unwrap();
        for k in 0..2000u64 {
            db.insert(k, k);
        }
        let prefill = db.io().take();
        assert!(prefill.accesses > 0);
        assert_eq!(db.io().snapshot(), IoStats::default());
        db.drop_cache().unwrap();
        let _ = db.io().take();
        for k in (0..2000u64).step_by(101) {
            assert_eq!(db.get(k), Some(k));
        }
        let run = db.io().take();
        assert!(run.fetches > 0, "cold search phase fetched");
        drop(db);
    }

    #[test]
    fn invalid_combinations_fail_clearly() {
        assert!(DbBuilder::new()
            .structure(Structure::GCola { g: 1 })
            .build()
            .is_err());
        assert!(DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .pointer_density(1.0)
            .build()
            .is_err());
        assert!(DbBuilder::new()
            .structure(Structure::Shuttle { c: 4 })
            .backend(Backend::file(tmp("shuttle").to_path_buf()))
            .build()
            .is_err());
        assert!(DbBuilder::new().shards(0).build().is_err());
        assert!(DbBuilder::new()
            .shards(3)
            .shard_splitters(vec![10]) // needs 2 boundaries
            .build()
            .is_err());
        assert!(DbBuilder::new()
            .shards(3)
            .shard_splitters(vec![20, 10]) // not increasing
            .build()
            .is_err());
        // A sharded file backend whose budget cannot cover every shard's
        // 2-page cache floor must fail instead of silently exceeding it.
        assert!(DbBuilder::new()
            .backend(Backend::file(tmp("tinycache").to_path_buf()))
            .shards(8)
            .cache_bytes(4 * 4096)
            .build()
            .is_err());
    }

    #[test]
    fn errors_enumerate_the_valid_matrix() {
        let err = DbBuilder::new()
            .structure(Structure::GCola { g: 1 })
            .build()
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("valid combinations are:"),
            "error should enumerate alternatives, got: {msg}"
        );
        // Every structure appears in the enumeration.
        for name in [
            "BasicCola",
            "GCola",
            "DeamortizedCola",
            "BTree",
            "Brt",
            "Shuttle",
        ] {
            assert!(msg.contains(name), "matrix should mention {name}: {msg}");
        }
        assert!(msg.contains("shards"), "matrix should mention sharding");
    }

    #[test]
    fn labels() {
        assert_eq!(
            DbBuilder::new()
                .structure(Structure::GCola { g: 2 })
                .label(),
            "2-COLA"
        );
        assert_eq!(
            DbBuilder::new()
                .structure(Structure::DeamortizedCola)
                .label(),
            "deamortized-COLA"
        );
        assert_eq!(
            DbBuilder::new().structure(Structure::BTree).label(),
            "B-tree"
        );
        assert_eq!(
            DbBuilder::new()
                .structure(Structure::GCola { g: 4 })
                .shards(4)
                .label(),
            "4-COLA ×4 shards"
        );
    }

    #[test]
    fn config_round_trips_through_builder() {
        let b = DbBuilder::new()
            .structure(Structure::GCola { g: 8 })
            .pointer_density(0.25)
            .shards(3)
            .shard_splitters(vec![100, 200])
            .cache_bytes(1 << 20)
            .backend(Backend::file_direct("scratch.db"));
        let cfg = b.config();
        assert_eq!(cfg.structure, Structure::GCola { g: 8 });
        assert_eq!(cfg.pointer_density, 0.25);
        assert_eq!((cfg.shards, &cfg.splitters), (3, &Some(vec![100, 200])));
        assert_eq!(cfg.cache_bytes, 1 << 20);
        assert_eq!(cfg.backend, Backend::file_direct("scratch.db"));
        assert_eq!(cfg.backend_kind(), "file-direct");
        assert_eq!(DbBuilder::new().config().backend_kind(), "mem");
        let file = DbBuilder::new().backend(Backend::file("scratch.db"));
        assert_eq!(file.config().backend_kind(), "file");
    }

    #[test]
    fn db_config_reflects_build_and_reopen() {
        let path = tmp("config-reflect");
        let builder = DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .backend(Backend::file(path.to_path_buf()))
            .cache_bytes(128 * 1024)
            .shards(2)
            .shard_splitters(vec![1000]);
        let mut db = builder.clone().build().unwrap();
        db.insert(1, 10);
        db.insert(2000, 20);
        let built_cfg = db.config().clone();
        assert_eq!(built_cfg, builder.config());
        db.sync().unwrap();
        drop(db);

        // Reopening without splitters recovers them from the root,
        // so the recorded config reproduces the layout exactly.
        let db = DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .backend(Backend::file(path.to_path_buf()))
            .cache_bytes(128 * 1024)
            .shards(2)
            .open()
            .unwrap();
        assert_eq!(db.config().splitters, Some(vec![1000]));
        assert_eq!(db.config(), &built_cfg);
    }

    #[test]
    fn db_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Db>();
        assert_send::<IoHandle>();
    }
}

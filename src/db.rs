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
//! instances of the configured structure behind the same interface, and
//! `.parallel_ingest(true)` applies batches on worker threads (see
//! [`crate::shard`]).

use std::io;
use std::path::{Path, PathBuf};

use cosbt_brt::Brt;
use cosbt_btree::BTree;
use cosbt_core::entry::Cell;
use cosbt_core::legacy::{self, Heir};
use cosbt_core::persist::{
    peek_tag, tag_name, TAG_BASIC_COLA, TAG_BRT, TAG_BTREE, TAG_DEAMORT, TAG_DEAMORT_BASIC,
    TAG_GCOLA,
};
use cosbt_core::{
    Cursor, DeamortCola, Dictionary, EpochStats, GCola, MetaError, MetaReader, MetaWriter,
    UpdateBatch,
};
use cosbt_dam::format::{fnv1a, sibling_path, DEFAULT_SLOT_BYTES, KIND_PAGES};
use cosbt_dam::{
    ArcFileMem, ArcFilePages, DirectFile, FileMem, FilePages, IoStats, Mem, PageStore as _,
    PlainMem, SharedStore, DEFAULT_PAGE_SIZE,
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
    /// keeps its own identity in a shard manifest, and a store in the
    /// basic COLA's retired format opens under it ([`legacy`]).
    BasicCola,
    /// Section 4's lookahead array with growth factor `g` (the paper's
    /// experimental structure; `g = 2` is the COLA of Lemma 20).
    GCola {
        /// Growth factor, at least 2.
        g: usize,
    },
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
    /// `<path>.shard<i>` and the cache budget is divided evenly.
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

    /// The backing path and direct-I/O flag of a file backend.
    fn file_params(&self) -> Option<(&Path, bool)> {
        match self {
            Backend::Mem => None,
            Backend::File { path, direct } => Some((path, *direct)),
        }
    }
}

/// A serializable summary of a database configuration: everything a
/// [`DbBuilder`] knows, as plain data. [`Db::config`] reports the
/// configuration a live database was built or opened with, and
/// [`DbBuilder::from_config`] reconstructs an equivalent builder — the
/// round trip `DbBuilder::from_config(&b.config())` preserves every
/// knob. The benchmark harness uses [`DbConfig::identity`] as the
/// stable cell identity in its JSON artifacts (instead of ad-hoc label
/// strings), so two runs compare as the same cell exactly when their
/// configurations agree.
#[derive(Debug, Clone, PartialEq)]
pub struct DbConfig {
    /// The data structure.
    pub structure: Structure,
    /// Worst-case-bounded (deamortized) variant requested.
    pub deamortized: bool,
    /// Lookahead-pointer density (g-COLA only; retained for others).
    pub pointer_density: f64,
    /// Shard count (1 = unsharded).
    pub shards: usize,
    /// Explicit shard boundaries, if any were configured or recovered.
    pub splitters: Option<Vec<u64>>,
    /// Batches applied on worker threads.
    pub parallel_ingest: bool,
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
            Structure::BTree => "B-tree".to_string(),
            Structure::Brt => "BRT".to_string(),
            Structure::Shuttle { c } => format!("shuttle({c})"),
        };
        let base = if self.deamortized {
            format!("deamortized-{base}")
        } else {
            base
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

    /// Whether the backend requests direct I/O.
    pub fn direct(&self) -> bool {
        matches!(self.backend, Backend::File { direct: true, .. })
    }

    /// A canonical, path-independent identity string for this
    /// configuration. Two cells with equal identities are performance-
    /// comparable: the string covers structure, modifiers, backend kind
    /// (including direct I/O), sharding, and the cache budget — but not
    /// the data file's location, which is scratch-dependent.
    pub fn identity(&self) -> String {
        format!(
            "{}|{}|shards={}|cache={}|parallel={}|density={}",
            self.label(),
            self.backend_kind(),
            self.shards,
            match self.backend {
                Backend::Mem => 0,
                Backend::File { .. } => self.cache_bytes,
            },
            self.parallel_ingest,
            self.pointer_density,
        )
    }
}

/// The supported structure × modifier × backend matrix, enumerated in
/// every [`BuildError::Unsupported`] message so a failed build names the
/// valid alternatives, not just the invalid request.
pub const VALID_COMBINATIONS: &str = "\
  BasicCola          × Mem | File  (deamortized: yes)
  GCola { g ≥ 2 }    × Mem | File  (deamortized: only g = 2; pointer_density in [0, 1))
  BTree              × Mem | File  (no deamortized variant)
  Brt                × Mem | File  (no deamortized variant)
  Shuttle { c ≥ 2 }  × Mem only    (no deamortized variant)
  modifiers: shards(n ≥ 1) with strictly increasing shard_splitters (n − 1 of them), \
parallel_ingest";

/// Why a [`DbBuilder::build`] call failed.
#[derive(Debug)]
pub enum BuildError {
    /// The requested structure/modifier/backend combination does not
    /// exist (e.g. a deamortized B-tree, or a file-backed shuttle tree).
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
    /// A required file (data file, shard file, or shard manifest) does
    /// not exist. [`DbBuilder::open_or_create`] falls back to creation on
    /// this variant and only this variant.
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
    /// The shard manifest records a different shard count than the
    /// builder was configured for.
    ShardCountMismatch {
        /// Shard count recorded in the manifest.
        found: usize,
        /// Shard count the builder asked for.
        expected: usize,
    },
    /// The builder supplied explicit splitters that disagree with the
    /// manifest (omit [`DbBuilder::shard_splitters`] to adopt the
    /// persisted routing).
    SplitterMismatch {
        /// Splitters recorded in the manifest.
        found: Vec<u64>,
        /// Splitters the builder supplied.
        expected: Vec<u64>,
    },
    /// The shard manifest exists but fails validation.
    ManifestCorrupt {
        /// The manifest file.
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
                "shard count mismatch (manifest records {found}, builder asked for {expected})"
            ),
            OpenError::SplitterMismatch { found, expected } => write!(
                f,
                "splitter mismatch (manifest {found:?}, builder {expected:?})"
            ),
            OpenError::ManifestCorrupt { path, why } => {
                write!(f, "{}: corrupt shard manifest: {why}", path.display())
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

/// Maps a storage-layer open failure on `path` to the facade error,
/// folding "file not found" into [`OpenError::Missing`].
fn store_error(path: &Path, e: cosbt_dam::OpenError) -> OpenError {
    if e.is_missing() {
        OpenError::Missing(path.to_path_buf())
    } else {
        OpenError::Store {
            path: path.to_path_buf(),
            source: e,
        }
    }
}

/// Magic of the shard manifest file (`<base>.manifest`).
const MANIFEST_MAGIC: [u8; 8] = *b"COSBTMAN";
/// Manifest format version.
const MANIFEST_VERSION: u32 = 1;

/// The routing configuration a sharded file-backed database persists at
/// creation, so a reopened database routes identically. Written once,
/// atomically (temp file + rename); never rewritten, so it needs no
/// shadow commit.
#[derive(Debug, Clone, PartialEq)]
struct Manifest {
    shards: u32,
    structure_tag: u8,
    /// Structure parameter (growth factor / fanout; 0 if none).
    param: u64,
    splitters: Vec<u64>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut w = MetaWriter::default();
        w.u32(MANIFEST_VERSION)
            .u32(self.shards)
            .u8(self.structure_tag)
            .u64(self.param)
            .u32(self.splitters.len() as u32);
        for &s in &self.splitters {
            w.u64(s);
        }
        seal(&MANIFEST_MAGIC, w)
    }

    fn decode(buf: &[u8]) -> Result<Manifest, String> {
        let mut r = unseal(buf, &MANIFEST_MAGIC, "manifest")?;
        let truncated = |_| "truncated manifest".to_string();
        let version = r.u32().map_err(truncated)?;
        if version != MANIFEST_VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        let (shards, structure_tag) = (r.u32().map_err(truncated)?, r.u8().map_err(truncated)?);
        let (param, count) = (r.u64().map_err(truncated)?, r.u32().map_err(truncated)?);
        if buf.len() != 29 + 8 * count as usize + 8 {
            return Err("manifest length disagrees with splitter count".into());
        }
        let splitters = (0..count).map(|_| r.u64().map_err(truncated));
        Ok(Manifest {
            shards,
            structure_tag,
            param,
            splitters: splitters.collect::<Result<_, _>>()?,
        })
    }

    fn write_atomic(&self, path: &Path) -> io::Result<()> {
        write_file_atomic(path, &self.encode())
    }
}

/// Writes `bytes` to `path` atomically: temp file, contents fsynced,
/// rename. (The parent-directory fsync is omitted; on the platforms we
/// target a rename reaching the directory after a crash without its
/// contents is not a failure mode the tests model.)
fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    let tmp = sibling_path(path, ".tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

/// Magic of the cross-shard commit record (`<base>.commit`).
const COMMIT_MAGIC: [u8; 8] = *b"COSBTCPT";

/// The atomic commit point of a **sharded** file-backed database.
///
/// Each shard's store commit is individually crash-atomic, but a crash
/// between two shards' commits would otherwise recover a whole-database
/// state that never existed (half a batch applied). `Db::sync` therefore
/// commits every shard first and only then renames this record — one
/// epoch per shard — into place; `DbBuilder::open` rolls every shard
/// back to its recorded epoch (the double-buffered metadata region still
/// holds it). The rename is the cross-shard commit point.
fn encode_commit_record(epochs: &[u64]) -> Vec<u8> {
    let mut w = MetaWriter::default();
    w.u32(epochs.len() as u32);
    for &e in epochs {
        w.u64(e);
    }
    seal(&COMMIT_MAGIC, w)
}

fn decode_commit_record(buf: &[u8]) -> Result<Vec<u64>, String> {
    let mut r = unseal(buf, &COMMIT_MAGIC, "commit-record")?;
    let truncated = |_| "truncated commit record".to_string();
    let count = r.u32().map_err(truncated)? as usize;
    if buf.len() != 12 + 8 * count + 8 {
        return Err("commit-record length disagrees with shard count".into());
    }
    (0..count).map(|_| r.u64().map_err(truncated)).collect()
}

/// `magic`, the fields `w` wrote, and the FNV-1a of both as a trailing
/// `u64`: the framing of the manifest and of the commit record.
fn seal(magic: &[u8; 8], w: MetaWriter) -> Vec<u8> {
    let mut out = [&magic[..], &w.finish()].concat();
    out.extend_from_slice(&fnv1a(&out).to_le_bytes());
    out
}

/// A reader over the fields [`seal`] framed in `buf` with `magic`, after
/// the magic and the checksum check out; `what` names the record.
fn unseal<'a>(buf: &'a [u8], magic: &[u8; 8], what: &str) -> Result<MetaReader<'a>, String> {
    let rest = buf.strip_prefix(magic).ok_or(format!("bad {what} magic"))?;
    let (fields, ck) = rest.split_last_chunk().ok_or(format!("truncated {what}"))?;
    if u64::from_le_bytes(*ck) != fnv1a(&buf[..magic.len() + fields.len()]) {
        return Err(format!("{what} checksum mismatch"));
    }
    Ok(MetaReader::untagged(fields))
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
            deamortized: false,
            pointer_density: 0.1,
            shards: 1,
            splitters: None,
            parallel_ingest: false,
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
    /// the superblock.
    pub fn meta_slot_bytes(mut self, bytes: usize) -> DbBuilder {
        self.cfg.meta_slot_bytes = bytes;
        self
    }

    /// Requests the worst-case-bounded variant: [`Structure::BasicCola`]
    /// and [`Structure::GCola`] (which then fixes growth factor 2) both
    /// become [`DeamortCola`], the two-array deamortization of Theorem 22.
    /// It is an engine of its own, not the g-COLA's carry, and its merges
    /// keep every version of a key: nothing ever drops the shadowed ones.
    /// Tree structures have no deamortized variant and fail at build.
    pub fn deamortized(mut self) -> DbBuilder {
        self.cfg.deamortized = true;
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
    /// shard.
    ///
    /// ```
    /// use cosbt::{DbBuilder, Structure};
    ///
    /// let mut db = DbBuilder::new()
    ///     .structure(Structure::GCola { g: 4 })
    ///     .shards(4)
    ///     .parallel_ingest(true)
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

    /// Applies `apply`/`insert_batch` sub-batches on a scoped pool of
    /// worker threads, one shard per job (default off). A no-op with a
    /// single shard; point operations are always routed directly.
    pub fn parallel_ingest(mut self, on: bool) -> DbBuilder {
        self.cfg.parallel_ingest = on;
        self
    }

    /// Validates the configuration (structure parameters, modifiers,
    /// shard layout) without touching any backend. Shared by
    /// [`DbBuilder::build`] and [`DbBuilder::open`].
    fn validate(&self) -> Result<(), BuildError> {
        let label = self.label();
        let unsupported = |what: &str| BuildError::Unsupported(format!("{what} ({label})"));

        if self.cfg.deamortized
            && !matches!(
                self.cfg.structure,
                Structure::BasicCola | Structure::GCola { .. }
            )
        {
            return Err(unsupported(
                "deamortization exists only for the COLA family",
            ));
        }
        if let Structure::GCola { g } = self.cfg.structure {
            if g < 2 {
                return Err(unsupported("growth factor must be at least 2"));
            }
            if self.cfg.deamortized && g != 2 {
                return Err(unsupported("the deamortized COLA fixes growth factor 2"));
            }
            if !(0.0..1.0).contains(&self.cfg.pointer_density) {
                return Err(unsupported("pointer density must be in [0, 1)"));
            }
        }
        if let Structure::Shuttle { c } = self.cfg.structure {
            if c < 2 {
                return Err(unsupported("fanout parameter must be at least 2"));
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
        let label = self.label();
        let unsupported = |what: &str| BuildError::Unsupported(format!("{what} ({label})"));
        let mut dicts: Vec<Shard> = Vec::with_capacity(self.cfg.shards);
        let mut ios: Vec<StoreHandle> = Vec::new();
        for i in 0..self.cfg.shards {
            match self.build_shard(i, &unsupported) {
                Ok((dict, io)) => {
                    dicts.push(dict);
                    ios.extend(io);
                }
                Err(e) => {
                    // A partial multi-shard file build must not leave the
                    // freshly created (truncated) shard files behind:
                    // release the stores built so far, then unlink the
                    // files this call created — earlier shards always,
                    // shard `i` only if its file creation was attempted
                    // (an I/O error). An Unsupported error fails before
                    // touching the filesystem, and unlinking then would
                    // delete a pre-existing user file at the path.
                    if let Backend::File { path: base, .. } = &self.cfg.backend {
                        drop(dicts);
                        drop(ios);
                        let created = if matches!(e, BuildError::Io(_)) {
                            i + 1
                        } else {
                            i
                        };
                        for j in 0..created {
                            // Best-effort cleanup of partially-created shards.
                            let _ = std::fs::remove_file(self.shard_file_path(base, j));
                        }
                    }
                    return Err(e);
                }
            }
        }
        let mut db = self.assemble(dicts, ios, self.cfg.splitters.clone());
        if let Backend::File { path: base, .. } = &self.cfg.backend {
            // Make the fresh (empty) database immediately reopenable:
            // write the shard manifest (sharded configs) and commit the
            // initial metadata epoch. A failure here unwinds like a
            // failed shard build — no partial files left behind.
            let init = (|| -> io::Result<()> {
                if self.cfg.shards > 1 {
                    self.manifest().write_atomic(&self.manifest_path(base))?;
                }
                db.sync()
            })();
            if let Err(e) = init {
                drop(db);
                for p in self.data_paths() {
                    // Best-effort cleanup of a failed build.
                    let _ = std::fs::remove_file(p);
                }
                return Err(BuildError::Io(e));
            }
        }
        Ok(db)
    }

    /// Opens an existing file-backed database previously created (and
    /// synced) with this configuration. The builder must be configured
    /// with the same structure and shard layout the file holds — every
    /// mismatch is a distinct typed [`OpenError`] — and the open path
    /// **never modifies or unlinks** the files it inspects. The
    /// lookahead-pointer density of a g-COLA is restored from the file;
    /// cache budget and parallel-ingest are runtime knobs and may differ
    /// per open.
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
        let label = self.label();
        let Backend::File { path: base, .. } = &self.cfg.backend else {
            return Err(OpenError::Unsupported(BuildError::Unsupported(format!(
                "nothing to open for the memory backend ({label})"
            ))));
        };
        // Sharded: recover the persisted routing first and require the
        // builder to agree with it.
        let splitters = if self.cfg.shards > 1 {
            let mpath = self.manifest_path(base);
            let bytes = std::fs::read(&mpath).map_err(|e| {
                if e.kind() == io::ErrorKind::NotFound {
                    OpenError::Missing(mpath.clone())
                } else {
                    OpenError::Io(e)
                }
            })?;
            let manifest = Manifest::decode(&bytes).map_err(|why| OpenError::ManifestCorrupt {
                path: mpath.clone(),
                why,
            })?;
            if manifest.shards as usize != self.cfg.shards {
                return Err(OpenError::ShardCountMismatch {
                    found: manifest.shards as usize,
                    expected: self.cfg.shards,
                });
            }
            let expected = self.manifest();
            if manifest.structure_tag != expected.structure_tag || manifest.param != expected.param
            {
                return Err(OpenError::StructureMismatch {
                    path: mpath,
                    found: tag_name(manifest.structure_tag).to_string(),
                    expected: tag_name(expected.structure_tag).to_string(),
                });
            }
            if let Some(requested) = &self.cfg.splitters {
                if *requested != manifest.splitters {
                    return Err(OpenError::SplitterMismatch {
                        found: manifest.splitters.clone(),
                        expected: requested.clone(),
                    });
                }
            }
            Some(manifest.splitters)
        } else {
            None
        };
        // Sharded: the cross-shard commit record pins the epoch every
        // shard must be rolled back to, so a crash between two shards'
        // commits cannot surface a mixed whole-database state.
        let epochs: Option<Vec<u64>> = if self.cfg.shards > 1 {
            let cpath = self.commit_record_path(base);
            let bytes = std::fs::read(&cpath).map_err(|e| {
                if e.kind() == io::ErrorKind::NotFound {
                    OpenError::Store {
                        path: cpath.clone(),
                        source: cosbt_dam::OpenError::NeverCommitted,
                    }
                } else {
                    OpenError::Io(e)
                }
            })?;
            let epochs =
                decode_commit_record(&bytes).map_err(|why| OpenError::ManifestCorrupt {
                    path: cpath.clone(),
                    why,
                })?;
            if epochs.len() != self.cfg.shards {
                return Err(OpenError::ManifestCorrupt {
                    path: cpath,
                    why: format!(
                        "commit record holds {} epochs for {} shards",
                        epochs.len(),
                        self.cfg.shards
                    ),
                });
            }
            Some(epochs)
        } else {
            None
        };
        let mut dicts: Vec<Shard> = Vec::with_capacity(self.cfg.shards);
        let mut ios: Vec<StoreHandle> = Vec::with_capacity(self.cfg.shards);
        for i in 0..self.cfg.shards {
            let max_epoch = epochs.as_ref().map(|e| e[i]);
            let (dict, io) = self.open_shard(i, base, max_epoch)?;
            dicts.push(dict);
            ios.push(io);
        }
        // The persisted routing is authoritative: recording it makes
        // `Db::config()` round-trip even when the builder omitted
        // explicit splitters.
        Ok(self.assemble(dicts, ios, splitters.or(self.cfg.splitters.clone())))
    }

    /// Wraps built or opened shards (and their stores, in shard order)
    /// into a [`Db`] routing by `splitters` (even ones if `None`).
    fn assemble(
        &self,
        mut dicts: Vec<Shard>,
        ios: Vec<StoreHandle>,
        splitters: Option<Vec<u64>>,
    ) -> Db {
        let sharded = self.cfg.shards > 1;
        let dict = if sharded {
            let splitters = splitters
                .clone()
                .unwrap_or_else(|| even_splitters(self.cfg.shards));
            DbDict::Sharded(ShardRouter::new(dicts, splitters, self.cfg.parallel_ingest))
        } else {
            DbDict::Single(dicts.pop().expect("one shard was built or opened"))
        };
        let commit_path = match &self.cfg.backend {
            Backend::File { path: base, .. } if sharded => Some(self.commit_record_path(base)),
            _ => None,
        };
        let mut db = Db {
            dict,
            ios,
            label: self.label(),
            dirty: false,
            commit_path,
            mvcc: MvccState::new(),
            config: DbConfig {
                splitters,
                ..self.config()
            },
        };
        db.install_reclaim_gates();
        db
    }

    /// [`DbBuilder::open`] if the store exists, [`DbBuilder::build`]
    /// otherwise. Only a genuinely missing store — **no** backing file
    /// of this configuration present at all — falls back to creation; a
    /// present-but-invalid store, and equally a *partially* missing one
    /// (a lost manifest next to intact shard files), surfaces its open
    /// error untouched. `build` truncates every backing file, so
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

    /// The structure-metadata tag this configuration produces (what
    /// [`cosbt_core::Persist::save_meta`] will emit) plus its parameter.
    fn structure_identity(&self) -> (u8, u64) {
        match (self.cfg.structure, self.cfg.deamortized) {
            (Structure::BasicCola, false) => (TAG_BASIC_COLA, 0),
            (Structure::BasicCola, true) => (TAG_DEAMORT_BASIC, 0),
            (Structure::GCola { g }, false) => (TAG_GCOLA, g as u64),
            (Structure::GCola { .. }, true) => (TAG_DEAMORT, 2),
            (Structure::BTree, _) => (TAG_BTREE, 0),
            (Structure::Brt, _) => (TAG_BRT, 0),
            (Structure::Shuttle { c }, _) => (cosbt_core::persist::TAG_SHUTTLE, c as u64),
        }
    }

    fn manifest(&self) -> Manifest {
        let (structure_tag, param) = self.structure_identity();
        Manifest {
            shards: self.cfg.shards as u32,
            structure_tag,
            param,
            splitters: self
                .cfg
                .splitters
                .clone()
                .unwrap_or_else(|| even_splitters(self.cfg.shards)),
        }
    }

    /// Path of the shard manifest: `<base>.manifest`.
    fn manifest_path(&self, base: &Path) -> PathBuf {
        sibling_path(base, ".manifest")
    }

    /// Path of the cross-shard commit record: `<base>.commit`.
    fn commit_record_path(&self, base: &Path) -> PathBuf {
        sibling_path(base, ".commit")
    }

    /// Opens shard `idx`'s store file and reconstructs its structure from
    /// the committed metadata.
    fn open_shard(
        &self,
        idx: usize,
        base: &Path,
        max_epoch: Option<u64>,
    ) -> Result<(Shard, StoreHandle), OpenError> {
        let path = self.shard_file_path(base, idx);
        let direct = self
            .cfg
            .backend
            .file_params()
            .map(|(_, d)| d)
            .unwrap_or(false);
        let cache_pages = self.cache_pages();
        // The meta tag this configuration writes (not its manifest
        // identity), or a retired one `legacy` rebuilds into its engine.
        let (writes, heir) = match (self.cfg.structure, self.cfg.deamortized) {
            (Structure::BasicCola | Structure::GCola { .. }, true) => {
                (TAG_DEAMORT_BASIC, Some(Heir::DeamortCola))
            }
            (Structure::BasicCola, false) => (TAG_GCOLA, Some(Heir::BasicCola)),
            _ => (self.structure_identity().0, None),
        };
        let accepts = |tag| tag == writes || heir.is_some_and(|h| legacy::heir(tag) == Some(h));
        let meta_err = |source: MetaError| OpenError::Meta {
            path: path.clone(),
            source,
        };
        let check = |found_meta: &[u8]| -> Result<(), OpenError> {
            match peek_tag(found_meta) {
                Some(tag) if accepts(tag) => Ok(()),
                Some(tag) => Err(OpenError::StructureMismatch {
                    path: path.clone(),
                    found: tag_name(tag).to_string(),
                    expected: self.label(),
                }),
                None => Err(meta_err(MetaError::Truncated)),
            }
        };
        match self.cfg.structure {
            Structure::Shuttle { .. } => Err(OpenError::Unsupported(BuildError::Unsupported(
                format!("the shuttle tree is in-memory only ({})", self.label()),
            ))),
            Structure::BTree | Structure::Brt => {
                let dev = DirectFile::open(&path, direct)
                    .map_err(|e| store_error(&path, cosbt_dam::OpenError::Io(e)))?;
                let (store, meta) =
                    FilePages::open_bounded(dev, cache_pages, (KIND_PAGES, 0), max_epoch)
                        .map_err(|e| store_error(&path, e))?;
                self.check_page_size(&path, store.page_size())?;
                check(&meta)?;
                let store = ArcFilePages::new(store);
                let dict: Shard = match self.cfg.structure {
                    Structure::BTree => {
                        Box::new(BTree::from_parts(store.clone(), &meta).map_err(meta_err)?)
                    }
                    _ => Box::new(Brt::from_parts(store.clone(), &meta).map_err(meta_err)?),
                };
                Ok((dict, store.erased()))
            }
            Structure::BasicCola | Structure::GCola { .. } => {
                let dev = DirectFile::open(&path, direct)
                    .map_err(|e| store_error(&path, cosbt_dam::OpenError::Io(e)))?;
                let (mut store, meta) =
                    FileMem::<Cell, DirectFile>::open_bounded(dev, cache_pages, 32, max_epoch)
                        .map_err(|e| store_error(&path, e))?;
                self.check_page_size(&path, store.pages().page_size())?;
                check(&meta)?;
                let mem = ArcFileMem::new(store);
                let dict = self.cola_shard(mem.clone(), Some((&meta, &path)))?;
                Ok((dict, mem.erased()))
            }
        }
    }

    /// Frames in each shard's page cache: an even share of the budget,
    /// floored at 2 pages.
    fn cache_pages(&self) -> usize {
        (self.cfg.cache_bytes / self.cfg.shards / DEFAULT_PAGE_SIZE).max(2)
    }

    fn check_page_size(&self, path: &Path, found: usize) -> Result<(), OpenError> {
        if found != DEFAULT_PAGE_SIZE {
            return Err(OpenError::PageSizeMismatch {
                path: path.to_path_buf(),
                found,
                expected: DEFAULT_PAGE_SIZE,
            });
        }
        Ok(())
    }

    /// The backing-file paths this configuration stores data in: the
    /// configured path itself when unsharded, `<path>.shard<i>` per shard
    /// plus the `<path>.manifest` routing manifest otherwise; empty for
    /// the memory backend. This is the one source of the file naming
    /// convention — harnesses that own the files' lifecycle (e.g. the
    /// bench CLI's delete-after-run) should unlink exactly this list
    /// rather than re-deriving names.
    pub fn data_paths(&self) -> Vec<PathBuf> {
        match &self.cfg.backend {
            Backend::Mem => Vec::new(),
            Backend::File { path: base, .. } => {
                let mut paths: Vec<PathBuf> = (0..self.cfg.shards)
                    .map(|i| self.shard_file_path(base, i))
                    .collect();
                if self.cfg.shards > 1 {
                    paths.push(self.manifest_path(base));
                    paths.push(self.commit_record_path(base));
                }
                paths
            }
        }
    }

    /// Data-file path of shard `idx`: the configured path itself when
    /// unsharded, `<path>.shard<idx>` otherwise.
    fn shard_file_path(&self, base: &std::path::Path, idx: usize) -> PathBuf {
        if self.cfg.shards == 1 {
            base.to_path_buf()
        } else {
            let mut os = base.as_os_str().to_os_string();
            os.push(format!(".shard{idx}"));
            PathBuf::from(os)
        }
    }

    /// The COLA-family shard this configuration keeps in `mem`: a fresh
    /// one, or, given the meta committed in a file and that file's path,
    /// the one the meta describes. The basic COLA is [`GCola::basic`]: it
    /// reopens a g-COLA of growth factor 2 and pointer density 0. A
    /// g-COLA reopens with the growth factor asked for. Either
    /// deamortized configuration is [`DeamortCola`]. A store in a retired
    /// format is asked of [`legacy`] first, and its live entries are
    /// bulk-loaded into a fresh engine of the configured kind: a fresh
    /// shard is the bulk load of nothing.
    fn cola_shard<M: Mem<Cell> + Send + Sync + 'static>(
        &self,
        mem: M,
        opened: Option<(&[u8], &Path)>,
    ) -> Result<Shard, OpenError> {
        let path = || opened.map_or_else(PathBuf::new, |(_, path)| path.to_path_buf());
        let meta_err = |source| OpenError::Meta {
            path: path(),
            source,
        };
        let (structure, deamortized) = (self.cfg.structure, self.cfg.deamortized);
        // `Ok` holds the entries to bulk-load, `Err` the meta to reopen.
        let load = match opened {
            None => Ok(Vec::new()),
            Some((meta, _)) => legacy::live_entries(&mem, meta)
                .map_err(meta_err)?
                .ok_or(meta),
        };
        let cola = match load {
            Ok(live) if deamortized => return Ok(Box::new(DeamortCola::bulk_load(mem, &live))),
            Err(meta) if deamortized => {
                return Ok(Box::new(
                    DeamortCola::from_parts(mem, meta).map_err(meta_err)?,
                ))
            }
            Ok(live) => match structure {
                Structure::GCola { g } => GCola::bulk_load(mem, g, self.cfg.pointer_density, &live),
                _ => GCola::bulk_load(mem, 2, 0.0, &live),
            },
            Err(meta) => GCola::from_parts(mem, meta).map_err(meta_err)?,
        };
        let (g, p) = (cola.growth(), cola.pointer_density());
        let fits = match structure {
            Structure::GCola { g: want } => g == want,
            _ => (g, p) == (2, 0.0),
        };
        if !fits {
            return Err(OpenError::StructureMismatch {
                path: path(),
                found: format!("{g}-COLA, pointer density {p}"),
                expected: self.label(),
            });
        }
        Ok(Box::new(cola))
    }

    /// Builds shard `idx` of [`DbBuilder::shards`] (the whole dictionary
    /// when unsharded): one structure instance plus, for file backends,
    /// the I/O handle of its backing store.
    fn build_shard(
        &self,
        idx: usize,
        unsupported: &dyn Fn(&str) -> BuildError,
    ) -> Result<(Shard, Option<StoreHandle>), BuildError> {
        let cache_pages = self.cache_pages();
        match (&self.cfg.backend, self.cfg.structure) {
            (Backend::Mem, Structure::BasicCola | Structure::GCola { .. }) => {
                let dict = self.cola_shard(PlainMem::new(), None);
                Ok((dict.map_err(|e| unsupported(&e.to_string()))?, None))
            }
            (Backend::Mem, Structure::BTree) => Ok((Box::new(BTree::new_plain()), None)),
            (Backend::Mem, Structure::Brt) => Ok((Box::new(Brt::new_plain()), None)),
            (Backend::Mem, Structure::Shuttle { c }) => Ok((Box::new(ShuttleTree::new(c)), None)),
            (Backend::File { path: base, direct }, structure) => {
                let path = self.shard_file_path(base, idx);
                match structure {
                    Structure::Shuttle { .. } => Err(unsupported(
                        "the shuttle tree is in-memory only (its file layout is measured \
                         through LayoutImage, not served from disk)",
                    )),
                    Structure::BTree | Structure::Brt => {
                        let dev = DirectFile::create(&path, *direct)?;
                        let store = ArcFilePages::new(FilePages::create_on_sized(
                            dev,
                            DEFAULT_PAGE_SIZE,
                            cache_pages,
                            self.cfg.meta_slot_bytes,
                        )?);
                        let dict: Shard = match structure {
                            Structure::BTree => Box::new(BTree::new(store.clone())),
                            _ => Box::new(Brt::new(store.clone())),
                        };
                        Ok((dict, Some(store.erased())))
                    }
                    Structure::BasicCola | Structure::GCola { .. } => {
                        // 32-byte modeled elements, as in the paper.
                        let dev = DirectFile::create(&path, *direct)?;
                        let mem = ArcFileMem::new(FileMem::<Cell, DirectFile>::create_on_sized(
                            dev,
                            DEFAULT_PAGE_SIZE,
                            cache_pages,
                            32,
                            self.cfg.meta_slot_bytes,
                        )?);
                        let dict = self.cola_shard(mem.clone(), None);
                        let dict = dict.map_err(|e| unsupported(&e.to_string()))?;
                        Ok((dict, Some(mem.erased())))
                    }
                }
            }
        }
    }

    /// Enumerates every supported structure × modifier cell of the
    /// configuration matrix (see [`VALID_COMBINATIONS`]) over the memory
    /// backend, crossed with the given shard counts. This is the **one**
    /// list of valid configurations shared by the conformance battery and
    /// the benchmark harness, so a structure added to the builder is
    /// automatically tested and benchmarkable; callers that want the
    /// out-of-core regime override the backend per cell (the shuttle tree
    /// is memory-only and must be skipped or left on [`Backend::Mem`]).
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
            (Structure::BasicCola, false),
            (Structure::BasicCola, true),
            (Structure::GCola { g: 2 }, false),
            (Structure::GCola { g: 2 }, true),
            (Structure::GCola { g: 4 }, false),
            (Structure::GCola { g: 8 }, false),
            (Structure::BTree, false),
            (Structure::Brt, false),
            (Structure::Shuttle { c: 4 }, false),
        ];
        let mut out = Vec::new();
        for &(structure, deamortized) in &structures {
            for &shards in shard_counts {
                if shards == 0 {
                    continue;
                }
                let mut b = DbBuilder::new().structure(structure).shards(shards);
                if deamortized {
                    b = b.deamortized();
                }
                out.push(b);
            }
        }
        out
    }

    /// The builder's configuration as plain serializable data; the
    /// round-trip companion of [`DbBuilder::from_config`].
    pub fn config(&self) -> DbConfig {
        self.cfg.clone()
    }

    /// A builder reproducing `cfg` exactly:
    /// `DbBuilder::from_config(&b.config())` configures an equivalent
    /// database (same structure, backend, modifiers, and budgets).
    ///
    /// ```
    /// use cosbt::{DbBuilder, Structure};
    ///
    /// let b = DbBuilder::new().structure(Structure::GCola { g: 8 }).shards(2);
    /// let cfg = b.config();
    /// assert_eq!(DbBuilder::from_config(&cfg).config(), cfg);
    /// ```
    pub fn from_config(cfg: &DbConfig) -> DbBuilder {
        DbBuilder { cfg: cfg.clone() }
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

/// The one I/O-statistics surface of a [`Db`]: a cheap, cloneable
/// handle over every shard's counters, obtained from [`Db::io`].
///
/// Counters aggregate (sum fieldwise) across shards. The handle reads
/// lock-free atomics, so it is usable from any thread while the
/// database itself is mutably borrowed — a probe racing a concurrent
/// writer can neither drop nor double-count a transfer, and cannot be
/// starved by a writer mid-merge. For memory backends the handle is
/// empty: every counter reads zero and
/// [`is_instrumented`](IoHandle::is_instrumented) returns false.
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

    /// Cumulative block transfers (fetches + writebacks).
    pub fn transfers(&self) -> u64 {
        self.snapshot().transfers()
    }

    /// Whether any instrumented (file-backed) store is attached; false
    /// for memory backends, whose counters always read zero.
    pub fn is_instrumented(&self) -> bool {
        !self.handles.is_empty()
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

/// The dictionary a [`Db`] drives: one structure, or a [`ShardRouter`]
/// over several. Kept as an enum (not a boxed trait object) so the
/// facade can reach each shard individually — [`Db::sync`] must pair
/// every shard's serialized control state with *its own* store's
/// metadata commit.
enum DbDict {
    Single(Shard),
    Sharded(ShardRouter),
}

impl DbDict {
    fn as_dyn(&mut self) -> &mut dyn Dictionary {
        match self {
            DbDict::Single(s) => s.as_mut(),
            DbDict::Sharded(r) => r,
        }
    }

    fn as_dyn_ref(&self) -> &dyn Dictionary {
        match self {
            DbDict::Single(s) => s.as_ref(),
            DbDict::Sharded(r) => r,
        }
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
    dict: DbDict,
    /// One handle per file-backed shard, in shard order; empty for
    /// memory backends.
    ios: Vec<StoreHandle>,
    label: String,
    /// Whether the dictionary may have changed since the last commit;
    /// gates the best-effort sync-on-drop so a read-only session never
    /// rewrites metadata.
    dirty: bool,
    /// Path of the cross-shard commit record (`Some` only for sharded
    /// file-backed databases).
    commit_path: Option<PathBuf>,
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
    /// Starts a builder (same as [`DbBuilder::new`]).
    pub fn builder() -> DbBuilder {
        DbBuilder::new()
    }

    /// Display label of the structure configuration ("4-COLA", …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Inserts or overwrites `key`.
    pub fn insert(&mut self, key: u64, val: u64) {
        self.dirty = true;
        self.mvcc.record(key, Some(val));
        self.dict.as_dyn().insert(key, val)
    }

    /// Deletes `key`.
    pub fn delete(&mut self, key: u64) {
        self.dirty = true;
        self.mvcc.record(key, None);
        self.dict.as_dyn().delete(key)
    }

    /// Looks up `key`.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.dict.as_dyn().get(key)
    }

    /// A streaming cursor over live entries in `[lo, hi]`.
    pub fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_> {
        self.dict.as_dyn().cursor(lo, hi)
    }

    /// All live entries in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.dict.as_dyn().range(lo, hi)
    }

    /// Applies and drains a batch of updates.
    pub fn apply(&mut self, batch: &mut UpdateBatch) {
        self.dirty = true;
        // Record before `apply` drains the batch.
        self.mvcc.record_ops(batch.ops());
        self.dict.as_dyn().apply(batch)
    }

    /// Inserts a key-sorted run of pairs in one batched pass.
    pub fn insert_batch(&mut self, sorted: &[(u64, u64)]) {
        self.dirty = true;
        self.mvcc.record_inserts(sorted);
        self.dict.as_dyn().insert_batch(sorted)
    }

    /// Number of physically stored entries, summed across shards: what a
    /// store holds, not what it answers. The log-structured structures
    /// count the shadowed versions and tombstones they still keep — the
    /// g-COLA (the basic COLA included) at most one version per key and
    /// level, since its carries drop the rest; the deamortized COLA every
    /// one.
    pub fn physical_len(&self) -> usize {
        self.dict.as_dyn_ref().physical_len()
    }

    /// The inner dictionary, for interfaces that want the trait object.
    /// Conservatively marks the database dirty (the borrow can mutate
    /// without going through the tracked methods).
    pub fn dict_mut(&mut self) -> &mut dyn Dictionary {
        self.dirty = true;
        // Mutations through the raw trait object bypass the mirror; the
        // next snapshot() reseeds from a full scan instead of trusting it.
        self.mvcc.invalidate();
        self.dict.as_dyn()
    }

    /// Commits the current state durably (a no-op returning `Ok` for
    /// memory backends). For every file-backed shard this serializes the
    /// structure's control state ([`cosbt_core::Persist`]) and runs the
    /// store's shadow commit: data pages, then metadata, each behind a
    /// durability barrier — a crash at any point leaves either the
    /// previous or the new committed state of that store, never a
    /// mixture. A **sharded** database additionally makes the commit
    /// atomic across shards: every shard commits first, then the
    /// cross-shard commit record (`<base>.commit`, one epoch per shard)
    /// is renamed into place; on reopen each shard is rolled back to its
    /// recorded epoch, so a crash between two shards' commits still
    /// recovers the previous whole-database state. I/O errors propagate;
    /// nothing is swallowed — and if writing the commit record itself
    /// fails repeatedly while shard commits keep advancing, the record
    /// can fall more than one epoch behind and the next open reports it
    /// stale (`Corrupt`) instead of guessing.
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
        if self.ios.is_empty() {
            return Ok(());
        }
        match &mut self.dict {
            DbDict::Single(s) => {
                let meta = s.save_meta();
                self.ios[0].commit_meta(&meta)?;
            }
            DbDict::Sharded(r) => {
                let shards = r.shards_mut();
                debug_assert_eq!(shards.len(), self.ios.len());
                for (shard, io) in shards.iter_mut().zip(&self.ios) {
                    let meta = shard.save_meta();
                    io.commit_meta(&meta)?;
                }
                // Cross-shard commit point: rename the epoch vector into
                // place only after every shard's own commit is durable.
                if let Some(cp) = &self.commit_path {
                    let epochs: Vec<u64> = self.ios.iter().map(StoreHandle::epoch).collect();
                    write_file_atomic(cp, &encode_commit_record(&epochs))?;
                }
            }
        }
        self.dirty = false;
        Ok(())
    }

    /// The single entry point to the backing stores' I/O counters: a
    /// cheap, cloneable [`IoHandle`] with
    /// [`snapshot`](IoHandle::snapshot) / [`take`](IoHandle::take) /
    /// [`reset`](IoHandle::reset). Counters aggregate (sum fieldwise)
    /// across shards; for memory backends the handle is empty and every
    /// counter reads zero ([`IoHandle::is_instrumented`] distinguishes
    /// the two). The handle stays valid while the database is mutably
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
            let base = self.dict.as_dyn().range(0, u64::MAX);
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
    /// serializable [`DbConfig`] — the round-trip companion of
    /// [`DbBuilder::from_config`].
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
        self.dict.as_dyn_ref().physical_len()
    }

    fn name(&self) -> &'static str {
        self.dict.as_dyn_ref().name()
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
                .shard_splitters(vec![500])
                .parallel_ingest(true),
            DbBuilder::new()
                .structure(Structure::Shuttle { c: 4 })
                .shards(3)
                .shard_splitters(vec![300, 900]),
        ]);
        configs
    }

    /// The manifest and the commit record round-trip, and every
    /// truncation of either, or a flipped bit in any byte, decodes to an
    /// error or a value, never a panic.
    #[test]
    fn shard_records_decode_corruption_without_panicking() {
        let manifest = Manifest {
            shards: 3,
            structure_tag: TAG_GCOLA,
            param: 4,
            splitters: vec![100, 10_000],
        };
        assert_eq!(Manifest::decode(&manifest.encode()), Ok(manifest.clone()));
        let epochs = [7, 9, 11];
        let record = encode_commit_record(&epochs);
        assert_eq!(decode_commit_record(&record), Ok(epochs.to_vec()));
        for buf in [manifest.encode(), record] {
            for len in 0..buf.len() {
                assert!(Manifest::decode(&buf[..len]).is_err(), "cut to {len}");
                assert!(decode_commit_record(&buf[..len]).is_err(), "cut to {len}");
            }
            for i in 0..buf.len() {
                let mut bad = buf.clone();
                bad[i] ^= 1 << (i % 8);
                assert!(Manifest::decode(&bad).is_err(), "byte {i} flipped");
                assert!(decode_commit_record(&bad).is_err(), "byte {i} flipped");
            }
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
            .parallel_ingest(true)
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
        assert_eq!(
            paths.len(),
            5,
            "3 shard files plus the routing manifest and the commit record"
        );
        for (i, p) in paths[..3].iter().enumerate() {
            assert!(
                p.to_string_lossy().ends_with(&format!(".shard{i}")),
                "{p:?}"
            );
        }
        assert!(
            paths[3].to_string_lossy().ends_with(".manifest"),
            "{:?}",
            paths[3]
        );
        assert!(
            paths[4].to_string_lossy().ends_with(".commit"),
            "{:?}",
            paths[4]
        );
        // The advertised contract: building then unlinking data_paths
        // leaves nothing behind.
        let db = b.clone().build().unwrap();
        drop(db);
        for p in b.data_paths() {
            assert!(p.exists(), "{p:?} was created by build");
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn matrix_cells_all_build_and_cover_every_structure() {
        let cells = DbBuilder::matrix(&[1, 2, 4]);
        assert_eq!(cells.len(), 9 * 3);
        let labels: Vec<String> = cells.iter().map(|b| b.label()).collect();
        for b in cells {
            b.build().expect("every matrix cell must build");
        }
        for needle in [
            "basic-COLA",
            "deamortized-basic-COLA",
            "2-COLA",
            "deamortized-2-COLA",
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
            .structure(Structure::BTree)
            .deamortized()
            .build()
            .is_err());
        assert!(DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .deamortized()
            .build()
            .is_err());
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
            .structure(Structure::BTree)
            .deamortized()
            .build()
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("valid combinations are:"),
            "error should enumerate alternatives, got: {msg}"
        );
        // Every structure appears in the enumeration.
        for name in ["BasicCola", "GCola", "BTree", "Brt", "Shuttle"] {
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
                .structure(Structure::BasicCola)
                .deamortized()
                .label(),
            "deamortized-basic-COLA"
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
            .deamortized()
            .pointer_density(0.25)
            .shards(3)
            .shard_splitters(vec![100, 200])
            .parallel_ingest(true)
            .cache_bytes(1 << 20)
            .backend(Backend::file_direct("scratch.db"));
        let cfg = b.config();
        assert_eq!(DbBuilder::from_config(&cfg).config(), cfg);
        assert_eq!(DbBuilder::from_config(&cfg).label(), b.label());
        assert_eq!(cfg.backend_kind(), "file-direct");
        assert!(cfg.direct());
        assert_eq!(
            cfg.identity(),
            DbBuilder::from_config(&cfg).config().identity()
        );

        let mem = DbBuilder::new().config();
        assert_eq!(mem.backend_kind(), "mem");
        assert!(!mem.direct());
        assert_ne!(mem.identity(), cfg.identity());
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

        // Reopening without splitters recovers them from the manifest,
        // so the recorded config reproduces the layout exactly.
        let db = DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .backend(Backend::file(path.to_path_buf()))
            .cache_bytes(128 * 1024)
            .shards(2)
            .open()
            .unwrap();
        assert_eq!(db.config().splitters, Some(vec![1000]));
        assert_eq!(db.config().identity(), built_cfg.identity());
        drop(db);
        for p in data_paths_for(&path) {
            std::fs::remove_file(p).ok();
        }
    }

    fn data_paths_for(base: &Path) -> Vec<PathBuf> {
        let mut out = vec![base.to_path_buf()];
        for i in 0..8 {
            let mut os = base.to_path_buf().into_os_string();
            os.push(format!(".shard{i}"));
            out.push(PathBuf::from(os));
        }
        out
    }

    #[test]
    fn db_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Db>();
        assert_send::<IoHandle>();
    }
}

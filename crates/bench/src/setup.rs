//! Dictionary constructors over the out-of-core file backend, mirroring
//! the paper's experimental setup: 32-byte elements for the COLAs, 4 KiB
//! blocks for the trees, data on disk, and an explicit (user-space)
//! memory budget standing in for the machine's RAM.
//!
//! Everything here is a thin layer over [`cosbt::DbBuilder`] — the bench
//! harness configures structures exactly the way library users do, plus
//! delete-on-drop data files and the paper's legend labels.

use std::path::{Path, PathBuf};

use cosbt::{Backend, Db, DbBuilder, IoHandle, Structure};
use cosbt_dam::IoStats;

/// Which dictionary to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictKind {
    /// g-COLA with the paper's pointer density 0.1.
    GCola(usize),
    /// Basic COLA (no lookahead pointers).
    Basic,
    /// Deamortized COLA.
    Deamort,
    /// Baseline B+-tree.
    BTree,
    /// Buffered repository tree.
    Brt,
}

impl DictKind {
    /// The [`DbBuilder`] configuration for this kind (memory backend;
    /// callers override the backend).
    pub fn builder(&self) -> DbBuilder {
        match *self {
            DictKind::GCola(g) => DbBuilder::new().structure(Structure::GCola { g }),
            DictKind::Basic => DbBuilder::new().structure(Structure::BasicCola),
            DictKind::Deamort => DbBuilder::new()
                .structure(Structure::GCola { g: 2 })
                .deamortized(),
            DictKind::BTree => DbBuilder::new().structure(Structure::BTree),
            DictKind::Brt => DbBuilder::new().structure(Structure::Brt),
        }
    }

    /// Display label matching the paper's legends ("2-COLA", "B-tree", …).
    pub fn label(&self) -> String {
        self.builder().label()
    }
}

/// An out-of-core dictionary: file-backed storage behind a bounded
/// user-space page cache, plus a handle for I/O statistics and cache
/// control. The backing file is deleted on drop.
pub struct OutOfCore {
    /// The dictionary under test.
    pub dict: Db,
    path: PathBuf,
}

impl OutOfCore {
    /// Creates `kind` with its data file under `dir` and a memory budget
    /// of `cache_bytes`.
    pub fn create(kind: DictKind, dir: &Path, cache_bytes: usize) -> OutOfCore {
        std::fs::create_dir_all(dir).expect("create bench dir");
        let path = dir.join(format!(
            "cosbt-{}-{}.dat",
            kind.label().to_lowercase().replace(' ', "-"),
            std::process::id()
        ));
        let dict = kind
            .builder()
            .backend(Backend::file(path.clone()))
            .cache_bytes(cache_bytes)
            .build()
            .expect("out-of-core configuration must build");
        OutOfCore { dict, path }
    }

    /// A cloneable counter reader decoupled from the dictionary borrow.
    pub fn probe(&self) -> IoHandle {
        self.dict.io()
    }

    /// Real-I/O counters of the backing store.
    pub fn io_stats(&self) -> IoStats {
        self.dict.io().snapshot()
    }

    /// Resets the I/O counters.
    pub fn reset_stats(&self) {
        self.dict.io().reset()
    }

    /// Empties the user-space page cache — the paper's "remounted the
    /// RAID array's file system … to clear the file cache".
    pub fn drop_cache(&self) {
        self.dict.drop_cache().expect("cache writeback failed")
    }
}

impl Drop for OutOfCore {
    fn drop(&mut self) {
        // A bench scratch store is deleted, not kept: skip the Db's
        // sync-on-drop commit before unlinking its file.
        self.dict.discard_on_drop();
        // Best-effort: scratch files live in a temp dir anyway.
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_constructs_and_roundtrips() {
        let dir = cosbt_testkit::TempPath::new("setup");
        for kind in [
            DictKind::GCola(4),
            DictKind::Basic,
            DictKind::Deamort,
            DictKind::BTree,
            DictKind::Brt,
        ] {
            let mut ooc = OutOfCore::create(kind, &dir, 64 * 1024);
            for k in 0..2000u64 {
                ooc.dict.insert(k * 3, k);
            }
            ooc.drop_cache();
            for k in (0..2000u64).step_by(97) {
                assert_eq!(ooc.dict.get(k * 3), Some(k), "{}", kind.label());
                assert_eq!(ooc.dict.get(k * 3 + 1), None, "{}", kind.label());
            }
            assert!(ooc.io_stats().accesses > 0, "{}", kind.label());
        }
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(DictKind::GCola(2).label(), "2-COLA");
        assert_eq!(DictKind::GCola(8).label(), "8-COLA");
        assert_eq!(DictKind::BTree.label(), "B-tree");
    }

    #[test]
    fn batched_updates_reach_disk() {
        let dir = cosbt_testkit::TempPath::new("setup");
        for kind in [DictKind::GCola(4), DictKind::Basic, DictKind::Brt] {
            let mut ooc = OutOfCore::create(kind, &dir, 64 * 1024);
            let run: Vec<(u64, u64)> = (0..4096u64).map(|k| (k * 2, k)).collect();
            ooc.dict.insert_batch(&run);
            ooc.drop_cache();
            assert_eq!(ooc.dict.get(4096), Some(2048), "{}", kind.label());
        }
    }
}

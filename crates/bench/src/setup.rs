//! Dictionary constructors over the out-of-core file backend, mirroring
//! the paper's experimental setup: 32-byte elements for the COLAs, 4 KiB
//! blocks for the trees, data on disk, and an explicit (user-space)
//! memory budget standing in for the machine's RAM.
//!
//! Everything here is a thin layer over [`cosbt::DbBuilder`] — the bench
//! harness configures structures exactly the way library users do, plus
//! delete-on-drop data files. [`cosbt::DbConfig::label`] gives the
//! paper's legend labels ("2-COLA", "B-tree", …).

use std::path::{Path, PathBuf};

use cosbt::{Backend, Db, DbBuilder, Structure};

/// An out-of-core dictionary: file-backed storage behind a bounded
/// user-space page cache ([`Db::io`] counts its transfers). The backing
/// file is deleted on drop.
pub struct OutOfCore {
    /// The dictionary under test.
    pub dict: Db,
    path: PathBuf,
}

impl OutOfCore {
    /// Creates `structure` (the paper's pointer density 0.1 for a
    /// g-COLA) with its data file under `dir` and a memory budget of
    /// `cache_bytes`.
    pub fn create(structure: Structure, dir: &Path, cache_bytes: usize) -> OutOfCore {
        std::fs::create_dir_all(dir).expect("create bench dir");
        let builder = DbBuilder::new().structure(structure);
        let path = dir.join(format!(
            "cosbt-{}-{}.dat",
            builder.label().to_lowercase().replace(' ', "-"),
            std::process::id()
        ));
        let dict = builder
            .backend(Backend::file(path.clone()))
            .cache_bytes(cache_bytes)
            .build()
            .expect("out-of-core configuration must build");
        OutOfCore { dict, path }
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
        for structure in [
            Structure::GCola { g: 4 },
            Structure::BasicCola,
            Structure::DeamortizedCola,
            Structure::BTree,
            Structure::Brt,
        ] {
            let mut ooc = OutOfCore::create(structure, &dir, 64 * 1024);
            let label = ooc.dict.label().to_string();
            for k in 0..2000u64 {
                ooc.dict.insert(k * 3, k);
            }
            ooc.drop_cache();
            for k in (0..2000u64).step_by(97) {
                assert_eq!(ooc.dict.get(k * 3), Some(k), "{label}");
                assert_eq!(ooc.dict.get(k * 3 + 1), None, "{label}");
            }
            assert!(ooc.dict.io().snapshot().accesses > 0, "{label}");
        }
    }

    #[test]
    fn labels_match_paper_legends() {
        let label = |s| DbBuilder::new().structure(s).label();
        assert_eq!(label(Structure::GCola { g: 2 }), "2-COLA");
        assert_eq!(label(Structure::GCola { g: 8 }), "8-COLA");
        assert_eq!(label(Structure::BTree), "B-tree");
    }

    #[test]
    fn batched_updates_reach_disk() {
        let dir = cosbt_testkit::TempPath::new("setup");
        for structure in [
            Structure::GCola { g: 4 },
            Structure::BasicCola,
            Structure::Brt,
        ] {
            let mut ooc = OutOfCore::create(structure, &dir, 64 * 1024);
            let run: Vec<(u64, u64)> = (0..4096u64).map(|k| (k * 2, k)).collect();
            ooc.dict.insert_batch(&run);
            ooc.drop_cache();
            assert_eq!(ooc.dict.get(4096), Some(2048), "{}", ooc.dict.label());
        }
    }
}

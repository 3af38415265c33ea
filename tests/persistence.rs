//! Reopen round-trip property suite + typed open-error contract.
//!
//! For every file-backed cell of the `DbBuilder` matrix (including
//! sharded and parallel-ingest configurations): ingest a seeded workload
//! against a `BTreeMap` model, sync, drop the handle, reopen, and assert
//! full conformance — point lookups (hits and misses), forward and
//! backward cursors, continued writes, and a second sync/reopen cycle.
//! Then the error contract: wrong magic, unsupported format version,
//! page-size/structure/shard-count/splitter mismatches each produce a
//! distinct [`OpenError`] variant and never modify or unlink the file.

#[path = "../crates/core/tests/fixtures/legacy.rs"]
mod legacy_fixtures;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cosbt::testkit::{Rng, TempPath};
use cosbt::{Backend, DbBuilder, OpenError, Structure};

fn tmp(name: &str) -> TempPath {
    TempPath::new(&format!("persist-{name}.db"))
}

/// Seeded mixed workload applied to both the db and the model.
fn ingest(db: &mut cosbt::Db, model: &mut BTreeMap<u64, u64>, rng: &mut Rng, ops: usize) {
    for _ in 0..ops {
        // Spread keys over the full u64 space so every shard owns some.
        let k = rng.next_u64() >> rng.below(40);
        if rng.chance(1, 6) {
            db.delete(k);
            model.remove(&k);
        } else {
            let v = rng.next_u64();
            db.insert(k, v);
            model.insert(k, v);
        }
    }
    let mut batch: Vec<(u64, u64)> = (0..200)
        .map(|_| (rng.next_u64() >> rng.below(40), rng.next_u64()))
        .collect();
    batch.sort_unstable_by_key(|&(k, _)| k);
    db.insert_batch(&batch);
    for &(k, v) in cosbt::cola::dict::dedup_sorted_last_wins(&batch).iter() {
        model.insert(k, v);
    }
}

/// Full conformance of a reopened db against the model.
fn conform(db: &mut cosbt::Db, model: &BTreeMap<u64, u64>, rng: &mut Rng, label: &str) {
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(db.range(0, u64::MAX), want, "{label}: full range");
    // Point lookups: every 7th live key, plus guaranteed misses.
    for (&k, &v) in model.iter().step_by(7) {
        assert_eq!(db.get(k), Some(v), "{label}: get({k})");
    }
    for _ in 0..32 {
        let k = rng.next_u64() | 1 << 63;
        if !model.contains_key(&k) {
            assert_eq!(db.get(k), None, "{label}: phantom key {k}");
        }
    }
    // Bidirectional cursor: walk the tail forward, then back.
    if want.len() >= 4 {
        let mid = want[want.len() / 2].0;
        let mut cur = db.cursor(mid, u64::MAX);
        let a = cur.next();
        let b = cur.next();
        assert_eq!(cur.prev(), b, "{label}: cursor prev revisits");
        assert_eq!(cur.prev(), a, "{label}: cursor walks back");
        cur.seek(mid);
        assert_eq!(cur.next(), a, "{label}: seek re-positions");
    }
}

/// Every file-backed matrix cell (sharded and parallel included)
/// round-trips through sync → drop → open.
#[test]
fn reopen_round_trip_across_the_matrix() {
    let mut cells: Vec<DbBuilder> = DbBuilder::matrix(&[1, 3])
        .into_iter()
        .filter(|b| !matches!(structure_of(b), Structure::Shuttle { .. }))
        .collect();
    cells.push(
        DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .shards(4)
            .parallel_ingest(true),
    );
    for (i, cell) in cells.into_iter().enumerate() {
        let path = tmp(&format!("matrix{i}"));
        let builder = cell
            .backend(Backend::file(path.to_path_buf()))
            .cache_bytes(512 * 1024);
        let label = builder.label();
        let mut rng = Rng::new(42 + i as u64);
        let mut model = BTreeMap::new();

        let mut db = builder
            .clone()
            .build()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        ingest(&mut db, &mut model, &mut rng, 900);
        db.sync().unwrap_or_else(|e| panic!("{label}: sync: {e}"));
        drop(db);

        let mut db = builder
            .clone()
            .open()
            .unwrap_or_else(|e| panic!("{label}: reopen: {e}"));
        // A reopened file-backed store starts cold: reads do real I/O.
        db.io().reset();
        conform(&mut db, &model, &mut rng, &label);
        assert!(
            db.io().snapshot().accesses > 0,
            "{label}: reopened store served reads from its file"
        );

        // The database keeps working after reopen; a second cycle (this
        // time closed by sync-on-drop, not an explicit sync) round-trips
        // too.
        ingest(&mut db, &mut model, &mut rng, 300);
        drop(db);
        let mut db = builder
            .clone()
            .open()
            .unwrap_or_else(|e| panic!("{label}: second reopen: {e}"));
        conform(&mut db, &model, &mut rng, &format!("{label} (2nd cycle)"));
        drop(db);
    }
}

/// `open_or_create` creates on a missing path and opens (does not
/// truncate) an existing one.
#[test]
fn open_or_create_semantics() {
    let path = tmp("ooc");
    let builder = DbBuilder::new()
        .structure(Structure::BTree)
        .backend(Backend::file(path.to_path_buf()));

    assert!(matches!(builder.clone().open(), Err(OpenError::Missing(_))));
    let mut db = builder.clone().open_or_create().unwrap();
    db.insert(1, 10);
    db.sync().unwrap();
    drop(db);
    let mut db = builder.clone().open_or_create().unwrap();
    assert_eq!(db.get(1), Some(10), "open_or_create must not truncate");
    drop(db);
}

fn structure_of(b: &DbBuilder) -> Structure {
    // The builder doesn't expose its structure; recover it from the
    // label, which is stable API.
    let l = b.label();
    if l.contains("shuttle") {
        Structure::Shuttle { c: 4 }
    } else if l.contains("B-tree") {
        Structure::BTree
    } else if l.contains("BRT") {
        Structure::Brt
    } else {
        Structure::BasicCola // COLA family: kept, not filtered
    }
}

/// Helper: a valid synced single-file GCola store at `path`.
fn make_gcola_store(path: &std::path::Path) -> DbBuilder {
    let builder = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(path.to_path_buf()));
    let mut db = builder.clone().build().unwrap();
    for k in 0..500u64 {
        db.insert(k, k);
    }
    db.sync().unwrap();
    drop(db);
    builder
}

#[test]
fn wrong_magic_is_typed_and_nondestructive() {
    let path = tmp("magic");
    std::fs::write(&path, b"definitely not a cosbt store, precious bytes").unwrap();
    let before = std::fs::read(&path).unwrap();
    let err = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(path.to_path_buf()))
        .open()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            OpenError::Store {
                source: cosbt::dam::OpenError::BadMagic,
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "failed open must not modify the file"
    );
}

#[test]
fn unsupported_version_is_typed_and_nondestructive() {
    use cosbt::dam::format::{Superblock, DEFAULT_SLOT_BYTES, KIND_ELEM};
    let path = tmp("version");
    let sb = Superblock {
        version: 999,
        page_size: 4096,
        kind: KIND_ELEM,
        elem_bytes: 32,
        slot_bytes: DEFAULT_SLOT_BYTES as u32,
    };
    std::fs::write(&path, sb.encode()).unwrap();
    let before = std::fs::read(&path).unwrap();
    let err = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(path.to_path_buf()))
        .open()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            OpenError::Store {
                source: cosbt::dam::OpenError::UnsupportedVersion(999),
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(std::fs::read(&path).unwrap(), before);
}

#[test]
fn page_size_mismatch_is_typed_and_nondestructive() {
    use cosbt::cola::entry::Cell;
    use cosbt::dam::FileMem;
    let path = tmp("pagesize");
    // A valid store written with a non-default page size.
    let mut fm: FileMem<Cell> = FileMem::create(&path, 1024, 4, 32).unwrap();
    fm.commit_meta(b"").unwrap();
    drop(fm);
    let before = std::fs::read(&path).unwrap();
    let err = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(path.to_path_buf()))
        .open()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            OpenError::PageSizeMismatch {
                found: 1024,
                expected: 4096,
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(std::fs::read(&path).unwrap(), before);
}

#[test]
fn structure_mismatch_is_typed_and_nondestructive() {
    // Same store kind (element array), different structure: BasicCola
    // file opened as a GCola.
    let path = tmp("structure");
    let builder = DbBuilder::new()
        .structure(Structure::BasicCola)
        .backend(Backend::file(path.to_path_buf()));
    let mut db = builder.clone().build().unwrap();
    db.insert(1, 1);
    db.sync().unwrap();
    drop(db);
    let before = std::fs::read(&path).unwrap();

    let err = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(path.to_path_buf()))
        .open()
        .unwrap_err();
    assert!(matches!(&err, OpenError::StructureMismatch { .. }), "{err}");

    // Different parameters of the same structure are a mismatch too.
    let g_path = tmp("structure-g");
    make_gcola_store(&g_path);
    let err = DbBuilder::new()
        .structure(Structure::GCola { g: 8 })
        .backend(Backend::file(g_path.to_path_buf()))
        .open()
        .unwrap_err();
    assert!(matches!(&err, OpenError::StructureMismatch { .. }), "{err}");

    // The basic COLA is the 2-COLA without lookahead pointers: a 2-COLA
    // that has them is not one.
    let p_path = tmp("structure-p");
    let mut db = DbBuilder::new()
        .structure(Structure::GCola { g: 2 })
        .pointer_density(0.1)
        .backend(Backend::file(p_path.to_path_buf()))
        .build()
        .unwrap();
    db.insert(1, 1);
    db.sync().unwrap();
    drop(db);
    let p_before = std::fs::read(&p_path).unwrap();
    let err = DbBuilder::new()
        .structure(Structure::BasicCola)
        .backend(Backend::file(p_path.to_path_buf()))
        .open()
        .unwrap_err();
    assert!(matches!(&err, OpenError::StructureMismatch { .. }), "{err}");
    assert_eq!(std::fs::read(&p_path).unwrap(), p_before);

    // A page store (B-tree) opened as an element array (COLA) is caught
    // one layer down, still typed, still nondestructive.
    let bt_path = tmp("structure-bt");
    let bt = DbBuilder::new()
        .structure(Structure::BTree)
        .backend(Backend::file(bt_path.to_path_buf()));
    drop(bt.clone().build().unwrap());
    let err = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(bt_path.to_path_buf()))
        .open()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            OpenError::Store {
                source: cosbt::dam::OpenError::WrongKind { .. },
                ..
            }
        ),
        "{err}"
    );

    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "failed opens must not modify the file"
    );
}

#[test]
fn shard_layout_mismatches_are_typed() {
    let base = tmp("shardcfg");
    let builder = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(base.to_path_buf()))
        .cache_bytes(512 * 1024)
        .shards(3)
        .shard_splitters(vec![100, 10_000]);
    let mut db = builder.clone().build().unwrap();
    db.insert_batch(&[(5, 1), (5_000, 2), (1 << 40, 3)]);
    db.sync().unwrap();
    drop(db);

    // Wrong shard count.
    let err = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(base.to_path_buf()))
        .cache_bytes(512 * 1024)
        .shards(2)
        .open()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            OpenError::ShardCountMismatch {
                found: 3,
                expected: 2
            }
        ),
        "{err}"
    );

    // Wrong splitters.
    let err = builder
        .clone()
        .shard_splitters(vec![7, 8])
        .open()
        .unwrap_err();
    assert!(matches!(&err, OpenError::SplitterMismatch { .. }), "{err}");

    // Omitting splitters adopts the persisted routing.
    let mut db = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(base.to_path_buf()))
        .cache_bytes(512 * 1024)
        .shards(3)
        .open()
        .unwrap();
    assert_eq!(db.get(5), Some(1));
    assert_eq!(db.get(5_000), Some(2));
    assert_eq!(db.get(1 << 40), Some(3));
    drop(db);
}

#[test]
fn never_synced_store_is_typed() {
    use cosbt::cola::entry::Cell;
    use cosbt::dam::FileMem;
    let path = tmp("neversynced");
    // Created at the storage layer but never committed.
    let fm: FileMem<Cell> = FileMem::create(&path, 4096, 4, 32).unwrap();
    drop(fm);
    let err = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(path.to_path_buf()))
        .open()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            OpenError::Store {
                source: cosbt::dam::OpenError::NeverCommitted,
                ..
            }
        ),
        "{err}"
    );
    // open_or_create must NOT clobber a present-but-unsynced file.
    assert!(DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(path.to_path_buf()))
        .open_or_create()
        .is_err());
}

/// Opening with the memory backend is a typed configuration error.
#[test]
fn mem_backend_has_nothing_to_open() {
    let err = DbBuilder::new().open().unwrap_err();
    assert!(matches!(err, OpenError::Unsupported(_)), "{err}");
}

/// Cross-shard crash atomicity: a crash between two shards' commits must
/// not surface a mixed whole-database state. Simulated by advancing one
/// shard's store a full epoch past the cross-shard commit record — the
/// exact on-disk state such a crash leaves — and reopening: the sharded
/// open must roll that shard back to its recorded epoch.
#[test]
fn sharded_open_rolls_back_a_shard_committed_past_the_record() {
    let base = tmp("xshard");
    let sharded = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(base.to_path_buf()))
        .cache_bytes(512 * 1024)
        .shards(2);
    let mut db = sharded.clone().build().unwrap();
    db.insert(5, 50); // shard 0
    db.insert(u64::MAX - 5, 60); // shard 1
    db.sync().unwrap();
    drop(db);

    // "Crash" re-enactment: shard 0's file is itself a valid unsharded
    // store, so open it standalone and commit one more epoch with an
    // extra key — the commit record still points at the previous epoch,
    // exactly as if a 2-shard sync died after shard 0's commit.
    let shard0 = {
        let mut os = base.to_path_buf().into_os_string();
        os.push(".shard0");
        PathBuf::from(os)
    };
    let mut half_synced = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(shard0))
        .open()
        .unwrap();
    assert_eq!(half_synced.get(5), Some(50));
    half_synced.insert(7, 70);
    half_synced.sync().unwrap();
    drop(half_synced);

    // The sharded open must recover the pre-"crash" whole-DB state: the
    // orphaned epoch (key 7) is rolled back, nothing else is lost.
    let mut db = sharded.clone().open().unwrap();
    assert_eq!(db.get(5), Some(50));
    assert_eq!(db.get(u64::MAX - 5), Some(60));
    assert_eq!(
        db.get(7),
        None,
        "a shard epoch past the commit record must be rolled back"
    );
    // And the database continues normally: the next sync overwrites the
    // orphaned slot and advances the record.
    db.insert(8, 80);
    db.sync().unwrap();
    drop(db);
    let mut db = sharded.clone().open().unwrap();
    assert_eq!(db.get(8), Some(80));
    drop(db);
}

/// `open_or_create` must never truncate a *partially* missing store: a
/// lost manifest next to intact shard files surfaces the Missing error
/// instead of rebuilding (which would destroy the shard data).
#[test]
fn open_or_create_refuses_partial_stores() {
    let base = tmp("partial");
    let sharded = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(base.to_path_buf()))
        .cache_bytes(512 * 1024)
        .shards(2);
    let mut db = sharded.clone().build().unwrap();
    db.insert(5, 50);
    db.sync().unwrap();
    drop(db);
    let manifest = sharded
        .data_paths()
        .into_iter()
        .find(|p| p.to_string_lossy().ends_with(".manifest"))
        .unwrap();
    std::fs::remove_file(&manifest).unwrap();
    let err = sharded.clone().open_or_create().unwrap_err();
    assert!(matches!(err, OpenError::Missing(_)), "{err}");
    // The shard files survived untouched: restoring the manifest by
    // normal means would still recover the data (prove it by checking
    // the shard file is a non-empty, committed store).
    let shard0 = {
        let mut os = base.to_path_buf().into_os_string();
        os.push(".shard0");
        PathBuf::from(os)
    };
    let mut standalone = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(shard0))
        .open()
        .unwrap();
    assert_eq!(
        standalone.get(5),
        Some(50),
        "open_or_create must not have truncated the shard data"
    );
    drop(standalone);
}

/// The metadata-slot capacity knob reaches the files and survives
/// reopen (the capacity lives in the superblock, not the builder).
#[test]
fn meta_slot_capacity_is_configurable_and_persisted() {
    let path = tmp("slotcap");
    let builder = DbBuilder::new()
        .structure(Structure::BTree)
        .backend(Backend::file(path.to_path_buf()))
        .meta_slot_bytes(1024 * 1024);
    let mut db = builder.clone().build().unwrap();
    for k in 0..5000u64 {
        db.insert(k, k);
    }
    db.sync().unwrap();
    drop(db);
    // Open ignores the builder's slot setting and reads the file's.
    let mut db = builder.clone().meta_slot_bytes(4096).open().unwrap();
    assert_eq!(db.get(4999), Some(4999));
    drop(db);
    // And a nonsensical capacity is a build-time error.
    assert!(DbBuilder::new()
        .backend(Backend::file(tmp("slotcap2").to_path_buf()))
        .meta_slot_bytes(64)
        .build()
        .is_err());
}

/// A missing cross-shard commit record is a typed error, and
/// `open_or_create` refuses to clobber the shard files over it.
#[test]
fn missing_commit_record_is_typed() {
    let base = tmp("norecord");
    let sharded = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(base.to_path_buf()))
        .cache_bytes(512 * 1024)
        .shards(2);
    let mut db = sharded.clone().build().unwrap();
    db.insert(1, 1);
    db.sync().unwrap();
    drop(db);
    let commit = sharded
        .data_paths()
        .into_iter()
        .find(|p| p.to_string_lossy().ends_with(".commit"))
        .unwrap();
    std::fs::remove_file(&commit).unwrap();
    let err = sharded.clone().open().unwrap_err();
    assert!(
        matches!(
            &err,
            OpenError::Store {
                source: cosbt::dam::OpenError::NeverCommitted,
                ..
            }
        ),
        "{err}"
    );
    assert!(sharded.clone().open_or_create().is_err());
}

/// A store whose *storage-layer* commit is pristine but whose committed
/// structure metadata carries corrupted cascade fence keys: `open()`
/// must produce the typed [`OpenError::Meta`] — never a database that
/// silently serves wrong answers — and must leave the file untouched.
#[test]
fn corrupt_cascade_fences_are_a_typed_open_error() {
    use cosbt::cola::entry::Cell;
    use cosbt::cola::{Dictionary, GCola, Persist};
    use cosbt::dam::{ArcFileMem, FileMem, DEFAULT_PAGE_SIZE};

    let path = tmp("fences");
    {
        let fm: FileMem<Cell> = FileMem::create(&path, DEFAULT_PAGE_SIZE, 4, 32).unwrap();
        let store = ArcFileMem::new(fm);
        let mut cola = GCola::new(store.clone(), 4, 0.1);
        for k in 0..800u64 {
            cola.insert(k * 3 + 1, k);
        }
        // The fence keys are the trailing fields of the v2 payload:
        // flipping the last 8 bytes corrupts the deepest level's max
        // fence while the storage-layer commit stays perfectly valid.
        let mut meta = cola.save_meta();
        let n = meta.len();
        for b in &mut meta[n - 8..] {
            *b ^= 0xFF;
        }
        store.commit_meta(&meta).unwrap();
    }
    let before = std::fs::read(&path).unwrap();
    let err = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(path.to_path_buf()))
        .open()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            OpenError::Meta {
                source: cosbt::cola::MetaError::Invalid(_),
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "failed open must not modify the file"
    );
}

/// Reopening a file-backed COLA rebuilds the cascade accelerators from
/// the committed cells: cold beyond-fence misses then read **zero**
/// pages — the rebuilt fences, not the dropped page cache, reject them.
#[test]
fn reopen_rebuilds_cascade_accelerators() {
    let cells = [
        (Structure::BasicCola, false),
        (Structure::BasicCola, true),
        (Structure::GCola { g: 2 }, false),
        (Structure::GCola { g: 2 }, true),
    ];
    for (i, (s, deamortized)) in cells.into_iter().enumerate() {
        let path = tmp(&format!("cascade{i}"));
        let mut builder = DbBuilder::new()
            .structure(s)
            .backend(Backend::file(path.to_path_buf()))
            .cache_bytes(256 * 1024);
        if deamortized {
            builder = builder.deamortized();
        }
        let label = builder.label();
        let mut db = builder.clone().build().unwrap();
        for k in 0..3_000u64 {
            db.insert(k * 3 + 1, k);
        }
        db.sync().unwrap();
        drop(db);

        let mut db = builder.open().unwrap();
        db.drop_cache().unwrap();
        db.io().reset();
        for p in 0..64u64 {
            assert_eq!(db.get(u64::MAX - p), None, "{label}: far miss");
        }
        assert_eq!(
            db.io().snapshot().fetches,
            0,
            "{label}: rebuilt fences must reject far misses without reads"
        );
        assert_eq!(db.get(4), Some(1), "{label}: hit after reopen");
    }
}

/// The file a retired engine left at `path`: `fx`'s cells in a fresh
/// element store, and its meta as the committed payload.
fn write_retired_store(path: &Path, fx: &legacy_fixtures::Fixture) {
    use cosbt::cola::entry::Cell;
    use cosbt::dam::{FileMem, DEFAULT_PAGE_SIZE};

    let mut fm: FileMem<Cell> = FileMem::create(path, DEFAULT_PAGE_SIZE, 4, 32).unwrap();
    fm.resize(fx.cells.len(), Cell::default());
    for (i, &cell) in fx.cells.iter().enumerate() {
        fm.set(i, cell);
    }
    fm.commit_meta(&fx.meta).unwrap();
}

/// The structure meta committed in the element store at `path`.
fn committed_meta(path: &Path) -> Vec<u8> {
    use cosbt::cola::entry::Cell;
    use cosbt::dam::{DirectFile, FileMem};

    let dev = DirectFile::open(path, false).unwrap();
    FileMem::<Cell, DirectFile>::open_on(dev, 4, 32).unwrap().1
}

/// A store in a retired format opens under exactly the configurations
/// whose engine it is rebuilt into: the basic COLA's own format under
/// `BasicCola`, the three-array format under either deamortized
/// configuration. Every other COLA configuration refuses it with
/// `StructureMismatch` and leaves the file as it was. An accepted open
/// answers as the store did and commits nothing until a `sync`: a
/// read-only session leaves the retired meta committed, and a session
/// that writes and syncs commits the current format.
#[test]
fn retired_formats_open_under_their_heirs_only() {
    use cosbt::cola::persist::{TAG_DEAMORT_BASIC, TAG_GCOLA};

    let mut configs: Vec<DbBuilder> = DbBuilder::matrix(&[1])
        .into_iter()
        .filter(|b| {
            matches!(
                b.config().structure,
                Structure::BasicCola | Structure::GCola { .. }
            )
        })
        .collect();
    // The basic COLA's geometry, but not the basic COLA configuration.
    configs.push(
        DbBuilder::new()
            .structure(Structure::GCola { g: 2 })
            .pointer_density(0.0),
    );
    let fixtures = [
        ("basic", legacy_fixtures::basic(), TAG_GCOLA),
        (
            "three-array",
            legacy_fixtures::three_array(),
            TAG_DEAMORT_BASIC,
        ),
    ];
    for (name, fx, current) in fixtures {
        let mut opened = Vec::new();
        for (i, config) in configs.iter().enumerate() {
            let path = tmp(&format!("retired-{name}-{i}"));
            write_retired_store(&path, &fx);
            let before = std::fs::read(&path).unwrap();
            let builder = config
                .clone()
                .backend(Backend::file(path.to_path_buf()))
                .cache_bytes(64 * 1024);
            let label = format!("{name} store under {}", builder.label());
            let cfg = builder.config();
            let heir = match (cfg.structure, cfg.deamortized) {
                (Structure::BasicCola, false) => name == "basic",
                (_, deamortized) => deamortized && name == "three-array",
            };
            let mut db = match builder.clone().open() {
                Ok(db) if heir => db,
                Err(OpenError::StructureMismatch { .. }) if !heir => {
                    let after = std::fs::read(&path).unwrap();
                    assert!(after == before, "{label}: a refused open wrote the file");
                    continue;
                }
                other => panic!("{label}: {:?}", other.err().map(|e| e.to_string())),
            };
            opened.push(builder.label());

            let mut model = fx.model.clone();
            for key in 0..50 {
                assert_eq!(db.get(key), model.get(&key).copied(), "{label}: key {key}");
            }
            let live: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(db.range(0, u64::MAX), live, "{label}: scan");
            drop(db);
            assert_eq!(
                committed_meta(&path),
                fx.meta,
                "{label}: a read-only session committed its rewrite"
            );

            let mut db = builder.clone().open().unwrap();
            for key in 40..60 {
                db.insert(key, key);
                model.insert(key, key);
            }
            db.sync().unwrap();
            drop(db);
            assert_eq!(committed_meta(&path).first(), Some(&current), "{label}");
            let mut db = builder.open().unwrap();
            let live: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(db.range(0, u64::MAX), live, "{label}: after sync");
        }
        let want: &[&str] = match name {
            "basic" => &["basic-COLA"],
            _ => &["deamortized-basic-COLA", "deamortized-2-COLA"],
        };
        assert_eq!(opened, want, "{name} store");
    }
}

//! Crash injection for every file-backed structure.
//!
//! The durable format's guarantee, tested end-to-end: for each structure
//! of the file-backed matrix (basic COLA, deamortized COLA, g-COLA,
//! B-tree, BRT), a power cut or torn write at **any point in the
//! sync protocol** — and at sampled points between syncs — recovers a
//! dictionary whose contents are exactly the last committed state: the
//! pre-commit snapshot or the post-commit snapshot, never a mixture and
//! never partial metadata.
//!
//! The storage-protocol exhaustive test lives in
//! `crates/dam/tests/crash_recovery.rs`; this suite layers the real
//! structures (control-state serialization, quiescing, reconstruction)
//! on top of the same journaled [`CrashDev`].

use std::collections::BTreeMap;

use cosbt::cola::entry::Cell;
use cosbt::cola::{Dictionary, GCola, MetaError, Persist};
use cosbt::dam::dev::CrashDev;
use cosbt::dam::format::KIND_PAGES;
use cosbt::dam::{ArcFileMem, ArcFilePages, FileMem, FilePages, OpenError};
use cosbt::shard::Shard;
use cosbt::testkit::Rng;
use cosbt::{brt::Brt, btree::BTree};

const PAGE: usize = 512;
const CACHE: usize = 4;

type MemStore = ArcFileMem<Cell, CrashDev>;
type PageStore = ArcFilePages<CrashDev>;
/// A fallible structure reconstructor from a recovered store + metadata.
type FromParts<S> = dyn Fn(S, &[u8]) -> Result<Shard, MetaError>;

/// A seeded two-phase workload; returns the model after each phase.
fn run_phase(dict: &mut Shard, model: &mut BTreeMap<u64, u64>, rng: &mut Rng, ops: usize) {
    for _ in 0..ops {
        let k = rng.below(600) * 3;
        if rng.chance(1, 5) {
            dict.delete(k);
            model.remove(&k);
        } else {
            let v = rng.next_u64() & 0xFFFF;
            dict.insert(k, v);
            model.insert(k, v);
        }
    }
    // A sorted batch too, so merge paths participate.
    let mut batch: Vec<(u64, u64)> = (0..40).map(|_| (rng.below(600) * 3 + 1, 7)).collect();
    batch.sort_unstable_by_key(|&(k, _)| k);
    dict.insert_batch(&batch);
    for &(k, v) in &batch {
        model.insert(k, v);
    }
}

fn contents(dict: &mut Shard) -> Vec<(u64, u64)> {
    dict.range(0, u64::MAX)
}

fn model_vec(model: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    model.iter().map(|(&k, &v)| (k, v)).collect()
}

/// The generic harness: ingest + commit twice on a journaled device,
/// then crash at every sync-protocol position (plus a torn variant and
/// sampled mid-epoch positions) and verify the recovered contents.
///
/// `reopen(image)` must rebuild the dictionary from a crash image and
/// report the recovered epoch.
fn crash_harness(
    name: &str,
    dev: CrashDev,
    mut dict: Shard,
    commit: &dyn Fn(&mut Shard) -> std::io::Result<()>,
    reopen: &dyn Fn(Vec<u8>) -> Result<(Shard, u64), OpenError>,
) {
    let mut rng = Rng::new(0xD15C + name.len() as u64);
    let mut model = BTreeMap::new();

    run_phase(&mut dict, &mut model, &mut rng, 240);
    let pre1 = dev.journal_len();
    commit(&mut dict).unwrap();
    let post1 = dev.journal_len();
    let state1 = model_vec(&model);
    assert_eq!(contents(&mut dict), state1, "{name}: phase-1 self check");

    run_phase(&mut dict, &mut model, &mut rng, 160);
    let pre2 = dev.journal_len();
    commit(&mut dict).unwrap();
    let post2 = dev.journal_len();
    let state2 = model_vec(&model);
    assert_eq!(contents(&mut dict), state2, "{name}: phase-2 self check");
    drop(dict);

    let mut checked = 0usize;

    // Exhaustive over the first sync protocol: before its metadata write
    // is durable the store legitimately recovers as never-committed;
    // once anything recovers, it must be exactly state 1.
    for cut in pre1..=post1 {
        match reopen(dev.image_at(cut, None)) {
            Err(OpenError::NeverCommitted) => assert!(
                cut < post1,
                "{name}: never-committed after commit 1 returned"
            ),
            Err(e) => panic!("{name}: cut at {cut} failed to recover: {e}"),
            Ok((mut re, epoch)) => {
                assert_eq!(epoch, 1, "{name}: cut at {cut}");
                assert_eq!(contents(&mut re), state1, "{name}: cut at {cut}");
                checked += 1;
            }
        }
    }

    let mut check = |cut: usize, torn: Option<usize>| {
        let what = if torn.is_some() { "torn" } else { "cut" };
        let (mut re, epoch) = reopen(dev.image_at(cut, torn))
            .unwrap_or_else(|e| panic!("{name}: {what} at {cut} failed to recover: {e}"));
        let want: &[(u64, u64)] = match epoch {
            1 => &state1,
            2 => &state2,
            e => panic!("{name}: {what} at {cut}: impossible epoch {e}"),
        };
        assert_eq!(
            contents(&mut re),
            want,
            "{name}: {what} at {cut} recovered a state outside {{pre-commit, post-commit}}"
        );
        checked += 1;
    };

    // Exhaustive over the second sync protocol (clean + torn cuts): the
    // recovery must be exactly state 1 or exactly state 2.
    for cut in pre2..=post2 {
        check(cut, None);
        check(cut, Some(1));
        check(cut, Some(PAGE / 2));
    }
    // Sampled mid-epoch positions (evictions writing to shadow slots):
    // committed state 1 must survive every one of them.
    for cut in (post1..pre2).step_by(7) {
        check(cut, None);
    }
    let _ = &mut check;
    assert!(checked > 20, "{name}: the harness actually cut something");
}

fn mem_setup(make: &dyn Fn(MemStore) -> Shard) -> (CrashDev, MemStore, Shard) {
    let dev = CrashDev::new();
    let store = ArcFileMem::new(FileMem::create_on(dev.clone(), PAGE, CACHE, 32).unwrap());
    let dict = make(store.clone());
    (dev, store, dict)
}

fn mem_crash_test(
    name: &'static str,
    make: &dyn Fn(MemStore) -> Shard,
    from_parts: &'static FromParts<MemStore>,
) {
    let (dev, store, dict) = mem_setup(make);
    let commit_store = store.clone();
    crash_harness(
        name,
        dev,
        dict,
        &move |d: &mut Shard| commit_store.commit_meta(&d.save_meta()),
        &move |image: Vec<u8>| {
            let (fm, meta) =
                FileMem::<Cell, CrashDev>::open_on(CrashDev::from_image(image), CACHE, 32)?;
            let store = ArcFileMem::new(fm);
            let epoch = store.epoch();
            let dict = from_parts(store, &meta).map_err(|e| {
                cosbt::dam::OpenError::Corrupt(format!("structure meta rejected: {e}"))
            })?;
            Ok((dict, epoch))
        },
    );
}

fn page_crash_test(
    name: &'static str,
    make: &dyn Fn(PageStore) -> Shard,
    from_parts: &'static FromParts<PageStore>,
) {
    let dev = CrashDev::new();
    let store = ArcFilePages::new(FilePages::create_on(dev.clone(), PAGE, CACHE).unwrap());
    let dict = make(store.clone());
    let commit_store = store.clone();
    crash_harness(
        name,
        dev,
        dict,
        &move |d: &mut Shard| commit_store.commit_meta(&d.save_meta()),
        &move |image: Vec<u8>| {
            let (fp, meta) =
                FilePages::open_on(CrashDev::from_image(image), CACHE, (KIND_PAGES, 0))?;
            let store = ArcFilePages::new(fp);
            let epoch = store.epoch();
            let dict = from_parts(store, &meta).map_err(|e| {
                cosbt::dam::OpenError::Corrupt(format!("structure meta rejected: {e}"))
            })?;
            Ok((dict, epoch))
        },
    );
}

#[test]
fn basic_cola_survives_crashes() {
    mem_crash_test("basic-COLA", &|s| Box::new(GCola::basic(s)), &|s, m| {
        Ok(Box::new(GCola::from_parts(s, m)?))
    });
}

#[test]
fn gcola_survives_crashes() {
    mem_crash_test("4-COLA", &|s| Box::new(GCola::new(s, 4, 0.1)), &|s, m| {
        Ok(Box::new(GCola::from_parts(s, m)?))
    });
}

/// The deamortized COLA, `GCola::deamortized`, under two names; each row
/// runs its own seeded workload, since the seed follows the name.
#[test]
fn deamortized_basic_cola_survives_crashes() {
    mem_crash_test(
        "deamortized-basic-COLA",
        &|s| Box::new(GCola::deamortized(s)),
        &|s, m| Ok(Box::new(GCola::from_parts(s, m)?)),
    );
}

#[test]
fn deamortized_cola_survives_crashes() {
    mem_crash_test(
        "deamortized-COLA",
        &|s| Box::new(GCola::deamortized(s)),
        &|s, m| Ok(Box::new(GCola::from_parts(s, m)?)),
    );
}

/// The deamortized COLA carries half-built cascade state in RAM only:
/// the auxes of its filling extents, fed as their budgeted merges
/// write. A crash
/// at any point while merges are mid-flight must recover exactly the last
/// committed epoch, with the cascade accelerators rebuilt whole — never
/// a torn mixture of old windows and half-written merge output.
fn mid_merge_crash_case(name: &str) {
    let dev = CrashDev::new();
    let store = ArcFileMem::new(FileMem::create_on(dev.clone(), PAGE, CACHE, 32).unwrap());
    let mut dict = GCola::deamortized(store.clone());
    let mut rng = Rng::new(0x31D ^ name.len() as u64);
    let mut model = BTreeMap::new();
    for _ in 0..400 {
        let k = rng.below(900) * 3;
        if rng.chance(1, 6) {
            dict.delete(k);
            model.remove(&k);
        } else {
            let v = rng.next_u64() & 0xFFFF;
            dict.insert(k, v);
            model.insert(k, v);
        }
    }
    store.commit_meta(&dict.save_meta()).unwrap();
    let committed = model_vec(&model);
    let post = dev.journal_len();

    // Keep inserting WITHOUT committing: incremental merge steps run
    // across these ops, so their half-built aux builders are live at
    // every cut position below.
    for i in 0..300u64 {
        dict.insert(rng.below(900) * 3, i);
    }
    let end = dev.journal_len();
    assert!(end > post, "{name}: the uncommitted phase must write");

    for cut in (post..=end).step_by(5) {
        let image = dev.image_at(cut, None);
        let (fm, meta) = FileMem::<Cell, CrashDev>::open_on(CrashDev::from_image(image), CACHE, 32)
            .unwrap_or_else(|e| panic!("{name}: cut {cut}: {e}"));
        let st = ArcFileMem::new(fm);
        assert_eq!(st.epoch(), 1, "{name}: cut {cut} must recover epoch 1");
        let mut re =
            GCola::from_parts(st, &meta).unwrap_or_else(|e| panic!("{name}: cut {cut}: {e}"));
        assert_eq!(
            re.range(0, u64::MAX),
            committed,
            "{name}: cut {cut} recovered contents"
        );
        re.check_invariants();
        // The rebuilt read path answers through the cascade: hits, gap
        // misses (keys ≡ 1 mod 3 were never inserted), fence misses.
        for &(k, v) in committed.iter().step_by(13) {
            assert_eq!(re.get(k), Some(v), "{name}: cut {cut} hit {k}");
        }
        assert_eq!(re.get(1), None, "{name}: cut {cut} gap miss");
        assert_eq!(re.get(u64::MAX), None, "{name}: cut {cut} fence miss");
    }
}

#[test]
fn deamortized_basic_mid_merge_crash_recovers_committed_cascade() {
    mid_merge_crash_case("deamortized-basic-COLA");
}

#[test]
fn deamortized_cola_mid_merge_crash_recovers_committed_cascade() {
    mid_merge_crash_case("deamortized-COLA");
}

/// Corrupting the persisted fence keys (the cascade's durable metadata)
/// must be a typed [`MetaError::Invalid`] from `from_parts` — never a
/// structure that silently serves wrong answers — while the intact
/// metadata on the very same store still reconstructs perfectly.
fn corrupt_fence_case(name: &str, new: fn(MemStore) -> GCola<MemStore>) {
    let dev = CrashDev::new();
    let store = ArcFileMem::new(FileMem::create_on(dev.clone(), PAGE, CACHE, 32).unwrap());
    let mut dict = new(store.clone());
    for i in 0..800u64 {
        dict.insert(i * 3 + 1, i);
    }
    let good = dict.save_meta();
    // The fence keys are the trailing fields of every COLA's v2 payload;
    // flipping the last 8 bytes corrupts the deepest level's max fence.
    let mut bad = good.clone();
    let n = bad.len();
    for b in &mut bad[n - 8..] {
        *b ^= 0xFF;
    }

    store.commit_meta(&bad).unwrap();
    let image = dev.image_at(dev.journal_len(), None);
    let (fm, meta) =
        FileMem::<Cell, CrashDev>::open_on(CrashDev::from_image(image), CACHE, 32).unwrap();
    assert_eq!(meta, bad, "{name}: the corrupt payload committed");
    match GCola::from_parts(ArcFileMem::new(fm), &meta) {
        Err(MetaError::Invalid(_)) => {}
        Err(e) => panic!("{name}: wrong error class for bad fences: {e}"),
        Ok(_) => panic!("{name}: corrupt fence keys were accepted"),
    }

    // Same cells, intact metadata: reconstruction succeeds and serves
    // the exact contents.
    store.commit_meta(&good).unwrap();
    let image = dev.image_at(dev.journal_len(), None);
    let (fm, meta) =
        FileMem::<Cell, CrashDev>::open_on(CrashDev::from_image(image), CACHE, 32).unwrap();
    let mut re = GCola::from_parts(ArcFileMem::new(fm), &meta)
        .unwrap_or_else(|e| panic!("{name}: intact meta rejected: {e}"));
    let want: Vec<(u64, u64)> = (0..800u64).map(|i| (i * 3 + 1, i)).collect();
    assert_eq!(re.range(0, u64::MAX), want, "{name}: intact reopen");
}

#[test]
fn corrupt_cascade_fences_are_rejected_by_every_variant() {
    corrupt_fence_case("basic-COLA", GCola::basic);
    corrupt_fence_case("4-COLA", |s| GCola::new(s, 4, 0.1));
    corrupt_fence_case("deamortized-COLA", GCola::deamortized);
}

#[test]
fn btree_survives_crashes() {
    page_crash_test("B-tree", &|s| Box::new(BTree::new(s)), &|s, m| {
        Ok(Box::new(BTree::from_parts(s, m)?))
    });
}

#[test]
fn brt_survives_crashes() {
    page_crash_test("BRT", &|s| Box::new(Brt::new(s)), &|s, m| {
        Ok(Box::new(Brt::from_parts(s, m)?))
    });
}

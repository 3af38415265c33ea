//! Exhaustive crash injection over the shadow-commit protocol.
//!
//! The format claims: a power cut or torn write at *any* journal position
//! recovers to exactly the last committed `(pages, payload)` state —
//! never a mixture, never partial metadata. These tests cut the power at
//! every position of a [`CrashDev`] journal spanning two commits (plus
//! torn-final-write and lost-unsynced-write variants) and verify the
//! recovered store equals one of the committed snapshots bit-for-bit.

use cosbt_dam::dev::CrashDev;
use cosbt_dam::format::{KIND_PAGES, SLOT_HDR_BYTES};
use cosbt_dam::{DirectFile, FileMem, FilePages, OpenError, PageStore, RawDev, DIRECT_ALIGN};
use cosbt_testkit::Rng;

const PAGE: usize = 256;
const CACHE: usize = 3;

/// Full logical content of a pages store.
fn pages_snapshot<D: cosbt_dam::RawDev>(fp: &mut FilePages<D>) -> Vec<Vec<u8>> {
    (0..fp.num_pages())
        .map(|id| fp.with_page(id, |pg| pg.to_vec()))
        .collect()
}

/// What a crash image recovered to.
enum Recovery {
    /// The crash predates a durable superblock: `create` itself is not
    /// crash-atomic (documented), so the image is not a store at all.
    /// Only legal for cuts inside the superblock write+sync prologue.
    PreStore,
    /// Valid store, no committed epoch yet.
    NeverCommitted,
    /// A committed `(epoch, payload, pages)` state.
    State(u64, Vec<u8>, Vec<Vec<u8>>),
}

/// Opens a crash image; any failure outside the recognized crash windows
/// is a violated guarantee and panics.
fn recover(image: Vec<u8>) -> Recovery {
    match FilePages::open_on(CrashDev::from_image(image), CACHE, (KIND_PAGES, 0)) {
        Ok((mut fp, payload)) => {
            let epoch = fp.epoch();
            let pages = pages_snapshot(&mut fp);
            Recovery::State(epoch, payload, pages)
        }
        Err(OpenError::NeverCommitted) => Recovery::NeverCommitted,
        Err(OpenError::BadMagic) => Recovery::PreStore,
        Err(OpenError::Corrupt(msg)) if msg.contains("superblock") => Recovery::PreStore,
        Err(e) => panic!("recovery must never fail structurally: {e}"),
    }
}

/// Journal positions covering the superblock write + barrier emitted by
/// `create`; the only window where an image may fail to parse at all.
const SUPERBLOCK_PROLOGUE: usize = 2;

struct Committed {
    payload: Vec<u8>,
    pages: Vec<Vec<u8>>,
}

/// The harness: two epochs of writes + commits, then a crash at every
/// journal position (with torn variants), asserting each recovery is
/// exactly one committed state.
#[test]
fn power_cut_at_every_point_recovers_a_committed_state() {
    let dev = CrashDev::new();
    let mut fp = FilePages::create_on(dev.clone(), PAGE, CACHE).unwrap();
    let mut rng = Rng::new(0xC0_57A7E);

    // Epoch 1: allocate and fill pages, spilling through the tiny cache.
    for _ in 0..12 {
        fp.alloc_page();
    }
    for id in 0..12u32 {
        let b = rng.below(256) as u8;
        fp.with_page_mut(id, |pg| pg.fill(b));
    }
    let state1 = {
        fp.commit_meta(b"epoch-one control state").unwrap();
        Committed {
            payload: b"epoch-one control state".to_vec(),
            pages: pages_snapshot(&mut fp),
        }
    };
    let first_commit_end = dev.journal_len();

    // Epoch 2: overwrite half the pages (exercising shadow remaps), grow
    // two more, commit a different payload.
    for id in (0..12u32).step_by(2) {
        let b = rng.below(256) as u8;
        fp.with_page_mut(id, |pg| {
            pg.fill(b);
            pg[0] = 0xEE;
        });
    }
    for _ in 0..2 {
        let id = fp.alloc_page();
        fp.with_page_mut(id, |pg| pg.fill(0x55));
    }
    fp.commit_meta(b"epoch-two!").unwrap();
    let state2 = Committed {
        payload: b"epoch-two!".to_vec(),
        pages: pages_snapshot(&mut fp),
    };
    let journal_len = dev.journal_len();
    drop(fp);

    let check = |what: &str, cut: usize, recovered: Recovery| match recovered {
        Recovery::PreStore => assert!(
            cut < SUPERBLOCK_PROLOGUE,
            "{what} at {cut}: unparseable store after the superblock was durable"
        ),
        Recovery::NeverCommitted => assert!(
            cut < first_commit_end,
            "{what} at {cut}: never-committed after the first commit was durable"
        ),
        Recovery::State(epoch, payload, pages) => {
            let want = match epoch {
                1 => &state1,
                2 => &state2,
                e => panic!("{what} at {cut}: impossible epoch {e}"),
            };
            assert_eq!(payload, want.payload, "{what} at {cut}: payload mixture");
            assert_eq!(
                pages.len(),
                want.pages.len(),
                "{what} at {cut}: page-count mixture"
            );
            for (i, (got, exp)) in pages.iter().zip(&want.pages).enumerate() {
                assert_eq!(
                    got, exp,
                    "{what} at {cut}: page {i} mixture (epoch {epoch})"
                );
            }
        }
    };

    for cut in 0..=journal_len {
        check("clean cut", cut, recover(dev.image_at(cut, None)));
        // Torn final write: 1 byte, half, all-but-one.
        for torn in [1usize, PAGE / 2, SLOT_HDR_BYTES + 3] {
            check("torn cut", cut, recover(dev.image_at(cut, Some(torn))));
        }
    }
    // The final image must be exactly epoch 2.
    let Recovery::State(epoch, payload, _) = recover(dev.snapshot()) else {
        panic!("final image must recover a committed state");
    };
    assert_eq!((epoch, payload.as_slice()), (2, state2.payload.as_slice()));
}

/// Un-synced writes may be lost in any subset (write reordering below a
/// barrier): recovery must still land on a committed state.
#[test]
fn lost_unsynced_writes_recover_a_committed_state() {
    let dev = CrashDev::new();
    let mut fp = FilePages::create_on(dev.clone(), PAGE, CACHE).unwrap();
    for _ in 0..8 {
        fp.alloc_page();
    }
    for id in 0..8u32 {
        fp.with_page_mut(id, |pg| pg.fill(id as u8 + 1));
    }
    fp.commit_meta(b"A").unwrap();
    let first_commit_end = dev.journal_len();
    let state_a = pages_snapshot(&mut fp);
    for id in 0..8u32 {
        fp.with_page_mut(id, |pg| pg.fill(0xB0 + id as u8));
    }
    fp.commit_meta(b"B").unwrap();
    let state_b = pages_snapshot(&mut fp);
    let journal_len = dev.journal_len();
    drop(fp);

    let mut rng = Rng::new(7);
    for trial in 0..64 {
        let cut = 1 + rng.index(journal_len);
        let image = dev.image_with_loss(cut, &mut |_| rng.flag());
        match recover(image) {
            Recovery::PreStore => {
                assert!(cut < SUPERBLOCK_PROLOGUE, "trial {trial} cut {cut}")
            }
            Recovery::NeverCommitted => {
                assert!(cut < first_commit_end, "trial {trial} cut {cut}")
            }
            Recovery::State(epoch, payload, pages) => {
                let (want_p, want_pages): (&[u8], _) = match epoch {
                    1 => (b"A", &state_a),
                    2 => (b"B", &state_b),
                    e => panic!("trial {trial}: impossible epoch {e}"),
                };
                assert_eq!(payload, want_p, "trial {trial} cut {cut}");
                assert_eq!(&pages, want_pages, "trial {trial} cut {cut}: data mixture");
            }
        }
    }
}

/// The element-array wrapper rides the same protocol: its committed
/// length and payload recover exactly.
#[test]
fn file_mem_crash_recovery_round_trips() {
    let dev = CrashDev::new();
    let mut fm: FileMem<u64, CrashDev> = FileMem::create_on(dev.clone(), PAGE, CACHE, 8).unwrap();
    fm.resize(40, 0);
    for i in 0..40 {
        fm.set(i, i as u64 + 100);
    }
    fm.commit_meta(b"len40").unwrap();
    fm.resize(64, 0);
    for i in 0..64 {
        fm.set(i, i as u64 + 500);
    }
    fm.commit_meta(b"len64").unwrap();
    let journal_len = dev.journal_len();
    drop(fm);

    for cut in 0..=journal_len {
        let image = dev.image_at(cut, None);
        match FileMem::<u64, CrashDev>::open_on(CrashDev::from_image(image), CACHE, 8) {
            Err(OpenError::NeverCommitted) => {}
            Err(OpenError::BadMagic) if cut < SUPERBLOCK_PROLOGUE => {}
            Err(e) => panic!("cut {cut}: {e}"),
            Ok((mut fm, payload)) => match payload.as_slice() {
                b"len40" => {
                    assert_eq!(fm.len(), 40, "cut {cut}");
                    for i in 0..40 {
                        assert_eq!(fm.get(i), i as u64 + 100, "cut {cut} elem {i}");
                    }
                }
                b"len64" => {
                    assert_eq!(fm.len(), 64, "cut {cut}");
                    for i in 0..64 {
                        assert_eq!(fm.get(i), i as u64 + 500, "cut {cut} elem {i}");
                    }
                }
                other => panic!("cut {cut}: payload mixture {other:?}"),
            },
        }
    }
}

/// Bounded-epoch recovery: the double buffering keeps the previous epoch
/// available, so a coordinator can roll a store back one commit — and a
/// stale bound (both slots newer) is a loud error, not a guess.
#[test]
fn open_bounded_rolls_back_to_the_requested_epoch() {
    let dev = CrashDev::new();
    let mut fp = FilePages::create_on(dev.clone(), PAGE, CACHE).unwrap();
    let id = fp.alloc_page();
    fp.with_page_mut(id, |pg| pg.fill(1));
    fp.commit_meta(b"e1").unwrap();
    fp.with_page_mut(id, |pg| pg.fill(2));
    fp.commit_meta(b"e2").unwrap();
    drop(fp);

    let open_at = |bound: Option<u64>| {
        FilePages::open_bounded(
            CrashDev::from_image(dev.snapshot()),
            CACHE,
            (KIND_PAGES, 0),
            bound,
        )
    };
    let (mut fp, payload) = open_at(None).unwrap();
    assert_eq!((fp.epoch(), payload.as_slice()), (2, b"e2".as_slice()));
    assert_eq!(fp.with_page(id, |pg| pg[0]), 2);
    let (mut fp, payload) = open_at(Some(1)).unwrap();
    assert_eq!((fp.epoch(), payload.as_slice()), (1, b"e1".as_slice()));
    assert_eq!(fp.with_page(id, |pg| pg[0]), 1);
    // Epoch 2 also satisfies a bound of 3.
    assert_eq!(open_at(Some(3)).unwrap().0.epoch(), 2);
    // Both slots newer than the bound: loud structural error.
    assert!(matches!(open_at(Some(0)), Err(OpenError::Corrupt(_))));
}

/// After crash recovery, slots beyond the committed high-water mark may
/// hold stale synced-but-uncommitted bytes; `alloc_page` must still hand
/// out zeroed pages.
#[test]
fn recovered_store_zeroes_stale_slots_on_alloc() {
    let dev = CrashDev::new();
    let mut fp = FilePages::create_on(dev.clone(), PAGE, CACHE).unwrap();
    let id = fp.alloc_page();
    fp.with_page_mut(id, |pg| pg.fill(0xAA));
    fp.commit_meta(b"").unwrap();
    // Dirty the page again and sync WITHOUT committing: the writeback
    // relocates to an uncommitted slot, durably full of 0xBB.
    fp.with_page_mut(id, |pg| pg.fill(0xBB));
    fp.sync().unwrap();
    drop(fp);

    let (mut fp, _) =
        FilePages::open_on(CrashDev::from_image(dev.snapshot()), CACHE, (KIND_PAGES, 0)).unwrap();
    assert_eq!(fp.with_page(id, |pg| pg[0]), 0xAA, "committed state");
    // The next allocation lands exactly on the stale 0xBB slot; the
    // zero-fill contract must hold anyway.
    let fresh = fp.alloc_page();
    assert_eq!(
        fp.with_page(fresh, |pg| pg.to_vec()),
        vec![0u8; PAGE],
        "freshly allocated pages read as zeros even over a stale slot"
    );
}

/// Writes `image` to a fresh real file through a [`DirectFile`] device:
/// the block-aligned body goes through the `O_DIRECT` bounce-buffer
/// path, the unaligned tail through the buffered fallback, covering
/// both planes of the device. Falls back (with the device's one-time
/// warning) where the filesystem refuses `O_DIRECT` — the assertions
/// below hold either way.
fn write_image_direct(path: &std::path::Path, image: &[u8]) -> DirectFile {
    let mut df = DirectFile::create(path, true).expect("create direct scratch file");
    let body = image.len() - image.len() % DIRECT_ALIGN;
    for off in (0..body).step_by(DIRECT_ALIGN) {
        df.write_all_at(&image[off..off + DIRECT_ALIGN], off as u64)
            .expect("aligned image chunk");
    }
    if body < image.len() {
        df.write_all_at(&image[body..], body as u64)
            .expect("unaligned image tail");
    }
    df.sync().expect("sync image");
    df
}

/// Recovery of `image` through a real `O_DIRECT` file device.
fn recover_direct(path: &std::path::Path, image: &[u8]) -> Recovery {
    let df = write_image_direct(path, image);
    match FilePages::open_on(df, CACHE, (KIND_PAGES, 0)) {
        Ok((mut fp, payload)) => {
            let epoch = fp.epoch();
            let pages = pages_snapshot(&mut fp);
            Recovery::State(epoch, payload, pages)
        }
        Err(OpenError::NeverCommitted) => Recovery::NeverCommitted,
        Err(OpenError::BadMagic) => Recovery::PreStore,
        Err(OpenError::Corrupt(msg)) if msg.contains("superblock") => Recovery::PreStore,
        Err(e) => panic!("direct-device recovery must never fail structurally: {e}"),
    }
}

/// The `O_DIRECT` device is bit-transparent under crash recovery: every
/// crash image of a two-epoch run, replayed onto a real file through
/// [`DirectFile`] (aligned bounce-buffered body + unaligned buffered
/// tail), recovers to exactly the same state the in-memory [`CrashDev`]
/// oracle recovers to. 4 KiB store pages keep page traffic on the
/// aligned plane, so recovery itself reads through `O_DIRECT` where the
/// filesystem grants it.
#[test]
fn o_direct_device_recovers_every_crash_image_like_the_oracle() {
    const DPAGE: usize = DIRECT_ALIGN;
    let dev = CrashDev::new();
    let mut fp = FilePages::create_on(dev.clone(), DPAGE, CACHE).unwrap();
    let mut rng = Rng::new(0xD1_12EC7);
    for _ in 0..8 {
        fp.alloc_page();
    }
    for id in 0..8u32 {
        let b = rng.below(256) as u8;
        fp.with_page_mut(id, |pg| pg.fill(b));
    }
    fp.commit_meta(b"direct-epoch-one").unwrap();
    for id in (0..8u32).step_by(2) {
        let b = rng.below(256) as u8;
        fp.with_page_mut(id, |pg| pg.fill(b));
    }
    fp.commit_meta(b"direct-epoch-two").unwrap();
    let journal_len = dev.journal_len();
    drop(fp);

    let path = cosbt_testkit::TempPath::new("odirect-crash");
    for cut in 0..=journal_len {
        // Clean cut at every position; a torn final write every fourth.
        let mut images = vec![dev.image_at(cut, None)];
        if cut % 4 == 0 {
            images.push(dev.image_at(cut, Some(DPAGE / 2)));
        }
        for image in images {
            let oracle = recover(image.clone());
            let direct = recover_direct(&path, &image);
            match (oracle, direct) {
                (Recovery::PreStore, Recovery::PreStore) => {}
                (Recovery::NeverCommitted, Recovery::NeverCommitted) => {}
                (Recovery::State(e1, p1, g1), Recovery::State(e2, p2, g2)) => {
                    assert_eq!(e1, e2, "cut {cut}: epoch diverged on the direct device");
                    assert_eq!(p1, p2, "cut {cut}: payload diverged on the direct device");
                    assert_eq!(g1, g2, "cut {cut}: pages diverged on the direct device");
                }
                _ => panic!("cut {cut}: recovery class diverged between oracle and direct device"),
            }
        }
    }
}

/// The metadata slot caps the committable page table; overflowing it is
/// a loud, typed error (every later commit fails the same way), and a
/// larger slot chosen at create lifts the cap. The capacity is recorded
/// in the superblock, so reopen honours it.
#[test]
fn slot_capacity_bounds_commits_and_is_configurable() {
    use cosbt_dam::format::SLOT_HDR_BYTES;
    // Minimal slot: header + ~1 KiB of table = ~250 pages.
    let slot = SLOT_HDR_BYTES + 1024;
    let mut fp = FilePages::create_on_sized(CrashDev::new(), 64, CACHE, slot).unwrap();
    let cap_pages = (slot - SLOT_HDR_BYTES - 8) / 4;
    for _ in 0..cap_pages {
        fp.alloc_page();
    }
    fp.commit_meta(b"").unwrap();
    fp.alloc_page();
    let err = fp.commit_meta(b"").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    // The failure is persistent but the committed state is intact.
    assert!(fp.commit_meta(b"").is_err());
    assert_eq!(fp.epoch(), 1);

    // Four times the slot handles four times the pages.
    let dev = CrashDev::new();
    let mut fp = FilePages::create_on_sized(dev.clone(), 64, CACHE, 4 * slot).unwrap();
    for _ in 0..4 * cap_pages {
        fp.alloc_page();
    }
    fp.commit_meta(b"big").unwrap();
    drop(fp);
    let (fp, payload) =
        FilePages::open_on(CrashDev::from_image(dev.snapshot()), CACHE, (KIND_PAGES, 0)).unwrap();
    assert_eq!(payload, b"big");
    assert_eq!(fp.num_pages() as usize, 4 * cap_pages);
}

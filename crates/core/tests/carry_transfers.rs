//! What a g-COLA carry moves between the device and the cache, pinned
//! on a file store small enough that every sweep evicts (16 cells per
//! page, 6 resident pages, as `run_path_iostats.rs`):
//!
//! 1. **A carry into level t reads only what it merges.** From a cold
//!    cache it fetches no more pages than the old and the new runs of
//!    levels `0..=t` span — one read sweep and one rewrite of each. The
//!    lookahead pointers into level `t + 1` come from level t's own
//!    redundant cells and the ones for the levels below from the rewrites
//!    as they stream out, so nothing in level `t + 1`'s extent is
//!    touched, however large that level is.
//!    An insert that only goes into the head, in DRAM, fetches nothing.
//! 2. **Golden ingest counts.** A fixed seed and structure pin all six
//!    `IoStats` fields of a 2^13-insert stream, in debug and release
//!    alike: duplicate-free and overwrite-heavy for the g-COLA, whose
//!    carry keeps one version per key — the basic COLA (g = 2, p = 0)
//!    among its rows — and duplicate-free for the deamortized COLA. A
//!    change that moves them changed the carry's I/O and must update the
//!    goldens consciously.

use cosbt_core::entry::Cell;
use cosbt_core::{Dictionary, GCola};
use cosbt_dam::{ArcFileMem, CrashDev, FileMem, IoStats};
use cosbt_testkit::Rng;

type Store = ArcFileMem<Cell, CrashDev>;

const PAGE: usize = 512;
const CELLS_PER_PAGE: usize = PAGE / 32;
const CACHE_PAGES: usize = 6;
const N: usize = 1 << 13;

fn store() -> Store {
    let fm = FileMem::create_on(CrashDev::new(), PAGE, CACHE_PAGES, 32).unwrap();
    ArcFileMem::new(fm)
}

fn keys() -> impl Iterator<Item = u64> {
    let mut rng = Rng::new(0xCA11_AB1E);
    (0..N).map(move |_| rng.next_u64() >> 16)
}

/// The test's own copy of the level geometry (Section 4's formulas) and
/// of the item counts the carry rule keeps, so it knows each insert's
/// target level and run sizes without asking the structure. Levels
/// `0..=h` hold no items: theirs are the head's — `h` the deepest level
/// whose capacities, with the levels' below, sum to at most 127, `2g^h −
/// 1` — which a carry takes, full, as its new run of `2g^h` cells.
struct Shape {
    g: usize,
    p: f64,
    head: usize,
    /// `2g^h`: the insert that finds the head full carries it.
    carry_at: usize,
    levels: Vec<Level>,
}

#[derive(Clone, Copy)]
struct Level {
    /// Item capacity.
    cap: usize,
    /// Redundancy allowance: the most lookahead cells it may hold.
    red: usize,
    items: usize,
}

impl Shape {
    fn new(g: usize, p: f64) -> Shape {
        let level0 = Level {
            cap: 1,
            red: 0,
            items: 0,
        };
        let h = (1..)
            .take_while(|&h| 2 * g.pow(h) - 1 <= 127)
            .last()
            .unwrap_or(1);
        Shape {
            g,
            p,
            head: 0,
            carry_at: 2 * g.pow(h),
            levels: vec![level0],
        }
    }

    /// Applies one single-cell insert of a new key; returns the most
    /// pages its carry may fetch from a cold cache.
    fn insert(&mut self) -> u64 {
        self.head += 1;
        if self.head < self.carry_at {
            return 0;
        }
        // A run of n cells starting anywhere spans at most this many pages.
        let span = |n: usize| match n {
            0 => 0,
            n => n.div_ceil(CELLS_PER_PAGE) as u64 + 1,
        };
        let (mut carry, mut t, mut pages) = (std::mem::take(&mut self.head), 0, 0);
        while carry + self.levels[t].items > self.levels[t].cap {
            // A level below the target: its run (items and at most
            // `red` lookaheads) is read, then rewritten as lookaheads.
            let Level { red, items, .. } = self.levels[t];
            pages += span(items + red) + span(red);
            carry += items;
            self.levels[t].items = 0;
            t += 1;
            if t == self.levels.len() {
                let scale = (self.g - 1) * self.g.pow(t as u32 - 1);
                let (cap, items) = (2 * scale, 0);
                let red = (2.0 * self.p * scale as f64).floor() as usize;
                // Growing the store is free: the new level's pages are
                // first touched by its rewrite, counted below.
                self.levels.push(Level { cap, red, items });
            }
        }
        let Level { red, items, .. } = self.levels[t];
        self.levels[t].items = items + carry;
        pages + span(items + red) + span(items + carry + red)
    }
}

#[test]
fn a_cold_carry_fetches_only_the_levels_it_merges() {
    for (g, p) in [(2, 0.125), (4, 0.1)] {
        let store = store();
        let mut cola = GCola::new(store.clone(), g, p);
        let mut shape = Shape::new(g, p);
        // Over the carries of more than a few pages, to show the bound
        // has no room for a sweep of the level above.
        let (mut fetched_big, mut allowed_big) = (0, 0);
        for (i, key) in keys().enumerate() {
            let allowed = shape.insert();
            store.drop_cache().unwrap();
            store.reset_stats();
            cola.insert(key, i as u64);
            let fetched = store.stats().fetches;
            assert!(
                fetched <= allowed,
                "g={g}: insert {i} fetched {fetched} pages, its levels span {allowed}"
            );
            if allowed > 20 {
                fetched_big += fetched;
                allowed_big += allowed;
            }
        }
        assert_eq!(cola.num_levels(), shape.levels.len(), "g={g}: the model");
        assert!(
            2 * fetched_big > allowed_big,
            "g={g}: the bound is slack ({fetched_big} of {allowed_big})"
        );
        cola.check_invariants();
    }
}

/// All six `IoStats` fields of `cola`'s ingest of `keys`, on `store`.
fn ingest(store: &Store, cola: &mut impl Dictionary, keys: impl Iterator<Item = u64>) -> IoStats {
    for (i, key) in keys.enumerate() {
        cola.insert(key, i as u64);
    }
    store.stats()
}

fn golden(
    accesses: u64,
    hits: u64,
    fetches: u64,
    evictions: u64,
    writebacks: u64,
    seeks: u64,
) -> IoStats {
    IoStats {
        accesses,
        hits,
        fetches,
        evictions,
        writebacks,
        seeks,
    }
}

#[test]
fn golden_ingest_iostats() {
    let gcola = |g, p| {
        let store = store();
        ingest(&store, &mut GCola::new(store.clone(), g, p), keys())
    };
    // No key repeats, so nothing is dropped; what moved from the goldens
    // before (fetches 6783 and 10541, writebacks 4543 and 6956, seeks
    // 563 and 764) is the read order: the target level is swept last,
    // right before its rewrite, not first.
    //
    // Then the store stopped zero-filling grown levels and writing a
    // synced page back a second time. Before that the three rows read
    // (150530, 143946, 6584, 6578, 4480, 489),
    // (217545, 207471, 10074, 10068, 6700, 653) and
    // (131072, 125414, 5658, 5652, 3830, 285).
    //
    // Then carries streamed their sources through chunks that stop at
    // 16 KiB boundaries, and a level came to sample the one above at a
    // fixed stride — fewer lookahead cells while that level is partly
    // full. Before that the three rows read
    // (132157, 126759, 5398, 5392, 3332, 466),
    // (181558, 173746, 7812, 7806, 4450, 648) and
    // (114702, 110094, 4608, 4602, 2810, 264).
    //
    // Then levels 0 and 1 became the head, in DRAM: the carries into
    // level 2 and up are the same, and the inserts between them touch no
    // page, and levels 0 and 1 are grown with the empty store, in one
    // step. Fetches, evictions and writebacks held; accesses and hits
    // fell by the same count (16,386, 32,774 and 16,386), and the
    // 4-COLA's seeks went 587 → 589: page 0 no longer turns most
    // recently used between carries, which reorders a few device
    // accesses. Before, the three rows read
    // (124315, 119165, 5150, 5144, 3145, 371),
    // (172968, 165416, 7552, 7546, 4292, 587) and
    // (114702, 110094, 4608, 4602, 2810, 271).
    //
    // Then the head took every level whose capacities sum to at most 127
    // cells (levels 0–6 at g = 2, 0–3 at g = 4): the carries into those
    // levels run in DRAM, and only one insert in 128 carries into the
    // store — 64 carries in all here, against 2,048 at g = 2 and 1,024
    // at g = 4. Every field fell. Before, the three rows read
    // (107929, 102779, 5150, 5144, 3145, 371),
    // (140194, 132642, 7552, 7546, 4292, 589) and
    // (98316, 93708, 4608, 4602, 2810, 271).
    assert_eq!(
        gcola(2, 0.125),
        golden(63385, 59303, 4082, 4076, 2357, 198),
        "2-COLA"
    );
    assert_eq!(
        gcola(4, 0.1),
        golden(87284, 81636, 5648, 5642, 3133, 230),
        "4-COLA"
    );
    // The basic COLA's own engine, an in-array merge of two levels at a
    // time, cost 8,734 fetches, 5,352 writebacks and 555 seeks here.
    assert_eq!(
        gcola(2, 0.0),
        golden(57356, 53771, 3585, 3579, 2043, 102),
        "basic COLA"
    );
}

/// The same 2^13 inserts drawn from 2^10 keys: every key is overwritten
/// about eight times, and the head and each level keep one version of
/// it.
#[test]
fn golden_overwrite_ingest_iostats() {
    let gcola = |g, p| {
        let store = store();
        let mut cola = GCola::new(store.clone(), g, p);
        let stats = ingest(&store, &mut cola, keys().map(|k| k % (1 << 10)));
        cola.check_invariants();
        let stored = cola.physical_len();
        // The front, the back and the levels past them.
        let holders = cola.num_levels() - 1;
        assert!(stored <= holders << 10, "g={g}: one version per key");
        assert_eq!(cola.stats().cells_dropped, (N - stored) as u64, "g={g}");
        stats
    };
    // While a carry kept every version, this stream cost what the
    // duplicate-free one did: fetches 6783 and 10541, writebacks 4543
    // and 6956. Before growth stopped zero-filling and a synced page
    // stopped being written back twice, the three rows read
    // (116258, 111739, 4519, 4513, 2866, 527),
    // (146295, 140607, 5688, 5682, 3196, 689) and
    // (98336, 94630, 3706, 3700, 2376, 329).
    //
    // Then carries streamed (see above): a carry writes its output from
    // its newer sources' count before the old run, so what it drops
    // leaves free slots after the run, and a later carry finding too few
    // before it moves the run first. On this stream that moves runs of
    // the 4-COLA's deepest levels on most carries into them: its row
    // went up where the others went down. Before, the three rows read
    // (107100, 103186, 3914, 3908, 2294, 507),
    // (144093, 138549, 5544, 5538, 3058, 687) and
    // (90158, 86986, 3172, 3166, 1868, 312).
    //
    // Then levels 0 and 1 became the head, which absorbs an overwrite in
    // DRAM: fewer cells reach level 2, so fewer carries run (the 2-COLA's
    // 4,096 → 2,046) and every row fell. The 2^13th insert no longer
    // lands on a carry through every level, so the stream ends with
    // 3,383, 1,440 and 3,383 stored cells where it ended with 1,024.
    // Before, the three rows read
    // (99165, 95525, 3640, 3634, 2137, 375),
    // (161019, 154197, 6822, 6816, 3725, 638) and
    // (92162, 88841, 3321, 3315, 1940, 311).
    //
    // Then the head grew to the levels under 127 cells, whose back
    // absorbs overwrites in DRAM too: 60, 61 and 60 carries reach the
    // store (2,046 at g = 2 before), and the stream ends with 3,093,
    // 1,237 and 3,093 stored cells. Before, the three rows read
    // (76172, 72953, 3219, 3213, 2007, 358),
    // (123901, 117357, 6544, 6538, 3595, 630) and
    // (69423, 66507, 2916, 2910, 1816, 296).
    assert_eq!(
        gcola(2, 0.125),
        golden(32681, 30526, 2155, 2149, 1212, 179),
        "2-COLA"
    );
    assert_eq!(
        gcola(4, 0.1),
        golden(73718, 68995, 4723, 4717, 2478, 224),
        "4-COLA"
    );
    // The basic COLA's own engine kept every version: 8,745 fetches,
    // 5,360 writebacks and 552 seeks, for 8,192 stored cells.
    assert_eq!(
        gcola(2, 0.0),
        golden(29428, 27541, 1887, 1881, 1034, 116),
        "basic COLA"
    );
}

/// The deamortized COLA over the duplicate-free stream: the g-COLA's
/// budgeted merge policy, whose merges run through the carry's fold and
/// its run-level writes. While it was an engine of its own, whose moves
/// went cell by cell through `get`/`set` and kept every version, it read
/// (348196, 338779, 9417, 9411, 6082, 989), and before growth stopped
/// zero-filling and a synced page stopped being written back twice
/// (364546, 354089, 10457, 10451, 7115, 1002). The retired three-array
/// engine cost (640348, 619186, 21162, 21156, 11275, 4631) on this
/// stream.
#[test]
fn golden_deamortized_ingest_iostats() {
    let store = store();
    assert_eq!(
        ingest(&store, &mut GCola::deamortized(store.clone()), keys()),
        golden(155756, 148339, 7417, 7411, 4800, 865),
        "deamortized COLA"
    );
}

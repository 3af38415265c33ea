//! Transfer-count contracts for the fractional-cascading read path,
//! measured in the DAM simulator:
//!
//! 1. **Filtered levels cost zero reads.** A cold miss that every
//!    level's fences or filter rejects must complete without touching a
//!    single data page — the whole point of keeping the accelerators in
//!    main memory.
//! 2. **Golden get-phase counts.** A fixed seed, a fixed structure, and
//!    a fixed probe set pin the *exact* number of block fetches for the
//!    cascaded search and for the paper's plain search (`get_plain`,
//!    the reference it is costed against), in debug and release alike.
//!    If a change moves these numbers, it changed the read path's I/O
//!    behaviour and must update the goldens consciously.

use cosbt_core::entry::Cell;
use cosbt_core::{Dictionary, GCola};
use cosbt_dam::{new_shared_sim, CacheConfig, SharedSim, SimMem};

const BLOCK: usize = 4096;
const N: u64 = (1 << 14) - 1;

fn sim_and_mem(blocks_in_mem: usize) -> (SharedSim, SimMem<Cell>) {
    let sim = new_shared_sim(CacheConfig::new(BLOCK, blocks_in_mem));
    let mem: SimMem<Cell> = SimMem::with_elem_bytes(sim.clone(), 32);
    (sim, mem)
}

/// Deterministic odd keys: every even value is a guaranteed miss.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E3779B97F4A7C15) | 1
}

fn fill(d: &mut dyn Dictionary) {
    for i in 0..N {
        d.insert(key(i), i);
    }
}

fn cold(sim: &SharedSim) {
    sim.borrow_mut().drop_cache();
    sim.borrow_mut().reset_stats();
}

fn fetches(sim: &SharedSim) -> u64 {
    sim.borrow().stats().fetches
}

/// Every structure in the COLA family: a cold probe beyond the global
/// key range is rejected by the per-level fence keys alone and performs
/// **zero** data-page reads; a cold in-range miss that the filters
/// reject on every level likewise reads nothing from any level.
#[test]
fn filtered_misses_read_zero_pages() {
    type Build = fn(SimMem<Cell>) -> Box<dyn Dictionary>;
    let builds: [(&str, Build); 3] = [
        ("basic", |m| Box::new(GCola::basic(m))),
        ("gcola", |m| Box::new(GCola::new(m, 2, 0.125))),
        ("deamort", |m| Box::new(GCola::deamortized(m))),
    ];
    for (name, build) in builds {
        let (sim, mem) = sim_and_mem(8);
        let mut d = build(mem);
        fill(d.as_mut());

        // Beyond-the-fences probes: min-1 side and max+1 side. All keys
        // are odd multiples of the golden ratio, so 0 and u64::MAX are
        // out of range on every level.
        cold(&sim);
        for i in 0..64u64 {
            assert_eq!(d.get(u64::MAX - 2 * i), None);
            assert_eq!(d.get(0), None);
        }
        assert_eq!(
            fetches(&sim),
            0,
            "{name}: beyond-fence misses must not read data pages"
        );

        // In-range misses (even keys land between the odd stored keys):
        // the filters reject the overwhelming majority outright. Probes
        // that every level rejected must not have read anything, and at
        // the configured 1% FP rate at least 90% of probes must be in
        // that bucket.
        cold(&sim);
        let mut fully_filtered = 0u64;
        let mut before = 0u64;
        for i in 0..256u64 {
            let p = key(N + i) & !1;
            assert_eq!(d.get(p), None, "{name}: probe {p} is a miss");
            let after = fetches(&sim);
            if after == before {
                fully_filtered += 1;
            }
            before = after;
        }
        assert!(
            fully_filtered >= 230,
            "{name}: only {fully_filtered}/256 cold misses were fully \
             filtered (expected ≥ 230 at a 1% FP target)"
        );
    }
}

/// Golden numbers for the get phase: 256 cold probes (128 hits + 128
/// misses) against a 2-COLA and a basic COLA holding `N` keys, through
/// `get` (the cascade, "on") and `get_plain` (the paper's search, "off"),
/// and against the deamortized COLA through `get`.
/// The simulator is deterministic, the workload is seeded, and the
/// counts are byte-exact in debug and release builds.
#[test]
fn golden_get_phase_fetch_counts() {
    fn run<D: Dictionary>(mut d: D, sim: &SharedSim, get: fn(&mut D, u64) -> Option<u64>) -> u64 {
        fill(&mut d);
        cold(sim);
        for i in 0..128u64 {
            assert_eq!(get(&mut d, key(i * 97 % N)), Some(i * 97 % N), "hit probe");
            assert_eq!(get(&mut d, key(N + i) & !1), None, "miss probe");
        }
        fetches(sim)
    }

    let (sim, mem) = sim_and_mem(8);
    let gcola_on = run(GCola::new(mem, 2, 0.125), &sim, GCola::get);

    let (sim, mem) = sim_and_mem(8);
    let gcola_off = run(GCola::new(mem, 2, 0.125), &sim, GCola::get_plain);

    let (sim, mem) = sim_and_mem(8);
    let basic_on = run(GCola::basic(mem), &sim, GCola::get);

    let (sim, mem) = sim_and_mem(8);
    let basic_off = run(GCola::basic(mem), &sim, GCola::get_plain);

    let (sim, mem) = sim_and_mem(8);
    let deamort = run(GCola::deamortized(mem), &sim, GCola::get);

    assert!(
        gcola_on < gcola_off && basic_on < basic_off,
        "cascade must strictly reduce cold get fetches: \
         gcola {gcola_on} vs {gcola_off}, basic {basic_on} vs {basic_off}"
    );

    // The golden pins. An intentional read-path change updates these in
    // the same commit, with the new numbers justified in the message.
    assert_eq!(
        (gcola_on, gcola_off, basic_on, basic_off),
        (GOLD_GCOLA_ON, GOLD_GCOLA_OFF, GOLD_BASIC_ON, GOLD_BASIC_OFF),
        "get-phase fetch counts moved"
    );
    assert_eq!(
        deamort, GOLD_DEAMORT,
        "deamortized get-phase fetch count moved"
    );
}

// The 2-COLA's two moved when its levels came to sample the level above
// at a fixed stride and its filters to be sized by a level's item
// capacity: from 133 and 1,668. All four moved when the head came to
// hold levels 0 to 6 at g = 2: N = 2^14 − 1 leaves their 127 items in
// DRAM, so a search probes levels 7 to 13 of the store and not levels 2
// to 6 — from 132, 1,659, 132 and 5,870.
const GOLD_GCOLA_ON: u64 = 131;
const GOLD_GCOLA_OFF: u64 = 1382;
const GOLD_BASIC_ON: u64 = 131;
const GOLD_BASIC_OFF: u64 = 5613;
// The deamortized COLA's was 135 while it was an engine of its own, its
// arrays packed from slot 0; as the g-COLA's budgeted policy each extent
// starts on a multiple of its size, as the basic COLA's levels do.
const GOLD_DEAMORT: u64 = 132;

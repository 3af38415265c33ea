//! Stress tests of the deamortized COLA's scheduling machinery — the
//! g-COLA's budgeted merge policy, `GCola::deamortized`: the Lemma 21
//! guarantees under long mixed workloads, pause/burst patterns, and query
//! storms between inserts, and the space its one-version merges keep. An
//! insert's cells are counted by `max_cells_per_insert`: at most the
//! `2·levels + 2` move budget plus the head's `2g = 4` cells.

use cosbt_core::{Dictionary, GCola, Persist};
use cosbt_dam::PlainMem;

#[test]
fn long_run_no_adjacent_unsafe_and_budget_holds() {
    let mut dc = GCola::deamortized(PlainMem::new());
    for i in 0..200_000u64 {
        dc.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i);
        dc.check_schedule();
        if i % 8192 == 8191 {
            dc.check_invariants();
        }
    }
    let lv = dc.num_levels() as u64;
    assert!(dc.stats().max_cells_per_insert <= 2 * lv + 2 + 4);
}

/// Merges keep one version per key, as the g-COLA's carries do: 2^16
/// inserts over 1,024 keys store at most 8× the live set once a sync's
/// quiesce has run every merge to its commit. (Measured: 6,395; the
/// two-array engine kept every version, 65,536.)
#[test]
fn overwrites_keep_space_within_eight_times_the_live_set() {
    const KEYS: u64 = 1024;
    let mut dc = GCola::deamortized(PlainMem::new());
    let mut rng = cosbt_testkit::Rng::new(0x5BACE);
    for i in 0..1u64 << 16 {
        dc.insert(rng.below(KEYS), i);
    }
    dc.save_meta();
    dc.check_invariants();
    let stored = dc.physical_len() as u64;
    assert!(stored <= 8 * KEYS, "{stored} cells stored for {KEYS} keys");
    assert_eq!(dc.range(0, u64::MAX).len() as u64, KEYS);
}

#[test]
fn queries_between_every_insert() {
    // Queries must never observe a half-merged state: interleave a read
    // storm with the incremental mover.
    let mut dc = GCola::deamortized(PlainMem::new());
    let mut model = std::collections::BTreeMap::new();
    for i in 0..4_000u64 {
        let k = (i * 37) % 1024;
        dc.insert(k, i);
        model.insert(k, i);
        dc.check_schedule();
        // Probe a moving window of keys after every single insert.
        for probe in [k, (k + 512) % 1024, 0, 1023] {
            assert_eq!(
                dc.get(probe),
                model.get(&probe).copied(),
                "probe {probe} after insert {i}"
            );
        }
    }
}

#[test]
fn burst_then_idle_then_burst() {
    // The mover only runs on inserts; after a burst the structure must be
    // consistent even though merges may be parked mid-way, and the next
    // burst must pick them up.
    let mut dc = GCola::deamortized(PlainMem::new());
    let mut model = std::collections::BTreeMap::new();
    let mut i = 0u64;
    for burst in 0..20u64 {
        let size = 1 << (burst % 10);
        for _ in 0..size {
            let k = i.wrapping_mul(6364136223846793005) % 4096;
            dc.insert(k, i);
            model.insert(k, i);
            dc.check_schedule();
            i += 1;
        }
        // "Idle": only queries.
        for probe in (0..4096u64).step_by(97) {
            assert_eq!(dc.get(probe), model.get(&probe).copied());
        }
        dc.check_invariants();
    }
}

#[test]
fn deamortized_matches_amortized_content_forever() {
    let mut a = GCola::basic(PlainMem::new());
    let mut dc = GCola::deamortized(PlainMem::new());
    let mut x = 17u64;
    for i in 0..30_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = x % 10_000;
        if x.is_multiple_of(11) {
            a.delete(k);
            dc.delete(k);
        } else {
            a.insert(k, i);
            dc.insert(k, i);
        }
    }
    assert_eq!(dc.range(0, u64::MAX), a.range(0, u64::MAX));
}

#[test]
fn worst_case_stays_flat_while_amortized_spikes_grow() {
    // As N doubles, the amortized worst case doubles (full merges) while
    // the deamortized worst case grows only logarithmically.
    let mut last_amort_worst = 0;
    let mut last_deamort_worst = 0;
    for exp in [12u32, 14, 16] {
        let n = 1u64 << exp;
        let mut a = GCola::basic(PlainMem::new());
        let mut d = GCola::deamortized(PlainMem::new());
        for i in 0..n {
            a.insert(i, i);
            d.insert(i, i);
        }
        let aw = a.stats().max_cells_per_insert;
        let dw = d.stats().max_cells_per_insert;
        if last_amort_worst > 0 {
            assert!(
                aw >= last_amort_worst * 3,
                "amortized worst should ~4x: {aw}"
            );
            assert!(
                dw <= last_deamort_worst + 8,
                "deamortized worst should grow additively: {dw} vs {last_deamort_worst}"
            );
        }
        last_amort_worst = aw;
        last_deamort_worst = dw;
    }
}

#[test]
fn worst_case_insert_is_logarithmic_only_when_deamortized() {
    // The claim the deamortized COLA exists for (Theorem 22), stated on
    // the counter every COLA shares: over a 2^16-key random ingest no
    // deamortized insert writes more than 3·log2 N cells — the
    // 2·levels + 2 move budget plus the head's 4 cells, levels ≈ log2 N
    // — while the amortized g-COLA's largest carry rewrites a constant
    // fraction of the structure. (Measured: 38 and 68,809.)
    let n = 1u64 << 16;
    let log_n = 16;
    let mut dc = GCola::deamortized(PlainMem::new());
    let mut g = GCola::new_plain(4);
    let mut x = 0x5EED_u64;
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        dc.insert(x, i);
        g.insert(x, i);
    }
    let (dc, g) = (
        dc.stats().max_cells_per_insert,
        g.stats().max_cells_per_insert,
    );
    assert!(dc <= 3 * log_n, "deamortized worst insert wrote {dc}");
    assert!(g >= n / 4, "GCola worst insert wrote only {g} of {n}");
}

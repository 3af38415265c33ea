//! Property tests of the DAM substrate: the simulator against an oracle
//! cost model, the file store against a plain-memory mirror, and the
//! seek model's stream tracking.

use cosbt_dam::{
    new_shared_sim, CacheConfig, FilePages, LruCache, Mem, PageStore, PlainMem, SimMem,
};
use cosbt_testkit::{check_cases, Rng, TempPath};

/// SimMem behaves exactly like PlainMem content-wise, whatever the
/// cache geometry.
#[test]
fn sim_mem_mirrors_plain_mem() {
    check_cases("sim_mem_mirrors_plain_mem", 64, |rng: &mut Rng| {
        let blk_pow = rng.range(4, 10) as u32;
        let blocks = 1 + rng.index(15);
        let len = 1 + rng.index(299);
        let sim = new_shared_sim(CacheConfig::new(1 << blk_pow, blocks));
        let mut a: SimMem<u64> = SimMem::new(sim);
        let mut b: PlainMem<u64> = PlainMem::new();
        a.resize(64, 0);
        b.resize(64, 0);
        for _ in 0..len {
            let (write, i, v) = (rng.flag(), rng.index(64), rng.next_u64());
            if write {
                a.set(i, v);
                b.set(i, v);
            } else {
                assert_eq!(a.get(i), b.get(i));
            }
        }
        for i in 0..64 {
            assert_eq!(a.get(i), b.get(i));
        }
    });
}

/// Sequential scans cost exactly ceil(len/B) fetches on a cold cache.
#[test]
fn scan_cost_exact() {
    check_cases("scan_cost_exact", 64, |rng: &mut Rng| {
        let len = 1 + rng.index(1999);
        let block = 1usize << rng.range(4, 9);
        let sim = new_shared_sim(CacheConfig::new(block, 4));
        let mut m: SimMem<u8> = SimMem::new(sim.clone());
        m.resize(len, 0);
        for i in 0..len {
            let _ = m.get(i);
        }
        let want = len.div_ceil(block) as u64;
        assert_eq!(sim.borrow().stats().fetches, want);
    });
}

/// LRU capacity is respected: residency never exceeds capacity, and a
/// working set of at most `cap` distinct blocks never misses twice.
#[test]
fn lru_capacity_and_inclusion() {
    check_cases("lru_capacity_and_inclusion", 64, |rng: &mut Rng| {
        let cap = 1 + rng.index(11);
        let trace = rng.vec_below(1, 400, 8);
        let mut c = LruCache::new(cap);
        let distinct: std::collections::HashSet<u64> = trace.iter().copied().collect();
        let mut misses = 0;
        for &b in &trace {
            if matches!(c.access(b, false), cosbt_dam::lru::Access::Miss { .. }) {
                misses += 1;
            }
            assert!(c.len() <= cap);
        }
        if distinct.len() <= cap {
            assert_eq!(misses as usize, distinct.len(), "only compulsory misses");
        }
    });
}

/// The file store round-trips arbitrary page writes through arbitrary
/// cache pressure.
#[test]
fn file_pages_mirror_memory() {
    check_cases("file_pages_mirror_memory", 64, |rng: &mut Rng| {
        let cache = 1 + rng.index(7);
        let writes = 1 + rng.index(199);
        let path = TempPath::new("prop");
        let mut fp = FilePages::create(&path, 64, cache).unwrap();
        let mut mirror = vec![[0u8; 64]; 16];
        for _ in 0..16 {
            fp.alloc_page();
        }
        for _ in 0..writes {
            let (pg, off, val) = (rng.below(16) as u32, rng.index(64), rng.below(256) as u8);
            fp.with_page_mut(pg, |p| p[off] = val);
            mirror[pg as usize][off] = val;
        }
        fp.drop_cache().unwrap();
        for pg in 0..16u32 {
            let got = fp.with_page(pg, |p| p.to_vec());
            assert_eq!(&got[..], &mirror[pg as usize][..]);
        }
    });
}

#[test]
fn seek_model_distinguishes_patterns() {
    // Sequential writes: ~1 seek. Random writes over a large span with a
    // tiny cache: ~1 seek per page.
    let path = TempPath::new("seeks");
    let mut fp = FilePages::create(&path, 64, 2).unwrap();
    for _ in 0..512 {
        fp.alloc_page();
    }
    for pg in 0..512u32 {
        fp.with_page_mut(pg, |p| p[0] = 1);
    }
    fp.sync().unwrap();
    let seq_seeks = fp.stats().seeks;
    assert!(
        seq_seeks <= 8,
        "sequential fill should barely seek: {seq_seeks}"
    );

    let mut x = 1u64;
    for _ in 0..512 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pg = (x % 512) as u32;
        fp.with_page_mut(pg, |p| p[1] = 2);
    }
    fp.sync().unwrap();
    let rnd_seeks = fp.stats().seeks - seq_seeks;
    assert!(
        rnd_seeks > 256,
        "random access should seek on most pages: {rnd_seeks}"
    );
}

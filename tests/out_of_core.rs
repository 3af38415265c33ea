//! Out-of-core integration: every structure runs correctly over real
//! file-backed storage with a page cache far smaller than the data,
//! surviving cache drops mid-stream — the regime of the paper's
//! experiments.

use cosbt::brt::Brt;
use cosbt::btree::BTree;
use cosbt::cola::{Cell, Dictionary, GCola};
use cosbt::dam::{ArcFileMem, ArcFilePages, FileMem, FilePages, DEFAULT_PAGE_SIZE};
use cosbt_testkit::TempPath;

fn run_file_backed(name: &str, dict: &mut dyn Dictionary, drop_cache: &dyn Fn()) {
    let n = 20_000u64;
    let mut model = std::collections::BTreeMap::new();
    for i in 0..n {
        let k = i.wrapping_mul(0x9E3779B97F4A7C15) % 50_000;
        dict.insert(k, i);
        model.insert(k, i);
        if i == n / 2 {
            drop_cache(); // mid-stream cache loss must be harmless
        }
    }
    drop_cache();
    for (&k, &v) in model.iter().step_by(59) {
        assert_eq!(dict.get(k), Some(v), "{name} key {k}");
    }
    let want: Vec<(u64, u64)> = model.range(1000..=3000).map(|(&k, &v)| (k, v)).collect();
    assert_eq!(dict.range(1000, 3000), want, "{name} range");
}

#[test]
fn gcola_out_of_core() {
    let path = TempPath::new("ooc-gcola");
    let mem = ArcFileMem::new(FileMem::<Cell>::create(&path, DEFAULT_PAGE_SIZE, 8, 32).unwrap());
    let handle = mem.clone();
    let mut d = GCola::new(mem, 4, 0.1);
    run_file_backed("4-COLA", &mut d, &|| handle.drop_cache().unwrap());
    assert!(handle.stats().fetches > 0, "must have touched disk");
}

#[test]
fn basic_cola_out_of_core() {
    let path = TempPath::new("ooc-basic");
    let mem = ArcFileMem::new(FileMem::<Cell>::create(&path, DEFAULT_PAGE_SIZE, 8, 32).unwrap());
    let handle = mem.clone();
    let mut d = GCola::basic(mem);
    run_file_backed("basic-COLA", &mut d, &|| handle.drop_cache().unwrap());
}

#[test]
fn deamort_cola_out_of_core() {
    let path = TempPath::new("ooc-deamort");
    let mem = ArcFileMem::new(FileMem::<Cell>::create(&path, DEFAULT_PAGE_SIZE, 8, 32).unwrap());
    let handle = mem.clone();
    let mut d = GCola::deamortized(mem);
    run_file_backed("deamortized-COLA", &mut d, &|| handle.drop_cache().unwrap());
}

#[test]
fn btree_out_of_core() {
    let path = TempPath::new("ooc-btree");
    let pages = ArcFilePages::new(FilePages::create(&path, DEFAULT_PAGE_SIZE, 8).unwrap());
    let handle = pages.clone();
    let mut d = BTree::new(pages);
    run_file_backed("B-tree", &mut d, &|| handle.drop_cache().unwrap());
}

#[test]
fn brt_out_of_core() {
    let path = TempPath::new("ooc-brt");
    let pages = ArcFilePages::new(FilePages::create(&path, DEFAULT_PAGE_SIZE, 8).unwrap());
    let handle = pages.clone();
    let mut d = Brt::new(pages);
    run_file_backed("BRT", &mut d, &|| handle.drop_cache().unwrap());
}

#[test]
fn tiny_cache_still_correct() {
    // Two resident pages — brutal thrashing — must not affect results.
    let path = TempPath::new("ooc-tiny");
    let mem = ArcFileMem::new(FileMem::<Cell>::create(&path, DEFAULT_PAGE_SIZE, 2, 32).unwrap());
    let mut d = GCola::new(mem, 2, 0.125);
    for i in 0..5_000u64 {
        d.insert(i, i);
    }
    for i in (0..5_000u64).step_by(97) {
        assert_eq!(d.get(i), Some(i));
    }
}

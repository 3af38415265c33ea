//! Randomized property tests: arbitrary operation sequences against a
//! `BTreeMap` model, one suite per structure. Every range assertion is
//! checked three ways — the materializing `range`, a forward cursor walk,
//! and a backward cursor walk — so the streaming path can never drift
//! from the `Vec` path. (Deterministic seeded cases via `cosbt-testkit`;
//! a failing case prints its replay seed.)

use std::collections::BTreeMap;

use cosbt::brt::Brt;
use cosbt::btree::BTree;
use cosbt::cola::{DeamortCola, Dictionary, GCola};
use cosbt::dam::PlainMem;
use cosbt::shuttle::ShuttleTree;
use cosbt::testkit::{check_cases, Rng};
use cosbt::UpdateBatch;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Delete(u64),
    Get(u64),
    Range(u64, u64),
    Batch(Vec<(u64, Option<u64>)>),
}

fn random_ops(rng: &mut Rng, len: usize, key_space: u64) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.below(12) {
            0..=4 => Op::Insert(rng.below(key_space), rng.next_u64()),
            5..=6 => Op::Delete(rng.below(key_space)),
            7..=8 => Op::Get(rng.below(key_space)),
            9..=10 => {
                let (a, b) = (rng.below(key_space), rng.below(key_space));
                Op::Range(a.min(b), a.max(b))
            }
            _ => {
                let n = 1 + rng.index(24);
                Op::Batch(
                    (0..n)
                        .map(|_| {
                            let k = rng.below(key_space);
                            if rng.chance(1, 4) {
                                (k, None)
                            } else {
                                (k, Some(rng.next_u64()))
                            }
                        })
                        .collect(),
                )
            }
        })
        .collect()
}

/// Asserts `range`, forward cursor, backward cursor, and a mid-interval
/// seek all agree with the model's view of `[lo, hi]`.
fn check_range_and_cursor(dict: &mut dyn Dictionary, model: &BTreeMap<u64, u64>, lo: u64, hi: u64) {
    let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
    assert_eq!(dict.range(lo, hi), want, "{} range({lo},{hi})", dict.name());

    let name = dict.name();
    let mut fwd = Vec::new();
    let mut cur = dict.cursor(lo, hi);
    while let Some(kv) = cur.next() {
        fwd.push(kv);
    }
    // A drained cursor walks the same entries backward.
    let mut back = Vec::new();
    while let Some(kv) = cur.prev() {
        back.push(kv);
    }
    back.reverse();
    drop(cur);
    assert_eq!(fwd, want, "{name} cursor fwd({lo},{hi})");
    assert_eq!(back, want, "{name} cursor bwd({lo},{hi})");

    if let Some(&(mid_key, _)) = want.get(want.len() / 2) {
        let mut cur = dict.cursor(lo, hi);
        cur.seek(mid_key);
        assert_eq!(
            cur.next(),
            Some(want[want.len() / 2]),
            "{name} seek({mid_key})"
        );
    }
}

fn check_model(dict: &mut dyn Dictionary, ops: &[Op]) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match op {
            &Op::Insert(k, v) => {
                dict.insert(k, v);
                model.insert(k, v);
            }
            &Op::Delete(k) => {
                dict.delete(k);
                model.remove(&k);
            }
            &Op::Get(k) => {
                assert_eq!(
                    dict.get(k),
                    model.get(&k).copied(),
                    "{} get({k})",
                    dict.name()
                );
            }
            &Op::Range(lo, hi) => check_range_and_cursor(dict, &model, lo, hi),
            Op::Batch(ops) => {
                let mut batch = UpdateBatch::new();
                for &(k, op) in ops {
                    match op {
                        Some(v) => {
                            batch.put(k, v);
                            model.insert(k, v);
                        }
                        None => {
                            batch.delete(k);
                            model.remove(&k);
                        }
                    }
                }
                dict.apply(&mut batch);
                assert!(batch.is_empty(), "{} apply must drain", dict.name());
            }
        }
    }
    check_range_and_cursor(dict, &model, 0, u64::MAX);
}

macro_rules! dict_props {
    ($name:ident, $cases:expr, $make:expr) => {
        #[test]
        fn $name() {
            check_cases(stringify!($name), $cases, |rng: &mut Rng| {
                let len = 1 + rng.index(399);
                let ops = random_ops(rng, len, 64);
                let mut d = $make;
                check_model(&mut d, &ops);
            });
        }
    };
}

dict_props!(basic_cola_matches_model, 64, GCola::basic(PlainMem::new()));
dict_props!(gcola2_matches_model, 64, GCola::new_plain(2));
dict_props!(gcola4_matches_model, 64, GCola::new_plain(4));
dict_props!(gcola_dense_pointers_matches_model, 64, {
    // Stress the lookahead machinery with an extreme pointer density.
    use cosbt::dam::PlainMem;
    GCola::new(PlainMem::new(), 2, 0.5)
});
dict_props!(deamort_basic_matches_model, 64, {
    // The deamortized COLA through the facade's builder and router.
    cosbt::DbBuilder::new()
        .structure(cosbt::Structure::DeamortizedCola)
        .build()
        .unwrap()
});
dict_props!(deamort_matches_model, 64, DeamortCola::new_plain());
dict_props!(btree_matches_model, 64, BTree::new_plain());
dict_props!(brt_matches_model, 64, Brt::new_plain());
dict_props!(shuttle_matches_model, 64, ShuttleTree::new(2));

/// Structural invariants hold after arbitrary insert bursts.
#[test]
fn invariants_after_bursts() {
    check_cases("invariants_after_bursts", 32, |rng: &mut Rng| {
        let len = 1 + rng.index(1999);
        let keys = rng.vec_u64(len);
        let mut basic = GCola::basic(PlainMem::new());
        let mut g = GCola::new_plain(4);
        let mut dc = DeamortCola::new_plain();
        let mut st = ShuttleTree::new(4);
        let mut bt = BTree::new_plain();
        for (i, &k) in keys.iter().enumerate() {
            basic.insert(k, i as u64);
            g.insert(k, i as u64);
            dc.insert(k, i as u64);
            st.insert(k, i as u64);
            bt.insert(k, i as u64);
        }
        basic.check_invariants();
        g.check_invariants();
        dc.check_invariants();
        st.check_invariants();
        bt.check_invariants();
    });
}

/// Batched inserts preserve the COLA structural invariants too.
#[test]
fn invariants_after_batched_bursts() {
    check_cases("invariants_after_batched_bursts", 32, |rng: &mut Rng| {
        let mut basic = GCola::basic(PlainMem::new());
        let mut g = GCola::new_plain(4);
        let rounds = 1 + rng.index(12);
        for r in 0..rounds {
            let mut run: Vec<(u64, u64)> = (0..1 + rng.index(300))
                .map(|_| (rng.next_u64(), r as u64))
                .collect();
            run.sort_unstable_by_key(|&(k, _)| k);
            basic.insert_batch(&run);
            g.insert_batch(&run);
        }
        basic.check_invariants();
        g.check_invariants();
    });
}

/// The deamortized COLA never exceeds its per-insert move budget.
#[test]
fn deamortized_budget_respected() {
    check_cases("deamortized_budget_respected", 32, |rng: &mut Rng| {
        let len = 1 + rng.index(2999);
        let keys = rng.vec_u64(len);
        let mut dc = DeamortCola::new_plain();
        for (i, &k) in keys.iter().enumerate() {
            dc.insert(k, i as u64);
        }
        let levels = dc.num_levels() as u64;
        assert!(dc.max_moves_per_insert() <= 2 * levels + 2);
    });
}

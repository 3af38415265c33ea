//! Stores in the retired formats, as the engines that wrote them left
//! them: the cells slot by slot, the committed meta byte for byte, and
//! the stream of operations that produced them. `cosbt-core`'s tests and
//! the facade's include this one file by `#[path]`.

use std::collections::BTreeMap;

use cosbt_core::entry::NO_PTR;
use cosbt_core::persist::{TAG_DEAMORT, TAG_DEAMORT_BASIC, TAG_GCOLA};
use cosbt_core::{Cell, MetaWriter};
use cosbt_testkit::Rng;

/// A store a retired engine wrote.
pub struct Fixture {
    /// Every slot of the store, in order.
    pub cells: Vec<Cell>,
    /// The meta the engine committed with them.
    pub meta: Vec<u8>,
    /// What the store answers: its stream replayed into a map.
    pub model: BTreeMap<u64, u64>,
}

/// Replays `ops` (`None` a delete), each value its op's index.
fn replay(ops: impl Iterator<Item = (u64, Option<u64>)>) -> BTreeMap<u64, u64> {
    let mut model = BTreeMap::new();
    for (key, val) in ops {
        match val {
            Some(v) => model.insert(key, v),
            None => model.remove(&key),
        };
    }
    model
}

/// `count` ops over `keys` keys drawn from `seed`, one in five a delete.
fn stream(seed: u64, count: u64, keys: u64) -> impl Iterator<Item = (u64, Option<u64>)> {
    let mut rng = Rng::new(seed);
    (0..count).map(move |i| (rng.below(keys), (!rng.chance(1, 5)).then_some(i)))
}

/// A cell from its `(key, v, meta)`: `v` is an item's value and a
/// lookahead cell's (meta 1) pointer, and meta 2 marks a tombstone.
fn cell((key, v, meta): (u64, u64, u64)) -> Cell {
    match meta {
        0 => Cell::item(key, v),
        1 => Cell::lookahead(key, v),
        _ => Cell::tombstone(key),
    }
}

/// The FNV-1a hash the meta payloads are pinned by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(key, val, meta)` of each slot, slot 0 the merge spare: levels
/// 0..=5 full, a key's versions side by side in one level, and
/// tombstones (meta 2) in the deepest.
#[rustfmt::skip]
const BASIC_CELLS: [(u64, u64, u64); 64] = [
    (4, 61, 0), (8, 62, 0), (4, 61, 0), (12, 60, 0),
    (1, 0, 2), (2, 59, 0), (21, 57, 0), (22, 58, 0),
    (4, 55, 0), (4, 50, 0), (8, 0, 2), (15, 54, 0),
    (17, 53, 0), (19, 52, 0), (20, 51, 0), (22, 48, 0),
    (0, 34, 0), (0, 33, 0), (1, 43, 0), (2, 0, 2),
    (3, 0, 2), (3, 40, 0), (4, 39, 0), (9, 45, 0),
    (9, 38, 0), (9, 0, 2), (11, 41, 0), (12, 46, 0),
    (14, 36, 0), (15, 37, 0), (19, 42, 0), (22, 32, 0),
    (1, 0, 2), (2, 24, 0), (2, 0, 2), (2, 0, 2),
    (3, 29, 0), (3, 0, 2), (4, 11, 0), (5, 31, 0),
    (5, 0, 2), (6, 7, 0), (7, 21, 0), (7, 10, 0),
    (7, 0, 0), (9, 5, 0), (11, 30, 0), (12, 28, 0),
    (12, 3, 0), (13, 27, 0), (13, 26, 0), (13, 15, 0),
    (13, 2, 0), (14, 19, 0), (15, 22, 0), (16, 0, 2),
    (17, 25, 0), (17, 9, 0), (18, 0, 2), (18, 0, 2),
    (20, 6, 0), (21, 20, 0), (21, 13, 0), (23, 14, 0),
];

/// Its `save_meta()`: tag 1 v2, N = 63, 6 levels, six full bits and
/// each level's first and last key.
#[rustfmt::skip]
pub const BASIC_META: [u8; 120] = [
    1, 2,
    63, 0, 0, 0, 0, 0, 0, 0,
    6, 0, 0, 0, 0, 0, 0, 0,
    1, 1, 1, 1, 1, 1,
    8, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
    4, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0,
    1, 0, 0, 0, 0, 0, 0, 0, 22, 0, 0, 0, 0, 0, 0, 0,
    4, 0, 0, 0, 0, 0, 0, 0, 22, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 22, 0, 0, 0, 0, 0, 0, 0,
    1, 0, 0, 0, 0, 0, 0, 0, 23, 0, 0, 0, 0, 0, 0, 0,
];

/// The store the basic COLA's own engine left after 63 ops over 24
/// keys (seed `0xBA51C`).
pub fn basic() -> Fixture {
    Fixture {
        cells: BASIC_CELLS.into_iter().map(cell).collect(),
        meta: BASIC_META.to_vec(),
        model: replay(stream(0xBA51C, 63, 24)),
    }
}

/// One array of the three-array format: `(visible, start, len, items,
/// seq, link, merged upward)`.
type ThreeArray = (bool, usize, usize, usize, u64, Option<usize>, bool);

/// Its five levels' arrays in directory order. Level 1 array 1 and
/// level 3 array 2 are linked shadows holding lookahead cells only;
/// levels 1 and 3 each show two arrays already merged upward into a
/// shadow of the next level, which queries do not read yet.
#[rustfmt::skip]
const THREE_ARRAY_DIR: [ThreeArray; 15] = [
    (true, 1, 1, 1, 25, None, false),
    (true, 0, 0, 0, 0, None, false),
    (false, 0, 0, 0, 0, None, false),
    (true, 2, 2, 2, 24, None, true),
    (false, 3, 1, 0, 0, Some(0), false),
    (true, 1, 3, 2, 22, Some(1), true),
    (false, 4, 4, 4, 24, None, false),
    (true, 3, 5, 4, 20, Some(1), false),
    (false, 0, 0, 0, 0, None, false),
    (true, 8, 8, 8, 8, None, true),
    (true, 8, 8, 8, 16, None, true),
    (false, 14, 2, 0, 0, Some(0), false),
    (false, 16, 16, 16, 16, None, false),
    (false, 0, 0, 0, 0, None, false),
    (false, 0, 0, 0, 0, None, false),
];

/// The occupied arrays' cells in the same order, as `(key, v, meta)`
/// (see `cell`).
#[rustfmt::skip]
const THREE_ARRAY_CELLS: [(u64, u64, u64); 50] = [
    (8, 24, 0),
    (1, 0, 2), (2, 22, 0),
    (1, 0, 1),
    (1, 0, 1), (1, 20, 0), (8, 21, 0),
    (1, 0, 2), (1, 20, 0), (2, 22, 0), (8, 21, 0),
    (1, 0, 1), (1, 19, 0), (2, 18, 0), (3, 17, 0), (7, 16, 0),
    (0, 0, 2), (0, 3, 0), (1, 1, 0), (4, 6, 0), (4, 4, 0), (9, 5, 0), (9, 2, 0), (10, 0, 0),
    (1, 15, 0), (1, 14, 0), (5, 10, 0), (6, 8, 0), (7, 13, 0), (7, 0, 2), (8, 12, 0),
    (8, 11, 0),
    (0, 0, 1), (6, 8, 1),
    (0, 0, 2), (0, 3, 0), (1, 15, 0), (1, 14, 0), (1, 1, 0), (4, 6, 0), (4, 4, 0), (5, 10, 0),
    (6, 8, 0), (7, 13, 0), (7, 0, 2), (8, 12, 0), (8, 11, 0), (9, 5, 0), (9, 2, 0), (10, 0, 0),
];

/// The store and the `save_meta()` the three-array engine left after 25
/// ops over 12 keys (seed `0xDEA3`): N = 25, five levels, then the fence
/// keys of each occupied array. Level k held three arrays of `2^{k+1}`
/// slots, the levels packed from slot 0. The payload is pinned by length
/// and FNV-1a.
pub fn three_array() -> Fixture {
    let slot = |k: usize, a: usize| 3 * ((2 << k) - 2) + a * (2 << k);
    let mut cells = vec![Cell::default(); slot(5, 0)];
    let mut stored = THREE_ARRAY_CELLS.into_iter().map(cell);
    let mut w = MetaWriter::new(TAG_DEAMORT, 2);
    w.u64(25).u64(25).usize(5);
    let mut fences = Vec::new();
    for (i, &(visible, start, len, items, seq, link, merged)) in THREE_ARRAY_DIR.iter().enumerate()
    {
        w.bool(visible)
            .usize(start)
            .usize(len)
            .usize(items)
            .u64(seq);
        w.bool(link.is_some());
        if let Some(t) = link {
            w.usize(t);
        }
        w.bool(merged);
        let run = &mut cells[slot(i / 3, i % 3) + start..][..len];
        for c in run.iter_mut() {
            *c = stored.next().expect("a cell per occupied slot");
        }
        if let (Some(first), Some(last)) = (run.first(), run.last()) {
            fences.push((first.key, last.key));
        }
    }
    assert!(stored.next().is_none(), "every cell placed");
    for (first, last) in fences {
        w.u64(first).u64(last);
    }
    let meta = w.finish();
    assert_eq!(
        (meta.len(), fnv1a(&meta)),
        (743, 0xce6c_6c8a_fc21_8c05),
        "the payload the three-array engine wrote"
    );
    Fixture {
        cells,
        meta,
        model: replay(stream(0xDEA3, 25, 12)),
    }
}

/// `Some(recency)` of each full array of a two-array store, level by
/// level, side 0 then side 1; `None` an empty one.
#[rustfmt::skip]
const TWO_ARRAY_DIR: [Option<u64>; 10] = [
    Some(27), None, Some(26), None, None, None, Some(24), None, Some(16), None,
];

/// Its store slot by slot, as `(key, v, meta)` (see `cell`): the full
/// arrays hold a key's versions side by side, newest first, and the
/// empty ones what earlier merges left.
#[rustfmt::skip]
const TWO_ARRAY_CELLS: [(u64, u64, u64); 62] = [
    (1, 0, 2), (8, 25, 0), (4, 24, 0), (8, 25, 0),
    (3, 22, 0), (7, 23, 0), (2, 0, 2), (3, 17, 0),
    (5, 0, 2), (8, 16, 0), (3, 22, 0), (3, 21, 0),
    (6, 20, 0), (7, 23, 0), (2, 0, 2), (3, 22, 0),
    (3, 21, 0), (3, 17, 0), (5, 0, 2), (6, 20, 0),
    (7, 23, 0), (8, 16, 0), (0, 12, 0), (0, 0, 2),
    (4, 15, 0), (6, 13, 0), (7, 11, 0), (8, 10, 0),
    (9, 8, 0), (10, 14, 0), (0, 12, 0), (0, 0, 2),
    (1, 6, 0), (1, 4, 0), (4, 15, 0), (4, 2, 0),
    (5, 0, 2), (5, 0, 2), (6, 13, 0), (6, 0, 2),
    (7, 11, 0), (8, 10, 0), (8, 3, 0), (9, 8, 0),
    (10, 14, 0), (11, 0, 2), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0),
];

/// The store and the `save_meta()` the two-array engine left after 27
/// ops over 12 keys (seed `0xDEA2`): tag 3 v2, N = 27, recency 27, five
/// levels, a state byte per array (and a full one's recency), then each
/// full array's first and last key. Level k held two arrays of `2^k`
/// slots, the levels packed from slot 0; the engine ran its merges to
/// their commits before it wrote, so no array is filling. The payload is
/// pinned by length and FNV-1a.
pub fn two_array() -> Fixture {
    let slot = |k: usize, side: usize| 2 * ((1 << k) - 1) + side * (1 << k);
    let cells: Vec<Cell> = TWO_ARRAY_CELLS.into_iter().map(cell).collect();
    let mut w = MetaWriter::new(TAG_DEAMORT_BASIC, 2);
    w.u64(27).u64(27).usize(5);
    let mut fences = Vec::new();
    for (i, recency) in TWO_ARRAY_DIR.into_iter().enumerate() {
        let Some(recency) = recency else {
            w.u8(0);
            continue;
        };
        w.u8(1).u64(recency);
        let run = &cells[slot(i / 2, i % 2)..][..1 << (i / 2)];
        fences.push((run[0].key, run[run.len() - 1].key));
    }
    for (first, last) in fences {
        w.u64(first).u64(last);
    }
    let meta = w.finish();
    assert_eq!(
        (meta.len(), fnv1a(&meta)),
        (132, 0x554a_cf58_35c8_db2f),
        "the payload the two-array engine wrote"
    );
    Fixture {
        cells,
        meta,
        model: replay(stream(0xDEA2, 27, 12)),
    }
}

/// `(first slot, slots, item capacity, redundancy allowance, items,
/// redundant cells)` of the four levels of a v2 4-COLA at `p = 0.1`.
const GCOLA_V2_DIR: [[usize; 6]; 4] = [
    [1, 1, 1, 0, 1, 0],
    [2, 6, 6, 0, 4, 0],
    [8, 26, 24, 2, 15, 2],
    [34, 105, 96, 9, 33, 0],
];

/// Its store slot by slot, as `(key, v, meta)` (see `cell`): each run
/// right-justified in its level, the cells an earlier carry left before
/// it, and level 2's two lookahead cells, the midpoint sample of level
/// 3's 33 cells (positions 8 and 24).
#[rustfmt::skip]
const GCOLA_V2_CELLS: [(u64, u64, u64); 139] = [
    (0, 0, 0), (10, 119, 0), (12, 111, 0), (19, 107, 0),
    (7, 0, 2), (25, 117, 0), (32, 118, 0), (42, 116, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 47, 0), (0, 0, 2), (5, 86, 0),
    (7, 90, 0), (0, 104, 0), (3, 100, 0), (10, 0, 2),
    (12, 8, 1), (12, 111, 0), (16, 105, 0), (18, 0, 2),
    (19, 107, 0), (24, 101, 0), (27, 114, 0), (28, 109, 0),
    (31, 106, 0), (34, 110, 0), (35, 108, 0), (36, 24, 1),
    (36, 112, 0), (37, 0, 2), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (1, 93, 0), (2, 98, 0),
    (3, 14, 0), (5, 94, 0), (7, 90, 0), (8, 72, 0),
    (9, 10, 0), (11, 89, 0), (12, 40, 0), (13, 57, 0),
    (14, 38, 0), (15, 68, 0), (16, 20, 0), (19, 67, 0),
    (23, 22, 0), (25, 76, 0), (26, 85, 0), (27, 82, 0),
    (28, 42, 0), (30, 81, 0), (31, 91, 0), (32, 88, 0),
    (33, 54, 0), (34, 96, 0), (36, 41, 0), (37, 30, 0),
    (39, 53, 0), (40, 71, 0), (41, 65, 0), (42, 73, 0),
    (44, 78, 0), (45, 95, 0), (46, 97, 0),
];

/// The store and the `save_meta()` the g-COLA's v2 format left after
/// 120 ops over 48 keys (seed `0x6C0A`): tag 2 v2, g = 4, p = 0.1,
/// N = 120, four levels, then each occupied level's first and last key.
/// The payload is pinned by length and FNV-1a.
pub fn gcola_v2() -> Fixture {
    let cells: Vec<Cell> = GCOLA_V2_CELLS.into_iter().map(cell).collect();
    let mut w = MetaWriter::new(TAG_GCOLA, 2);
    w.usize(4).f64(0.1).u64(120).usize(GCOLA_V2_DIR.len());
    let mut fences = Vec::new();
    for level in GCOLA_V2_DIR {
        level.iter().for_each(|&field| {
            w.usize(field);
        });
        let [off, slots, _, _, items, reds] = level;
        let run = &cells[off + slots - items - reds..off + slots];
        if let (Some(first), Some(last)) = (run.first(), run.last()) {
            fences.push((first.key, last.key));
        }
    }
    for (first, last) in fences {
        w.u64(first).u64(last);
    }
    let meta = w.finish();
    assert_eq!(
        (meta.len(), fnv1a(&meta)),
        (290, 0x4e05_0192_ad2d_c3d3),
        "the payload the g-COLA's v2 format wrote"
    );
    Fixture {
        cells,
        meta,
        model: replay(stream(0x6C0A, 120, 48)),
    }
}

/// `(first slot, slots, item capacity, redundancy allowance, items,
/// redundant cells, lead)` of the four levels of a v3 4-COLA at `p =
/// 0.1`: levels 0 and 1 hold items, as they did before the head.
const GCOLA_V3_DIR: [[usize; 7]; 4] = [
    [1, 1, 1, 0, 1, 0, 0],
    [2, 6, 6, 0, 2, 0, 4],
    [8, 26, 24, 2, 20, 1, 3],
    [34, 105, 96, 9, 30, 0, 49],
];

/// Its store slot by slot, as `(key, v, meta)` (see `cell`): each run
/// after its level's lead, the cells earlier carries left around it, and
/// level 2's one lookahead cell, the fixed-stride sample of level 3's 30
/// cells (position 26).
#[rustfmt::skip]
const GCOLA_V3_CELLS: [(u64, u64, u64); 139] = [
    (0, 0, 0), (35, 101, 0), (2, 92, 0), (18, 91, 0),
    (26, 96, 0), (40, 94, 0), (20, 100, 0), (24, 99, 0),
    (0, 0, 0), (0, 0, 0), (0, 55, 0), (0, 89, 0),
    (1, 78, 0), (2, 92, 0), (3, 81, 0), (8, 80, 0),
    (9, 88, 0), (12, 76, 0), (16, 0, 2), (18, 91, 0),
    (22, 75, 0), (24, 0, 2), (26, 96, 0), (27, 97, 0),
    (29, 0, 2), (31, 87, 0), (34, 0, 2), (35, 84, 0),
    (38, 86, 0), (40, 26, 1), (40, 94, 0), (44, 95, 0),
    (38, 86, 0), (40, 26, 1), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 55, 0),
    (1, 11, 0), (2, 47, 0), (3, 39, 0), (4, 23, 0),
    (5, 72, 0), (6, 54, 0), (8, 37, 0), (10, 19, 0),
    (11, 33, 0), (12, 74, 0), (14, 8, 0), (16, 36, 0),
    (17, 70, 0), (19, 60, 0), (20, 63, 0), (21, 43, 0),
    (24, 25, 0), (27, 20, 0), (28, 1, 0), (29, 52, 0),
    (30, 13, 0), (33, 49, 0), (34, 50, 0), (37, 73, 0),
    (38, 65, 0), (40, 45, 0), (42, 48, 0), (43, 59, 0),
    (45, 67, 0), (0, 0, 0), (1, 11, 0), (2, 16, 0),
    (4, 23, 0), (5, 30, 0), (10, 19, 0), (11, 33, 0),
    (14, 8, 0), (15, 34, 0), (16, 24, 0), (19, 22, 0),
    (20, 6, 0), (24, 25, 0), (25, 2, 0), (27, 20, 0),
    (28, 1, 0), (29, 27, 0), (30, 13, 0), (34, 29, 0),
    (37, 10, 0), (38, 26, 0), (41, 28, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0),
];

/// The store and the `save_meta()` the g-COLA's v3 format left after
/// 102 ops over 48 keys (seed `0x6C0B`): tag 2 v3, g = 4, p = 0.1,
/// N = 102, four levels, then each occupied level's first and last key.
/// The payload is pinned by length and FNV-1a.
pub fn gcola_v3() -> Fixture {
    let cells: Vec<Cell> = GCOLA_V3_CELLS.into_iter().map(cell).collect();
    let mut w = MetaWriter::new(TAG_GCOLA, 3);
    w.usize(4).f64(0.1).u64(102).usize(GCOLA_V3_DIR.len());
    let mut fences = Vec::new();
    for level in GCOLA_V3_DIR {
        level.iter().for_each(|&field| {
            w.usize(field);
        });
        let [off, _, _, _, items, reds, lead] = level;
        let run = &cells[off + lead..off + lead + items + reds];
        if let (Some(first), Some(last)) = (run.first(), run.last()) {
            fences.push((first.key, last.key));
        }
    }
    for (first, last) in fences {
        w.u64(first).u64(last);
    }
    let meta = w.finish();
    assert_eq!(
        (meta.len(), fnv1a(&meta)),
        (322, 0xfc37_2857_de61_e643),
        "the payload the g-COLA's v3 format wrote"
    );
    Fixture {
        cells,
        meta,
        model: replay(stream(0x6C0B, 102, 48)),
    }
}

/// `(first slot, slots, item capacity, redundancy allowance, items,
/// redundant cells, lead)` of the four levels of a v4 4-COLA at `p = 0.1`
/// written while the head held levels 0 and 1's items only: levels 2 and
/// 3, which the head holds since, hold items.
const GCOLA_V4_DIR: [[usize; 7]; 4] = [
    [1, 1, 1, 0, 0, 0, 1],
    [2, 6, 6, 0, 0, 0, 6],
    [8, 26, 24, 2, 22, 1, 1],
    [34, 105, 96, 9, 53, 0, 18],
];

/// Its head: `(key, value)` of five items.
const GCOLA_V4_HEAD: [(u64, u64); 5] = [(10, 126), (34, 125), (47, 127), (50, 129), (81, 128)];

/// Its store slot by slot, as `(key, v, meta)` (see `cell`): each run
/// after its level's lead, the cells earlier carries left around it, and
/// level 2's one lookahead cell, the fixed-stride sample of level 3's 53
/// cells. Each real cell's copy of the nearest lookahead pointer to its
/// left is restored by `gcola_v4`.
#[rustfmt::skip]
const GCOLA_V4_CELLS: [(u64, u64, u64); 139] = [
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (8, 115, 0), (25, 0, 2), (29, 0, 2),
    (30, 112, 0), (34, 119, 0), (37, 122, 0), (38, 108, 0),
    (40, 105, 0), (42, 102, 0), (46, 26, 1), (46, 104, 0),
    (49, 117, 0), (52, 113, 0), (55, 124, 0), (63, 109, 0),
    (70, 120, 0), (71, 0, 2), (75, 100, 0), (77, 107, 0),
    (80, 116, 0), (83, 110, 0), (84, 0, 2), (90, 118, 0),
    (80, 116, 0), (83, 110, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    (1, 81, 0), (3, 87, 0), (4, 7, 0), (5, 65, 0),
    (7, 54, 0), (8, 5, 0), (9, 46, 0), (10, 97, 0),
    (14, 50, 0), (15, 8, 0), (19, 89, 0), (21, 56, 0),
    (24, 2, 0), (25, 66, 0), (26, 24, 0), (27, 63, 0),
    (28, 19, 0), (29, 28, 0), (32, 92, 0), (33, 77, 0),
    (35, 80, 0), (36, 95, 0), (40, 74, 0), (43, 55, 0),
    (44, 96, 0), (45, 69, 0), (46, 90, 0), (48, 44, 0),
    (49, 85, 0), (52, 71, 0), (54, 16, 0), (60, 21, 0),
    (61, 0, 0), (63, 93, 0), (65, 64, 0), (66, 34, 0),
    (68, 99, 0), (71, 25, 0), (72, 11, 0), (73, 91, 0),
    (76, 83, 0), (79, 76, 0), (80, 98, 0), (81, 20, 0),
    (83, 62, 0), (84, 73, 0), (85, 61, 0), (87, 72, 0),
    (88, 27, 0), (89, 3, 0), (90, 37, 0), (94, 94, 0),
    (95, 1, 0), (65, 64, 0), (66, 34, 0), (71, 25, 0),
    (72, 11, 0), (73, 40, 0), (76, 52, 0), (81, 20, 0),
    (83, 62, 0), (85, 61, 0), (87, 29, 0), (88, 27, 0),
    (89, 3, 0), (90, 37, 0), (95, 1, 0), (29, 28, 0),
    (35, 12, 0), (43, 26, 0), (51, 13, 0), (52, 32, 0),
    (54, 16, 0), (56, 31, 0), (57, 14, 0), (60, 21, 0),
    (61, 0, 0), (71, 25, 0), (72, 11, 0), (81, 20, 0),
    (87, 29, 0), (88, 27, 0), (89, 3, 0), (95, 1, 0),
    (0, 0, 0), (0, 0, 0), (0, 0, 0),
];

/// The store and the `save_meta()` the g-COLA's v4 format left, with a
/// head of levels 0 and 1, after 130 ops over 96 keys (seed `0x6C0C`):
/// tag 2 v4, g = 4, p = 0.1, N = 130, four levels, the head's five cells,
/// then each occupied level's first and last key. The payload is pinned
/// by length and FNV-1a.
pub fn gcola_v4() -> Fixture {
    let mut cells: Vec<Cell> = GCOLA_V4_CELLS.into_iter().map(cell).collect();
    let mut w = MetaWriter::new(TAG_GCOLA, 4);
    w.usize(4).f64(0.1).u64(130).usize(GCOLA_V4_DIR.len());
    let mut fences = Vec::new();
    for level in GCOLA_V4_DIR {
        level.iter().for_each(|&field| {
            w.usize(field);
        });
        let [off, _, _, _, items, reds, lead] = level;
        let run = &mut cells[off + lead..off + lead + items + reds];
        let mut left = NO_PTR;
        for c in run.iter_mut() {
            match c.is_redundant() {
                true => left = c.ptr,
                false => c.ptr = left,
            }
        }
        if let (Some(first), Some(last)) = (run.first(), run.last()) {
            fences.push((first.key, last.key));
        }
    }
    w.usize(GCOLA_V4_HEAD.len());
    for (key, val) in GCOLA_V4_HEAD {
        w.u64(key).u64(val).u8(0);
    }
    for (first, last) in fences {
        w.u64(first).u64(last);
    }
    let meta = w.finish();
    assert_eq!(
        (meta.len(), fnv1a(&meta)),
        (383, 0x08a4_dcb9_3e55_2fdd),
        "the payload the g-COLA's v4 format wrote with a head of levels 0 and 1"
    );
    Fixture {
        cells,
        meta,
        model: replay(stream(0x6C0C, 130, 96)),
    }
}

//! Formats no engine writes any more — their versions, layouts and
//! checks — and the one path that opens them: a directory parser per
//! format, and [`live_entries`], which reads the runs it names into the
//! live entries a fresh engine bulk-loads ([`crate::GCola::bulk_load`],
//! [`crate::DeamortCola::bulk_load`]). A sharded store also names its
//! structure in a manifest; [`manifest_heir`] maps the one retired
//! manifest identity. DESIGN.md, "Decided: one migration path for retired
//! formats", has the format table and the trade.

use std::cmp::Reverse;

use cosbt_dam::Mem;

use crate::cursor::RunMergeCursor;
use crate::dict::CursorOps;
use crate::entry::Cell;
use crate::persist::{peek_tag, spans, MetaError, MetaReader, TAG_BASIC_COLA, TAG_DEAMORT};
use crate::run::Run;
use crate::runbuf::RunBuf;

/// Version of the basic COLA's own format.
const BASIC_VERSION: u8 = 2;
/// Version of the three-array format.
const THREE_ARRAY_VERSION: u8 = 2;

/// The engine a store in a retired format is rebuilt into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heir {
    /// The basic COLA, [`crate::GCola::basic`].
    BasicCola,
    /// The deamortized COLA, [`crate::DeamortCola`].
    DeamortCola,
}

/// The engine a store whose meta carries `tag` is rebuilt into, or
/// `None` if `tag` names no retired format.
pub fn heir(tag: u8) -> Option<Heir> {
    match tag {
        TAG_BASIC_COLA => Some(Heir::BasicCola),
        TAG_DEAMORT => Some(Heir::DeamortCola),
        _ => None,
    }
}

/// The engine a sharded store whose manifest records the structure
/// identity `(tag, param)` is opened as, or `None` if that identity is
/// not a retired one. Only `(TAG_DEAMORT, 2)` is: stores built as the
/// deamortized 2-COLA recorded it, and the deamortized COLA now records
/// its own meta tag. Its shards hold current meta.
pub fn manifest_heir(tag: u8, param: u64) -> Option<Heir> {
    ((tag, param) == (TAG_DEAMORT, 2)).then_some(Heir::DeamortCola)
}

/// A run slot of a retired directory: its first slot, its length and, if
/// queries read it, its place in newest-first order.
type Slot = (usize, usize, Option<(usize, Reverse<u64>)>);

/// What a directory parser returns: every run slot, the persisted fence
/// keys of each occupied one, and how an error names the `i`-th slot.
type Directory = (Vec<Slot>, Vec<Option<(u64, u64)>>, fn(usize) -> String);

/// The live entries `mem` answers, if `meta` is in a retired format (else
/// `None`), in key order: each occupied run held to its fence keys and
/// cascade state by `Run::reopen`, the runs read newest first through one
/// [`RunMergeCursor`] into a buffer of 32 bytes an entry. Writes nothing.
pub fn live_entries<M: Mem<Cell>>(mem: &M, meta: &[u8]) -> Result<Option<Vec<Cell>>, MetaError> {
    let (slots, fences, what) = match peek_tag(meta) {
        Some(TAG_BASIC_COLA) => basic_dir(mem, meta)?,
        Some(TAG_DEAMORT) => three_array_dir(mem, meta)?,
        _ => return Ok(None),
    };
    let (mut scratch, mut runs) = (RunBuf::new(), Vec::new());
    for (i, ((base, len, order), fence)) in slots.into_iter().zip(fences).enumerate() {
        if let Some(fence) = fence {
            let run = Run {
                base,
                len,
                aux: None,
            };
            let what = format_args!("{}", what(i));
            let aux = run.reopen(mem, &mut scratch, fence, what, |_, _| {})?;
            runs.extend(order.map(|order| (order, run, aux)));
        }
    }
    runs.sort_by_key(|&(order, ..)| order);
    let runs = runs.iter().map(|(_, run, aux)| Run {
        aux: Some(aux),
        ..*run
    });
    let mut cursor = RunMergeCursor::new(mem, runs, 0, u64::MAX).windowed(&mut scratch);
    let live = std::iter::from_fn(|| cursor.next()).map(|(key, val)| Cell::item(key, val));
    Ok(Some(live.collect()))
}

/// The basic COLA's own directory: N, a level count and a full bit per
/// level, then the full levels' fence keys. Level k is `2^k` slots at slot
/// `2^k`, full iff bit k of N is set (none is past the count), and holds
/// a key's versions newest first; smaller levels are newer.
fn basic_dir<M: Mem<Cell>>(mem: &M, meta: &[u8]) -> Result<Directory, MetaError> {
    let mut r = MetaReader::new(meta, TAG_BASIC_COLA, BASIC_VERSION)?;
    let n = r.u64()?;
    let count = r.level_count(60)?;
    let full: Vec<bool> = (0..count).map(|_| r.bool()).collect::<Result<_, _>>()?;
    let is_full = |k: usize| full.get(k).copied().unwrap_or(false);
    if let Some(k) = (0..64).find(|&k| is_full(k) != (n >> k & 1 == 1)) {
        return Err(MetaError::Invalid(format!(
            "level {k} occupancy disagrees with insertion count {n}"
        )));
    }
    let fences = r.fences(full.into_iter())?;
    r.finish()?;
    spans(mem, count, 1 << count)?;
    let levels = (0..count).map(|k| (1 << k, 1 << k, Some((k, Reverse(0)))));
    Ok((levels.collect(), fences, |k| format!("level {k}")))
}

/// First slot of array `a` of level `k` in the three-array format: levels
/// packed contiguously, each holding three arrays of `2^{k+1}` slots.
fn three_array_off(k: usize, a: usize) -> usize {
    3 * ((2usize << k) - 2) + a * (2usize << k)
}

/// The three-array format's directory: N, a recency counter, a level
/// count, then per array its visible bit, occupied `start..start + len`,
/// item count, recency, link into the next level and merged-upward bit,
/// each checked, then the occupied arrays' fence keys. Its visible arrays
/// answer, merged upward or not, newest first: by level, then recency.
fn three_array_dir<M: Mem<Cell>>(mem: &M, meta: &[u8]) -> Result<Directory, MetaError> {
    let mut r = MetaReader::new(meta, TAG_DEAMORT, THREE_ARRAY_VERSION)?;
    let (_insertions, _recency) = (r.u64()?, r.u64()?);
    let count = r.level_count(60)?;
    let mut arrays = Vec::with_capacity(3 * count);
    for (k, a) in (0..count).flat_map(|k| [(k, 0), (k, 1), (k, 2)]) {
        let visible = r.bool()?;
        let (start, len, items, recency) = (r.usize()?, r.usize()?, r.usize()?, r.u64()?);
        let link = r.bool()?.then(|| r.usize()).transpose()?;
        let _merged_upward = r.bool()?;
        let in_bounds = start.checked_add(len).is_some_and(|end| end <= 2 << k);
        if !in_bounds || items > len || link.is_some_and(|t| t >= 3) {
            return Err(MetaError::Invalid(format!(
                "level {k} array {a} bookkeeping out of bounds"
            )));
        }
        let order = visible.then_some((k, Reverse(recency)));
        arrays.push((three_array_off(k, a) + start, len, order));
    }
    let fences = r.fences(arrays.iter().map(|&(_, len, _)| len > 0))?;
    r.finish()?;
    spans(mem, count, three_array_off(count, 0))?;
    Ok((arrays, fences, |i| {
        format!("level {} array {}", i / 3, i % 3)
    }))
}

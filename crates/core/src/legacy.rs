//! Formats no engine writes any more — their versions, layouts and
//! checks — and the one path that opens them: a directory parser per
//! format, and [`live_entries`], which reads the runs it names into the
//! live entries a fresh engine bulk-loads ([`crate::GCola::bulk_load`],
//! [`crate::GCola::deamortized_bulk_load`]). A retired format is a tag,
//! or a tag and a version: the g-COLA's v2 and v3 share their tag with
//! the v4 the g-COLA writes, and the two-array engine's v2 its tag with
//! the deamortized g-COLA's v3. A sharded store built before its
//! shard 0 carried the database's [`Root`] kept that root in two side
//! files; [`sidecar_root`] reads them. DESIGN.md, "Decided: one migration
//! path for retired formats", has the format table and the trade.

use std::cmp::Reverse;

use cosbt_dam::format::fnv1a;
use cosbt_dam::Mem;

use crate::cursor::RunMergeCursor;
use crate::dict::CursorOps;
use crate::entry::Cell;
use crate::persist::{
    peek_tag, spans, MetaError, MetaReader, Root, TAG_BASIC_COLA, TAG_DEAMORT, TAG_DEAMORT_BASIC,
    TAG_GCOLA,
};
use crate::run::Run;
use crate::runbuf::RunBuf;

/// Version of the basic COLA's own format.
const BASIC_VERSION: u8 = 2;
/// Version of the three-array format.
const THREE_ARRAY_VERSION: u8 = 2;
/// Version of the two-array engine's format (the deamortized COLA's v2).
const TWO_ARRAY_VERSION: u8 = 2;
/// The g-COLA's format before its levels kept a lead.
const GCOLA_V2: u8 = 2;
/// The g-COLA's format before levels 0 and 1 became the head.
const GCOLA_V3: u8 = 3;

/// The engine a store in a retired format is rebuilt into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heir {
    /// The basic COLA, [`crate::GCola::basic`].
    BasicCola,
    /// The deamortized COLA, [`crate::GCola::deamortized`].
    DeamortizedCola,
}

/// The engine a store whose meta carries `tag` is rebuilt into, or
/// `None` if `tag` names no retired format.
pub fn heir(tag: u8) -> Option<Heir> {
    match tag {
        TAG_BASIC_COLA => Some(Heir::BasicCola),
        TAG_DEAMORT => Some(Heir::DeamortizedCola),
        _ => None,
    }
}

/// The root of a sharded store built before shard 0 carried one, and
/// shard 0's committed epoch, from the two side files it kept; `Err((i,
/// why))` if side file `i` (in argument order) is corrupt. Each is a
/// magic, its fields and the FNV-1a of both. `manifest` (`<base>.manifest`,
/// written once) holds its version, the shard count, the structure
/// identity and the splitters; `commit` (`<base>.commit`, renamed into
/// place once every shard had committed) every shard's epoch. The retired
/// identity `(TAG_DEAMORT, 2)` (the deamortized 2-COLA) becomes the
/// deamortized COLA's.
pub fn sidecar_root(manifest: &[u8], commit: &[u8]) -> Result<(Root, u64), (usize, String)> {
    let fields = |r: &mut MetaReader| Ok(((r.u32()?, r.u32()?, r.u8()?, r.u64()?), list(r)?));
    let ((version, shards, tag, param), splitters) =
        unseal(manifest, b"COSBTMAN", fields).map_err(|why| (0, format!("manifest: {why}")))?;
    if version != 1 || splitters.len() + 1 != shards as usize {
        return Err((0, format!("manifest v{version} of {shards} shards")));
    }
    let epochs = unseal(commit, b"COSBTCPT", list).map_err(|why| (1, format!("commit: {why}")))?;
    if epochs.len() != shards as usize {
        return Err((1, format!("commit record of {} shards", epochs.len())));
    }
    let structure = match (tag, param) {
        (TAG_DEAMORT, 2) => (TAG_DEAMORT_BASIC, 0),
        identity => identity,
    };
    let root = Root {
        structure,
        splitters,
        epochs: epochs[1..].to_vec(),
    };
    Ok((root, epochs[0]))
}

/// What `fields` reads from `buf` after `magic`, once the magic and the
/// trailing FNV-1a of both check out; no byte may be left over.
fn unseal<T>(
    buf: &[u8],
    magic: &[u8; 8],
    fields: impl FnOnce(&mut MetaReader) -> Result<T, MetaError>,
) -> Result<T, String> {
    let body = buf.strip_prefix(magic).ok_or("bad magic")?;
    let (body, sum) = body.split_last_chunk().ok_or("truncated")?;
    if u64::from_le_bytes(*sum) != fnv1a(&buf[..buf.len() - 8]) {
        return Err("checksum mismatch".into());
    }
    let mut r = MetaReader::untagged(body);
    let out = fields(&mut r).and_then(|out| r.finish().map(|()| out));
    out.map_err(|e| e.to_string())
}

/// A `u32` count, then that many `u64`s.
fn list(r: &mut MetaReader) -> Result<Vec<u64>, MetaError> {
    (0..r.u32()?).map(|_| r.u64()).collect()
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
    let (slots, fences, what) = match (peek_tag(meta), meta.get(1)) {
        (Some(TAG_BASIC_COLA), _) => basic_dir(mem, meta)?,
        (Some(TAG_DEAMORT), _) => three_array_dir(mem, meta)?,
        (Some(TAG_DEAMORT_BASIC), Some(&TWO_ARRAY_VERSION)) => two_array_dir(mem, meta)?,
        (Some(TAG_GCOLA), Some(&v @ (GCOLA_V2 | GCOLA_V3))) => gcola_dir(mem, meta, v)?,
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
            let aux = run.reopen(mem, &mut scratch, fence, len, what, |_, _| {})?;
            runs.extend(order.map(|order| (order, run, aux)));
        }
    }
    runs.sort_by_key(|&(order, ..)| order);
    let runs = runs.iter().map(|(_, run, aux)| Run {
        aux: Some(aux),
        ..*run
    });
    let mut cursor = RunMergeCursor::lent(mem, [&[], &[]], runs, (0, u64::MAX), &mut scratch);
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

/// The two-array format's directory: N, a recency counter, a level
/// count, then per array a state byte — 0 empty, 1 full and its recency
/// (the engine quiesced before it wrote, so no array is filling) — then
/// the full arrays' fence keys. Level k held two arrays of `2^k` slots,
/// the levels packed from slot 0; a full one holds `2^k` cells, a key's
/// versions newest first, and answers by level, then recency.
fn two_array_dir<M: Mem<Cell>>(mem: &M, meta: &[u8]) -> Result<Directory, MetaError> {
    let mut r = MetaReader::new(meta, TAG_DEAMORT_BASIC, TWO_ARRAY_VERSION)?;
    let (_insertions, _recency) = (r.u64()?, r.u64()?);
    let count = r.level_count(60)?;
    let off = |k: usize, side: usize| ((2 + side) << k) - 2;
    let mut arrays = Vec::with_capacity(2 * count);
    for (k, side) in (0..count).flat_map(|k| [(k, 0), (k, 1)]) {
        let order = match r.u8()? {
            0 => None,
            1 => Some((k, Reverse(r.u64()?))),
            b => {
                return Err(MetaError::Invalid(format!(
                    "level {k} side {side} state {b}"
                )))
            }
        };
        arrays.push((off(k, side), order.map_or(0, |_| 1 << k), order));
    }
    let fences = r.fences(arrays.iter().map(|&(_, len, _)| len > 0))?;
    r.finish()?;
    spans(mem, count, off(count, 0))?;
    Ok((arrays, fences, |i| {
        format!("level {} side {}", i / 2, i % 2)
    }))
}

/// The g-COLA's v2 and v3 directories: its growth factor, pointer
/// density and N, a level count, then per level its first slot, slots,
/// item capacity, redundancy allowance, items and redundant cells — and,
/// from v3 on, its lead, the free slots before its run — each checked,
/// then the occupied levels' fence keys. A v2 run is right-justified in
/// its level; smaller levels are newer. Their lookahead cells sample the
/// level above, which no search here reads.
fn gcola_dir<M: Mem<Cell>>(mem: &M, meta: &[u8], version: u8) -> Result<Directory, MetaError> {
    let mut r = MetaReader::new(meta, TAG_GCOLA, version)?;
    let (_g, _p, _n) = (r.usize()?, r.f64()?, r.u64()?);
    let count = r.level_count(64)?;
    let (mut levels, mut end) = (Vec::with_capacity(count), 1);
    for l in 0..count {
        let (off, slots, cap) = (r.usize()?, r.usize()?, r.usize()?);
        let (red_cap, items, reds) = (r.usize()?, r.usize()?, r.usize()?);
        let lead = (version != GCOLA_V2).then(|| r.usize()).transpose()?;
        // A v2 run ends its level: its lead is the slots it leaves.
        let fits = off == end
            && cap.checked_add(red_cap) == Some(slots)
            && items <= cap
            && reds <= red_cap
            && lead.is_none_or(|lead| lead.checked_add(items + reds).is_some_and(|e| e <= slots));
        let Some(next) = off.checked_add(slots).filter(|_| fits) else {
            return Err(MetaError::Invalid(format!(
                "level {l} geometry/occupancy out of bounds"
            )));
        };
        let lead = lead.unwrap_or(slots - items - reds);
        levels.push((off + lead, items + reds, Some((l, Reverse(0)))));
        end = next;
    }
    let fences = r.fences(levels.iter().map(|&(_, len, _)| len > 0))?;
    r.finish()?;
    spans(mem, count, end)?;
    Ok((levels, fences, |l| format!("level {l}")))
}

//! The structure ↔ store persistence boundary.
//!
//! Every dictionary in the workspace keeps two kinds of state: bulk data
//! living in its storage backend (cells in a [`cosbt_dam::Mem`], nodes in
//! a [`cosbt_dam::PageStore`]) and *control state* living in RAM — COLA
//! level occupancy, a B-tree's root page id, a BRT's root and counters.
//! Durability means both survive: the dam layer commits the bulk data and
//! an opaque payload shadow-style (see `cosbt_dam::file`), and this module
//! defines what goes into that payload.
//!
//! [`Persist::save_meta`] serializes the control state into a versioned,
//! tag-prefixed byte string; each structure pairs it with an inherent
//! `from_parts(store, meta)` constructor that validates and rebuilds the
//! structure over an already-populated store. The encoding is explicit
//! little-endian via [`MetaWriter`]/[`MetaReader`] — no `unsafe`, no
//! serde — and every field read is bounds-checked so a corrupt or
//! mismatched payload yields a [`MetaError`], never a panic or a
//! mis-shaped structure.
//!
//! The deamortized COLA ([`crate::GCola::deamortized`]) carries merges
//! in flight across inserts — a filling extent and where its fold stands;
//! rather than persist a half-finished merge, its `save_meta` first
//! *quiesces* — drives all in-flight merges to completion. That preserves
//! logical contents exactly and makes the saved state a clean checkpoint;
//! the worst-case per-insert bound applies between checkpoints, not
//! across one (a sync is an O(data) event anyway).

use cosbt_dam::Mem;

use crate::entry::Cell;
use crate::run::Run;

/// Serializes a dictionary's control state for the storage layer's
/// metadata commit. Implemented by every structure in the workspace; the
/// matching deserializer is the structure's inherent
/// `from_parts(store, meta)` constructor (not part of the trait — it
/// returns `Self` and therefore cannot be object-safe).
///
/// Takes `&mut self` because implementations may complete in-flight
/// incremental work (quiescing) before serializing; the dictionary's
/// logical contents are never changed.
pub trait Persist {
    /// The structure's control state as a versioned, self-describing byte
    /// string (first byte: structure tag, second: format version).
    fn save_meta(&mut self) -> Vec<u8>;
}

/// Structure tag of the basic COLA's own metadata format, which nothing
/// writes any more: the basic COLA is now [`crate::GCola::basic`] and
/// writes [`TAG_GCOLA`]. [`crate::legacy`] opens such a store.
pub const TAG_BASIC_COLA: u8 = 1;
/// Structure tag of [`crate::GCola`] metadata.
pub const TAG_GCOLA: u8 = 2;
/// Structure tag of the deamortized COLA's metadata
/// ([`crate::GCola::deamortized`]): the g-COLA's, with each extent's
/// state. Its version 2, the two-array engine's own format, opens through
/// [`crate::legacy`].
pub const TAG_DEAMORT_BASIC: u8 = 3;
/// Structure tag of the three-array format of Theorem 24, which nothing
/// writes any more. [`crate::legacy`] opens such a store.
pub const TAG_DEAMORT: u8 = 4;
/// Structure tag of the B-tree's metadata (`cosbt-btree`).
pub const TAG_BTREE: u8 = 5;
/// Structure tag of the BRT's metadata (`cosbt-brt`).
pub const TAG_BRT: u8 = 6;
/// Structure tag of the shuttle tree (memory-only; never restored).
pub const TAG_SHUTTLE: u8 = 7;
/// Tag of a database [`Root`], which rides ahead of shard 0's own
/// structure meta in shard 0's commit slot.
pub const TAG_ROOT: u8 = 8;

/// Human-readable name of a structure tag, for error messages.
pub fn tag_name(tag: u8) -> &'static str {
    match tag {
        TAG_BASIC_COLA => "basic-COLA",
        TAG_GCOLA => "g-COLA",
        TAG_DEAMORT_BASIC => "deamortized-basic-COLA",
        TAG_DEAMORT => "deamortized-COLA",
        TAG_BTREE => "B-tree",
        TAG_BRT => "BRT",
        TAG_SHUTTLE => "shuttle",
        TAG_ROOT => "root",
        _ => "unknown",
    }
}

/// Why decoding a structure's persisted control state failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaError {
    /// The payload ended before the expected field.
    Truncated,
    /// The payload describes a different structure than the caller is
    /// reconstructing.
    WrongStructure {
        /// Tag found in the payload.
        found: u8,
        /// Tag the caller expected.
        expected: u8,
    },
    /// The payload's per-structure format version is not understood.
    BadVersion(u8),
    /// A decoded field violates a structural invariant (out-of-bounds
    /// offset, occupancy/insertion-count disagreement, …).
    Invalid(String),
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::Truncated => write!(f, "metadata payload truncated"),
            MetaError::WrongStructure { found, expected } => write!(
                f,
                "metadata belongs to {} (tag {found}), expected {} (tag {expected})",
                tag_name(*found),
                tag_name(*expected)
            ),
            MetaError::BadVersion(v) => write!(f, "unsupported structure metadata version {v}"),
            MetaError::Invalid(what) => write!(f, "invalid metadata: {what}"),
        }
    }
}

impl std::error::Error for MetaError {}

/// Little-endian metadata encoder. Counterpart of [`MetaReader`].
#[derive(Debug, Default)]
pub struct MetaWriter {
    buf: Vec<u8>,
}

impl MetaWriter {
    /// Starts a payload with the structure `tag` and format `version`.
    pub fn new(tag: u8, version: u8) -> MetaWriter {
        MetaWriter {
            buf: vec![tag, version],
        }
    }

    /// Appends a byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Appends an `f64` as its IEEE-754 bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Appends the fence keys of the COLA family's v2 formats: for each
    /// occupied run among `runs`, in the order given (the structure's
    /// directory order), the key of its first and of its last stored
    /// cell, read from the store. Counterpart of [`MetaReader::fences`];
    /// [`Run::reopen`] holds the reopened cells to them.
    pub(crate) fn fences<'a, M: Mem<Cell>>(
        &mut self,
        mem: &M,
        runs: impl Iterator<Item = Run<'a>>,
    ) -> &mut Self {
        for run in runs.filter(|run| run.len > 0) {
            self.u64(mem.get(run.base).key)
                .u64(mem.get(run.base + run.len - 1).key);
        }
        self
    }

    /// The finished payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian metadata decoder.
#[derive(Debug)]
pub struct MetaReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> MetaReader<'a> {
    /// Wraps a payload and validates its tag and version (version must
    /// equal `version` exactly; bump per structure when its layout
    /// changes).
    pub fn new(buf: &'a [u8], expected_tag: u8, version: u8) -> Result<MetaReader<'a>, MetaError> {
        let mut r = MetaReader::untagged(buf);
        let tag = r.u8()?;
        if tag != expected_tag {
            return Err(MetaError::WrongStructure {
                found: tag,
                expected: expected_tag,
            });
        }
        let v = r.u8()?;
        if v != version {
            return Err(MetaError::BadVersion(v));
        }
        Ok(r)
    }

    /// Wraps a byte string with no tag or version in front: the same
    /// bounds-checked reads over any little-endian record.
    pub fn untagged(buf: &'a [u8]) -> MetaReader<'a> {
        MetaReader { buf, pos: 0 }
    }

    /// The next `N` bytes.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], MetaError> {
        let bytes = *self.buf[self.pos..]
            .first_chunk()
            .ok_or(MetaError::Truncated)?;
        self.pos += N;
        Ok(bytes)
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> Result<u8, MetaError> {
        Ok(u8::from_le_bytes(self.take()?))
    }

    /// Reads a bool (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, MetaError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(MetaError::Invalid(format!("bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, MetaError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, MetaError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// Reads a `usize` (persisted as `u64`; must fit the platform).
    pub fn usize(&mut self) -> Result<usize, MetaError> {
        usize::try_from(self.u64()?).map_err(|_| MetaError::Invalid("usize overflow".into()))
    }

    /// Reads a level count in `1..=max`. Bounded before anything is
    /// allocated or shifted with it: a corrupt payload must yield a
    /// [`MetaError`], not an allocator abort, and every COLA's capacities
    /// grow geometrically, so some 60 levels already exceed any store.
    pub(crate) fn level_count(&mut self, max: usize) -> Result<usize, MetaError> {
        match self.usize()? {
            count if (1..=max).contains(&count) => Ok(count),
            count => Err(MetaError::Invalid(format!("level count {count}"))),
        }
    }

    /// Reads an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, MetaError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads what [`MetaWriter::fences`] wrote: a `(first, last)` key
    /// pair for each run slot that `occupied` says holds cells, `None`
    /// for the others, in the order given.
    pub(crate) fn fences(
        &mut self,
        occupied: impl Iterator<Item = bool>,
    ) -> Result<Vec<Option<(u64, u64)>>, MetaError> {
        occupied
            .map(|occ| occ.then(|| Ok((self.u64()?, self.u64()?))).transpose())
            .collect()
    }

    /// Asserts the payload is fully consumed (trailing garbage is a
    /// corruption signal, not slack).
    pub fn finish(self) -> Result<(), MetaError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(MetaError::Invalid(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Fails unless `mem` holds the `need` slots that `count` levels span.
pub(crate) fn spans<M: Mem<Cell>>(mem: &M, count: usize, need: usize) -> Result<(), MetaError> {
    match mem.len() {
        len if len < need => Err(MetaError::Invalid(format!(
            "store holds {len} cells, {count} levels need {need}"
        ))),
        _ => Ok(()),
    }
}

/// Peeks the structure tag of a payload without consuming it (`None` for
/// an empty payload). The facade uses this to produce "file holds X,
/// builder asked for Y" errors before attempting reconstruction.
pub fn peek_tag(buf: &[u8]) -> Option<u8> {
    buf.first().copied()
}

/// A database's identity, committed ahead of shard 0's structure meta
/// in shard 0's slot, whose write is the database's one commit point; the
/// slot framing checksums it with the rest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Root {
    /// The structure identity the database was built as: `(tag, growth
    /// factor or fanout)`, 0 if the structure has neither.
    pub structure: (u8, u64),
    /// The shard boundaries.
    pub splitters: Vec<u64>,
    /// The committed epoch of each shard past shard 0.
    pub epochs: Vec<u64>,
}

impl Root {
    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.splitters.len() + 1
    }

    /// The root, then `shard0`, shard 0's structure meta.
    pub fn encode(&self, shard0: &[u8]) -> Vec<u8> {
        let mut w = MetaWriter::new(TAG_ROOT, 1);
        let (tag, param) = self.structure;
        w.u8(tag).u64(param).u32(self.shards() as u32);
        for &v in self.splitters.iter().chain(&self.epochs) {
            w.u64(v);
        }
        [w.finish(), shard0.to_vec()].concat()
    }

    /// What shard 0 committed, split into the root and shard 0's
    /// structure meta; `None` if `meta` is bare structure meta.
    pub fn split(meta: &[u8]) -> Result<Option<(Root, &[u8])>, MetaError> {
        if peek_tag(meta) != Some(TAG_ROOT) {
            return Ok(None);
        }
        let mut r = MetaReader::new(meta, TAG_ROOT, 1)?;
        let structure = (r.u8()?, r.u64()?);
        // A root of 0 shards asks for 2^32 − 1 of each: a truncation.
        let others = r.u32()?.wrapping_sub(1);
        let mut list = || (0..others).map(|_| r.u64()).collect::<Result<Vec<_>, _>>();
        let (splitters, epochs) = (list()?, list()?);
        if !splitters.is_sorted_by(|a, b| a < b) {
            return Err(MetaError::Invalid("root splitters not increasing".into()));
        }
        let root = Root {
            structure,
            splitters,
            epochs,
        };
        Ok(Some((root, &meta[r.pos..])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = MetaWriter::new(TAG_GCOLA, 1);
        w.u8(7)
            .bool(true)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX - 1)
            .usize(12345)
            .f64(0.125);
        let buf = w.finish();
        assert_eq!(peek_tag(&buf), Some(TAG_GCOLA));
        let mut r = MetaReader::new(&buf, TAG_GCOLA, 1).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), 0.125);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_mismatch_truncation_and_trailing() {
        let buf = MetaWriter::new(TAG_BTREE, 1).finish();
        assert_eq!(
            MetaReader::new(&buf, TAG_BRT, 1).unwrap_err(),
            MetaError::WrongStructure {
                found: TAG_BTREE,
                expected: TAG_BRT
            }
        );
        assert_eq!(
            MetaReader::new(&buf, TAG_BTREE, 2).unwrap_err(),
            MetaError::BadVersion(1)
        );
        let mut r = MetaReader::new(&buf, TAG_BTREE, 1).unwrap();
        assert_eq!(r.u64().unwrap_err(), MetaError::Truncated);
        assert_eq!(
            MetaReader::new(&[], TAG_BTREE, 1).unwrap_err(),
            MetaError::Truncated
        );

        let mut w = MetaWriter::new(TAG_BTREE, 1);
        w.u8(1);
        let buf = w.finish();
        let r = MetaReader::new(&buf, TAG_BTREE, 1).unwrap();
        assert!(matches!(r.finish(), Err(MetaError::Invalid(_))));
    }

    #[test]
    fn bad_bool_bytes_are_rejected() {
        let mut w = MetaWriter::new(TAG_BASIC_COLA, 1);
        w.u8(2);
        let buf = w.finish();
        let mut r = MetaReader::new(&buf, TAG_BASIC_COLA, 1).unwrap();
        assert!(matches!(r.bool(), Err(MetaError::Invalid(_))));
    }
}

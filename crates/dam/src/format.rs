//! The durable on-disk format: superblock and shadow-committed metadata
//! region shared by [`crate::FilePages`] and [`crate::FileMem`].
//!
//! ```text
//! byte 0                superblock (64 B, written once at create)
//! byte 64               metadata slot 0   ┐ double-buffered commit
//! byte 64 + S           metadata slot 1   ┘ region (S bytes each)
//! byte data_off         physical data pages (page_size each)
//! ```
//!
//! **Superblock** — magic, format version, page size, payload kind
//! (raw pages vs. element array), element stride, slot capacity, and an
//! FNV-1a checksum. Written exactly once when the file is created and
//! never touched again, so no crash can corrupt it after creation.
//!
//! **Metadata slots** — the commit protocol writes the store's control
//! state (page table, allocation high-water mark, and the caller's opaque
//! payload) to the *inactive* slot with a monotonically increasing epoch,
//! then issues a durability barrier. Recovery reads both slots and keeps
//! the one with the highest epoch whose header and payload checksums both
//! verify: a torn or lost slot write simply leaves the previous epoch in
//! charge. The epoch ordering *is* the active-slot flip — no separate
//! flag write is needed, so there is no window in which neither slot is
//! authoritative.

use std::path::PathBuf;

/// File magic, byte 0 of every store.
pub const MAGIC: [u8; 8] = *b"COSBTDAM";
/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 1;
/// Superblock size in bytes.
pub const SUPER_BYTES: usize = 64;
/// Metadata slot header size in bytes (epoch, payload length, payload
/// checksum, header checksum).
pub const SLOT_HDR_BYTES: usize = 28;
/// Default capacity of one metadata slot. Bounds the committed control
/// state: page table (4 B per logical page) plus the structure payload.
/// 256 KiB covers ~64 Ki logical pages — a 256 MiB data file at 4 KiB
/// pages — before [`OpenError::Corrupt`]-free commits would overflow.
pub const DEFAULT_SLOT_BYTES: usize = 256 * 1024;

/// Superblock payload kind: raw byte pages ([`crate::FilePages`]).
pub const KIND_PAGES: u32 = 1;
/// Superblock payload kind: flat element array ([`crate::FileMem`]).
pub const KIND_ELEM: u32 = 2;

/// 64-bit FNV-1a over `bytes` — the format's checksum. Not cryptographic;
/// it detects torn writes and stale garbage, which is all the commit
/// protocol needs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Why opening a store file failed. Validation failures never modify the
/// file: open reads, checks, and hands back ownership untouched.
#[derive(Debug)]
pub enum OpenError {
    /// The underlying device errored (includes "no such file").
    Io(std::io::Error),
    /// The file does not start with the format magic — not a cosbt store.
    BadMagic,
    /// The file is a cosbt store of a format version this build does not
    /// understand.
    UnsupportedVersion(u32),
    /// The superblock's payload kind or element stride does not match
    /// what the caller asked to open (e.g. opening a page store as an
    /// element array).
    WrongKind {
        /// Kind/stride recorded in the file.
        found: (u32, u32),
        /// Kind/stride the caller expected.
        expected: (u32, u32),
    },
    /// A structural invariant failed (checksum mismatch explained by
    /// neither slot being valid is [`OpenError::NeverCommitted`] instead).
    Corrupt(String),
    /// The superblock is valid but no metadata epoch was ever committed:
    /// the store was created but never synced.
    NeverCommitted,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "I/O error: {e}"),
            OpenError::BadMagic => write!(f, "not a cosbt store (bad magic)"),
            OpenError::UnsupportedVersion(v) => write!(
                f,
                "unsupported on-disk format version {v} (this build understands \
                 {FORMAT_VERSION})"
            ),
            OpenError::WrongKind { found, expected } => write!(
                f,
                "payload kind mismatch: file holds kind {} stride {}, caller expected kind {} \
                 stride {}",
                found.0, found.1, expected.0, expected.1
            ),
            OpenError::Corrupt(what) => write!(f, "corrupt store: {what}"),
            OpenError::NeverCommitted => {
                write!(f, "store was created but never committed (sync the Db)")
            }
        }
    }
}

impl std::error::Error for OpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpenError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OpenError {
    fn from(e: std::io::Error) -> Self {
        OpenError::Io(e)
    }
}

impl OpenError {
    /// Whether this error means "the file does not exist" — the case
    /// `open_or_create` falls back to creation on.
    pub fn is_missing(&self) -> bool {
        matches!(self, OpenError::Io(e) if e.kind() == std::io::ErrorKind::NotFound)
    }
}

/// The decoded superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// On-disk format version.
    pub version: u32,
    /// Page size in bytes.
    pub page_size: u32,
    /// Payload kind ([`KIND_PAGES`] or [`KIND_ELEM`]).
    pub kind: u32,
    /// Element stride for [`KIND_ELEM`] (0 for raw pages).
    pub elem_bytes: u32,
    /// Capacity of one metadata slot in bytes.
    pub slot_bytes: u32,
}

impl Superblock {
    /// Encodes the superblock into its 64-byte on-disk form.
    pub fn encode(&self) -> [u8; SUPER_BYTES] {
        let mut out = [0u8; SUPER_BYTES];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..16].copy_from_slice(&self.page_size.to_le_bytes());
        out[16..20].copy_from_slice(&self.kind.to_le_bytes());
        out[20..24].copy_from_slice(&self.elem_bytes.to_le_bytes());
        out[24..28].copy_from_slice(&self.slot_bytes.to_le_bytes());
        let ck = fnv1a(&out[..56]);
        out[56..64].copy_from_slice(&ck.to_le_bytes());
        out
    }

    /// Decodes and validates a superblock read from byte 0 of a file.
    /// `got` is the number of bytes actually read into `buf`.
    pub fn decode(buf: &[u8; SUPER_BYTES], got: usize) -> Result<Superblock, OpenError> {
        if got < 8 || buf[0..8] != MAGIC {
            return Err(OpenError::BadMagic);
        }
        if got < SUPER_BYTES {
            return Err(OpenError::Corrupt("truncated superblock".into()));
        }
        let truncated = || OpenError::Corrupt("truncated superblock".into());
        let u32_at = |o| le(buf, o).map(u32::from_le_bytes).ok_or_else(truncated);
        let version = u32_at(8)?;
        if version != FORMAT_VERSION {
            return Err(OpenError::UnsupportedVersion(version));
        }
        let ck = le(buf, 56).map(u64::from_le_bytes).ok_or_else(truncated)?;
        if ck != fnv1a(&buf[..56]) {
            return Err(OpenError::Corrupt("superblock checksum mismatch".into()));
        }
        let sb = Superblock {
            version,
            page_size: u32_at(12)?,
            kind: u32_at(16)?,
            elem_bytes: u32_at(20)?,
            slot_bytes: u32_at(24)?,
        };
        if sb.page_size == 0 || sb.slot_bytes as usize <= SLOT_HDR_BYTES {
            return Err(OpenError::Corrupt("nonsensical superblock geometry".into()));
        }
        Ok(sb)
    }

    /// Byte offset of metadata slot `i` (0 or 1).
    pub fn slot_off(&self, i: usize) -> u64 {
        SUPER_BYTES as u64 + i as u64 * self.slot_bytes as u64
    }

    /// Byte offset of the first physical data page: the header region
    /// rounded up to a page boundary.
    pub fn data_off(&self) -> u64 {
        let hdr = SUPER_BYTES as u64 + 2 * self.slot_bytes as u64;
        hdr.div_ceil(self.page_size as u64) * self.page_size as u64
    }
}

/// Encodes one metadata slot: header (epoch, length, checksums) followed
/// by the payload. Fails if the payload exceeds the slot capacity.
pub fn encode_slot(epoch: u64, payload: &[u8], slot_bytes: usize) -> std::io::Result<Vec<u8>> {
    if SLOT_HDR_BYTES + payload.len() > slot_bytes {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "metadata payload ({} B) exceeds the slot capacity ({} B): the store holds \
                 more pages than its metadata region can map",
                payload.len(),
                slot_bytes - SLOT_HDR_BYTES
            ),
        ));
    }
    let mut out = Vec::with_capacity(SLOT_HDR_BYTES + payload.len());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    let hdr_ck = fnv1a(&out[..20]);
    out.extend_from_slice(&hdr_ck.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Decodes one metadata slot; returns `(epoch, payload)` if the header
/// and payload both verify, `None` for a never-written, torn, or stale
/// slot (the recovery path treats all three the same way: ignore it).
pub fn decode_slot(buf: &[u8]) -> Option<(u64, Vec<u8>)> {
    let hdr_ck = u64::from_le_bytes(le(buf, 20)?);
    if hdr_ck != fnv1a(&buf[..20]) {
        return None;
    }
    let epoch = u64::from_le_bytes(le(buf, 0)?);
    if epoch == 0 {
        return None;
    }
    let len = u32::from_le_bytes(le(buf, 8)?) as usize;
    let payload = buf.get(SLOT_HDR_BYTES..)?.get(..len)?;
    let pay_ck = u64::from_le_bytes(le(buf, 12)?);
    if pay_ck != fnv1a(payload) {
        return None;
    }
    Some((epoch, payload.to_vec()))
}

/// The `N` bytes of `buf` from byte `at` on, `None` if `buf` ends
/// first: the one reader of the little-endian fields of the file's
/// headers, so a truncated header is an error of the caller's type, never
/// a panic.
pub fn le<const N: usize>(buf: &[u8], at: usize) -> Option<[u8; N]> {
    buf.get(at..)?.first_chunk().copied()
}

/// Shared naming convention for auxiliary files next to a store at
/// `base` (e.g. a shard file). Kept here so every layer derives
/// the same names.
pub fn sibling_path(base: &std::path::Path, suffix: &str) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb() -> Superblock {
        Superblock {
            version: FORMAT_VERSION,
            page_size: 4096,
            kind: KIND_ELEM,
            elem_bytes: 32,
            slot_bytes: DEFAULT_SLOT_BYTES as u32,
        }
    }

    #[test]
    fn superblock_round_trips() {
        let s = sb();
        let enc = s.encode();
        assert_eq!(Superblock::decode(&enc, SUPER_BYTES).unwrap(), s);
    }

    #[test]
    fn superblock_rejects_bad_magic_version_and_checksum() {
        let mut enc = sb().encode();
        let mut wrong = enc;
        wrong[0] = b'X';
        assert!(matches!(
            Superblock::decode(&wrong, SUPER_BYTES),
            Err(OpenError::BadMagic)
        ));
        assert!(matches!(
            Superblock::decode(&enc, 30),
            Err(OpenError::Corrupt(_))
        ));
        let mut vers = enc;
        vers[8] = 99;
        assert!(matches!(
            Superblock::decode(&vers, SUPER_BYTES),
            Err(OpenError::UnsupportedVersion(99))
        ));
        enc[13] ^= 1; // flip a page_size bit without fixing the checksum
        assert!(matches!(
            Superblock::decode(&enc, SUPER_BYTES),
            Err(OpenError::Corrupt(_))
        ));
    }

    #[test]
    fn slots_round_trip_and_reject_corruption() {
        let payload = b"control state".to_vec();
        let enc = encode_slot(7, &payload, 1024).unwrap();
        assert_eq!(decode_slot(&enc), Some((7, payload.clone())));
        // Epoch 0 marks a never-written slot even if checksums pass.
        let zero = encode_slot(0, &payload, 1024).unwrap();
        assert_eq!(decode_slot(&zero), None);
        // Any torn prefix fails one of the checksums.
        for cut in 0..enc.len() {
            assert_eq!(decode_slot(&enc[..cut]), None, "torn at {cut}");
        }
        let mut flipped = enc.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(decode_slot(&flipped), None, "payload bit flip detected");
        // Overflow is a hard error, not silent truncation.
        assert!(encode_slot(1, &vec![0u8; 1024], 64).is_err());
    }

    #[test]
    fn fields_past_the_end_are_none() {
        let buf = [1, 2, 3, 4, 5];
        assert_eq!(le::<4>(&buf, 1), Some([2, 3, 4, 5]));
        assert_eq!(le::<4>(&buf, 2), None);
        assert_eq!(le::<1>(&buf, 5), None);
        assert_eq!(le::<1>(&buf, usize::MAX), None);
        // A superblock cut anywhere past its magic is a typed error.
        let enc = sb().encode();
        for got in 8..SUPER_BYTES {
            let mut cut = [0; SUPER_BYTES];
            cut[..got].copy_from_slice(&enc[..got]);
            assert!(matches!(
                Superblock::decode(&cut, got),
                Err(OpenError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn data_region_is_page_aligned_past_the_header() {
        let s = sb();
        assert_eq!(s.data_off() % s.page_size as u64, 0);
        assert!(s.data_off() >= SUPER_BYTES as u64 + 2 * s.slot_bytes as u64);
    }
}

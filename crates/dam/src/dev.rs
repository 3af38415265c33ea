//! Raw block devices: the byte-addressed substrate under [`crate::FilePages`].
//!
//! The file store used to talk to [`std::fs::File`] directly; the durable
//! on-disk format needs two things a concrete file cannot give us:
//!
//! * **testable crash semantics** — the shadow-commit protocol claims that
//!   a power cut or torn write at *any* point recovers the last committed
//!   state, and a claim like that is only worth having if a harness can
//!   cut the power at every point ([`CrashDev`] journals every write and
//!   sync so a test can reconstruct the disk image at any cut);
//! * **a seam for future media** (an io_uring backend, an object store)
//!   without touching the paging or commit logic.
//!
//! [`RawDev`] is that seam: positioned reads/writes plus a durability
//! barrier. [`std::fs::File`] implements it with `pread`/`pwrite` and
//! `fsync`; [`CrashDev`] implements it over an in-memory byte vector with
//! a write-ahead journal.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, Once};

/// A byte-addressed device with positioned I/O and a durability barrier.
///
/// Reads may be short; reading past the end of the device returns `Ok(0)`
/// (callers treat missing bytes as zero, matching sparse-file semantics).
/// `sync` is the write barrier of the commit protocol: every write issued
/// before a successful `sync` is durable; writes after the last `sync`
/// may be arbitrarily lost or torn by a crash.
pub trait RawDev {
    /// Reads into `buf` starting at byte `off`; returns bytes read
    /// (0 = end of device).
    fn read_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<usize>;

    /// Writes all of `buf` at byte `off`, extending the device if needed.
    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()>;

    /// Durability barrier (`fsync`).
    fn sync(&mut self) -> io::Result<()>;

    /// Current device length in bytes (used by recovery to bound the
    /// region that may hold stale pre-crash writes).
    fn dev_len(&mut self) -> io::Result<u64>;
}

impl RawDev for std::fs::File {
    #[cfg(unix)]
    fn read_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<usize> {
        std::os::unix::fs::FileExt::read_at(&*self, buf, off)
    }

    #[cfg(not(unix))]
    fn read_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<usize> {
        use std::io::{Read, Seek, SeekFrom};
        self.seek(SeekFrom::Start(off))?;
        self.read(buf)
    }

    #[cfg(unix)]
    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(&*self, buf, off)
    }

    #[cfg(not(unix))]
    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        self.seek(SeekFrom::Start(off))?;
        self.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn dev_len(&mut self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

/// One journaled device operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevOp {
    /// A positioned write of `data` at byte offset `off`.
    Write {
        /// Byte offset of the write.
        off: u64,
        /// The written bytes.
        data: Vec<u8>,
    },
    /// A durability barrier: everything journaled before it is on stable
    /// storage.
    Sync,
}

#[derive(Debug, Default)]
struct CrashInner {
    bytes: Vec<u8>,
    journal: Vec<DevOp>,
}

fn apply_write(bytes: &mut Vec<u8>, off: u64, data: &[u8]) {
    let off = off as usize;
    if bytes.len() < off + data.len() {
        bytes.resize(off + data.len(), 0);
    }
    bytes[off..off + data.len()].copy_from_slice(data);
}

/// An in-memory crash-injection device.
///
/// Every write and sync is journaled; [`CrashDev::image_at`] reconstructs
/// the disk image a crash at any journal position would leave behind —
/// including torn final writes and post-barrier write loss — so a test can
/// exhaustively power-cut a commit protocol:
///
/// ```
/// use cosbt_dam::dev::{CrashDev, RawDev};
///
/// let mut dev = CrashDev::new();
/// dev.write_all_at(b"hello", 0).unwrap();
/// dev.sync().unwrap();
/// dev.write_all_at(b"HELLO", 0).unwrap();
/// // Cut before the second write: the synced state survives.
/// assert_eq!(&dev.image_at(2, None)[..5], b"hello");
/// // Torn second write (2 of 5 bytes reached the platter):
/// assert_eq!(&dev.image_at(2, Some(2))[..5], b"HEllo");
/// ```
///
/// Handles are cheap clones sharing one device, so a store can own one
/// while the harness keeps another for journal inspection.
#[derive(Debug, Clone, Default)]
pub struct CrashDev {
    inner: Arc<Mutex<CrashInner>>,
}

impl CrashDev {
    /// An empty device.
    pub fn new() -> CrashDev {
        CrashDev::default()
    }

    /// A device pre-loaded with `bytes` (e.g. a crash image produced by
    /// [`CrashDev::image_at`], to reopen a store on it).
    pub fn from_image(bytes: Vec<u8>) -> CrashDev {
        CrashDev {
            inner: Arc::new(Mutex::new(CrashInner {
                bytes,
                journal: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CrashInner> {
        self.inner.lock().expect("crash device mutex poisoned")
    }

    /// Number of journaled operations so far.
    pub fn journal_len(&self) -> usize {
        self.lock().journal.len()
    }

    /// A copy of the journal.
    pub fn journal(&self) -> Vec<DevOp> {
        self.lock().journal.clone()
    }

    /// The current (no-crash) device contents.
    pub fn snapshot(&self) -> Vec<u8> {
        self.lock().bytes.clone()
    }

    /// The disk image after a crash at journal position `cut`: operations
    /// `0..cut` applied in order, plus — if `torn` is `Some(b)` and
    /// operation `cut` is a write — the first `b` bytes of that write.
    pub fn image_at(&self, cut: usize, torn: Option<usize>) -> Vec<u8> {
        let inner = self.lock();
        let mut bytes = Vec::new();
        for op in inner.journal.iter().take(cut) {
            if let DevOp::Write { off, data } = op {
                apply_write(&mut bytes, *off, data);
            }
        }
        if let (Some(b), Some(DevOp::Write { off, data })) = (torn, inner.journal.get(cut)) {
            let b = b.min(data.len());
            apply_write(&mut bytes, *off, &data[..b]);
        }
        bytes
    }

    /// The disk image after a crash at journal position `cut` under write
    /// reordering: everything up to the last `Sync` before `cut` is
    /// durable; each later write survives only if `keep(journal index)`
    /// returns true. This models a device that may persist un-synced
    /// writes in any subset.
    pub fn image_with_loss(&self, cut: usize, keep: &mut dyn FnMut(usize) -> bool) -> Vec<u8> {
        let inner = self.lock();
        let last_sync = inner.journal[..cut]
            .iter()
            .rposition(|op| matches!(op, DevOp::Sync))
            .map_or(0, |i| i + 1);
        let mut bytes = Vec::new();
        for (i, op) in inner.journal.iter().take(cut).enumerate() {
            if let DevOp::Write { off, data } = op {
                if i < last_sync || keep(i) {
                    apply_write(&mut bytes, *off, data);
                }
            }
        }
        bytes
    }
}

impl RawDev for CrashDev {
    fn read_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<usize> {
        let inner = self.lock();
        let off = off as usize;
        if off >= inner.bytes.len() {
            return Ok(0);
        }
        let n = buf.len().min(inner.bytes.len() - off);
        buf[..n].copy_from_slice(&inner.bytes[off..off + n]);
        Ok(n)
    }

    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        let mut inner = self.lock();
        apply_write(&mut inner.bytes, off, buf);
        inner.journal.push(DevOp::Write {
            off,
            data: buf.to_vec(),
        });
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.lock().journal.push(DevOp::Sync);
        Ok(())
    }

    fn dev_len(&mut self) -> io::Result<u64> {
        Ok(self.lock().bytes.len() as u64)
    }
}

/// Alignment required of direct-I/O offsets, lengths, and buffer
/// addresses. 4 KiB satisfies every mainstream Linux filesystem and
/// logical-block size (512 B and 4 Ki devices alike), and equals the
/// store's default page size, so all steady-state page traffic
/// qualifies for the direct path.
pub const DIRECT_ALIGN: usize = 4096;

/// `O_DIRECT` open flag. The asm-generic value shared by x86, x86-64,
/// aarch64, and riscv64; other architectures (32-bit ARM uses
/// `0x10000`) fall back to buffered I/O rather than risk passing the
/// wrong flag.
#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86",
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
const O_DIRECT: i32 = 0o40000;

/// A heap buffer whose payload starts on a [`DIRECT_ALIGN`] boundary.
///
/// Direct I/O requires the *memory address* to be aligned, not just the
/// file offset; `Vec<u8>` only guarantees alignment 1. Over-allocating
/// by one alignment unit and offsetting to the first aligned byte gets
/// an aligned window without any unsafe allocation tricks.
#[derive(Debug)]
struct AlignedBuf {
    raw: Vec<u8>,
    start: usize,
    len: usize,
}

impl AlignedBuf {
    fn with_capacity(len: usize) -> AlignedBuf {
        let raw = vec![0u8; len + DIRECT_ALIGN];
        let addr = raw.as_ptr() as usize;
        let start = (DIRECT_ALIGN - addr % DIRECT_ALIGN) % DIRECT_ALIGN;
        AlignedBuf { raw, start, len }
    }

    /// Usable payload bytes (always `DIRECT_ALIGN`-aligned capacity).
    fn capacity(&self) -> usize {
        self.raw.len() - DIRECT_ALIGN
    }

    fn slice(&self) -> &[u8] {
        &self.raw[self.start..self.start + self.len]
    }

    fn slice_mut(&mut self) -> &mut [u8] {
        &mut self.raw[self.start..self.start + self.len]
    }
}

/// Reusable [`AlignedBuf`]s, bounded so a burst of large transfers
/// cannot pin memory forever.
#[derive(Debug, Default)]
struct AlignedPool {
    bufs: Vec<AlignedBuf>,
}

const POOL_MAX: usize = 4;

impl AlignedPool {
    /// A buffer with at least `len` aligned payload bytes, reusing a
    /// pooled allocation when one is big enough.
    fn acquire(&mut self, len: usize) -> AlignedBuf {
        if let Some(i) = self.bufs.iter().position(|b| b.capacity() >= len) {
            let mut b = self.bufs.swap_remove(i);
            b.len = len;
            b.slice_mut().fill(0);
            return b;
        }
        AlignedBuf::with_capacity(len)
    }

    fn release(&mut self, buf: AlignedBuf) {
        if self.bufs.len() < POOL_MAX {
            self.bufs.push(buf);
        }
    }
}

fn direct_fallback_warning(path: &Path, why: &io::Error) {
    static WARN_ONCE: Once = Once::new();
    WARN_ONCE.call_once(|| {
        eprintln!(
            "cosbt-dam: direct I/O unavailable for {} ({why}); falling back to \
             buffered I/O (counters and correctness are unaffected)",
            path.display()
        );
    });
}

/// A file-backed [`RawDev`] that routes aligned block traffic through an
/// `O_DIRECT` handle, bypassing the kernel page cache.
///
/// The store already runs its own user-space page cache (the DAM
/// model's "memory"), so kernel caching on top double-buffers every
/// block and silently absorbs the very disk traffic the benchmarks
/// exist to measure. Opening the data file with `O_DIRECT` makes each
/// counted transfer a real device transfer.
///
/// Direct I/O has hard alignment rules — file offset, transfer length,
/// *and* user memory address must all be block-aligned — so the device
/// keeps two handles on the same file:
///
/// * aligned reads/writes (steady-state page traffic) go through the
///   `O_DIRECT` handle via a pool of [`DIRECT_ALIGN`]-aligned bounce
///   buffers;
/// * unaligned accesses (the 64-byte superblock, metadata slot
///   headers) use an ordinary buffered handle. The kernel keeps the
///   two views coherent (it flushes dirty page-cache ranges before a
///   direct read and invalidates them after a direct write).
///
/// On filesystems or platforms that refuse `O_DIRECT` (tmpfs rejects it
/// at `open(2)`; non-Linux builds never attempt it) the device
/// transparently falls back to buffered I/O and prints a one-time
/// warning: results remain correct, but transfer counts then measure
/// page-cache traffic rather than device traffic.
#[derive(Debug)]
pub struct DirectFile {
    /// `O_DIRECT` handle; `None` when direct I/O is off or was refused.
    direct: Option<std::fs::File>,
    /// Buffered handle on the same inode for unaligned accesses,
    /// metadata, length queries, and the durability barrier.
    buffered: std::fs::File,
    /// Path, for the fallback diagnostic.
    path: std::path::PathBuf,
    pool: AlignedPool,
}

impl DirectFile {
    /// Creates (truncating) the file at `path`. With `direct`, attempts
    /// to additionally open an `O_DIRECT` handle, falling back to
    /// buffered-only with a one-time warning if the filesystem or
    /// platform refuses.
    pub fn create(path: &Path, direct: bool) -> io::Result<DirectFile> {
        let buffered = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self::from_buffered(buffered, path, direct))
    }

    /// Opens the existing file at `path`; see [`DirectFile::create`]
    /// for the meaning of `direct`.
    pub fn open(path: &Path, direct: bool) -> io::Result<DirectFile> {
        let buffered = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        Ok(Self::from_buffered(buffered, path, direct))
    }

    fn from_buffered(buffered: std::fs::File, path: &Path, direct: bool) -> DirectFile {
        let direct = if direct {
            match Self::open_direct(path) {
                Ok(f) => Some(f),
                Err(e) => {
                    direct_fallback_warning(path, &e);
                    None
                }
            }
        } else {
            None
        };
        DirectFile {
            direct,
            buffered,
            path: path.to_path_buf(),
            pool: AlignedPool::default(),
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(
            target_arch = "x86",
            target_arch = "x86_64",
            target_arch = "aarch64",
            target_arch = "riscv64"
        )
    ))]
    fn open_direct(path: &Path) -> io::Result<std::fs::File> {
        use std::os::unix::fs::OpenOptionsExt;
        std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .custom_flags(O_DIRECT)
            .open(path)
    }

    #[cfg(not(all(
        target_os = "linux",
        any(
            target_arch = "x86",
            target_arch = "x86_64",
            target_arch = "aarch64",
            target_arch = "riscv64"
        )
    )))]
    fn open_direct(_path: &Path) -> io::Result<std::fs::File> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "O_DIRECT is only attempted on Linux (asm-generic architectures)",
        ))
    }

    /// Whether the direct-I/O path is active (false after a fallback).
    pub fn is_direct(&self) -> bool {
        self.direct.is_some()
    }

    fn aligned(off: u64, len: usize) -> bool {
        len > 0 && off.is_multiple_of(DIRECT_ALIGN as u64) && len.is_multiple_of(DIRECT_ALIGN)
    }

    /// Disables the direct path after the kernel refused an I/O that
    /// the open probe accepted (some filesystems only reject at
    /// read/write time).
    fn demote(&mut self, why: &io::Error) {
        direct_fallback_warning(&self.path, why);
        self.direct = None;
    }
}

impl RawDev for DirectFile {
    fn read_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<usize> {
        if self.direct.is_some() && Self::aligned(off, buf.len()) {
            let mut bounce = self.pool.acquire(buf.len());
            let res = {
                let file = self.direct.as_mut().expect("checked above");
                file.read_at(bounce.slice_mut(), off)
            };
            match res {
                Ok(n) => {
                    buf[..n].copy_from_slice(&bounce.slice()[..n]);
                    self.pool.release(bounce);
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                    self.pool.release(bounce);
                    self.demote(&e);
                }
                Err(e) => {
                    self.pool.release(bounce);
                    return Err(e);
                }
            }
        }
        self.buffered.read_at(buf, off)
    }

    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        if self.direct.is_some() && Self::aligned(off, buf.len()) {
            let mut bounce = self.pool.acquire(buf.len());
            bounce.slice_mut().copy_from_slice(buf);
            let res = {
                let file = self.direct.as_mut().expect("checked above");
                file.write_all_at(bounce.slice(), off)
            };
            match res {
                Ok(()) => {
                    self.pool.release(bounce);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                    self.pool.release(bounce);
                    self.demote(&e);
                }
                Err(e) => {
                    self.pool.release(bounce);
                    return Err(e);
                }
            }
        }
        self.buffered.write_all_at(buf, off)
    }

    fn sync(&mut self) -> io::Result<()> {
        // Both handles share one inode: a single data sync on the
        // buffered handle is the durability barrier for writes issued
        // through either (O_DIRECT writes still need the device-level
        // flush that fdatasync issues).
        self.buffered.sync_data()
    }

    fn dev_len(&mut self) -> io::Result<u64> {
        Ok(self.buffered.metadata()?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_dev_reads_what_it_wrote() {
        let mut d = CrashDev::new();
        d.write_all_at(&[1, 2, 3], 10).unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(d.read_at(&mut buf, 9).unwrap(), 4);
        assert_eq!(&buf[..4], &[0, 1, 2, 3]);
        assert_eq!(d.read_at(&mut buf, 100).unwrap(), 0, "EOF reads zero");
    }

    #[test]
    fn images_replay_journal_prefixes() {
        let mut d = CrashDev::new();
        d.write_all_at(&[0xAA; 4], 0).unwrap();
        d.sync().unwrap();
        d.write_all_at(&[0xBB; 4], 0).unwrap();
        assert_eq!(d.journal_len(), 3);
        assert_eq!(d.image_at(0, None), Vec::<u8>::new());
        assert_eq!(d.image_at(1, None), vec![0xAA; 4]);
        assert_eq!(d.image_at(3, None), vec![0xBB; 4]);
        // Torn final write.
        assert_eq!(d.image_at(2, Some(2)), vec![0xBB, 0xBB, 0xAA, 0xAA]);
        // Post-barrier loss: the un-synced write may vanish entirely.
        assert_eq!(d.image_with_loss(3, &mut |_| false), vec![0xAA; 4]);
        assert_eq!(d.image_with_loss(3, &mut |_| true), vec![0xBB; 4]);
    }

    #[test]
    fn from_image_round_trips() {
        let mut d = CrashDev::new();
        d.write_all_at(b"state", 3).unwrap();
        let mut re = CrashDev::from_image(d.snapshot());
        let mut buf = [0u8; 5];
        re.read_at(&mut buf, 3).unwrap();
        assert_eq!(&buf, b"state");
    }

    #[test]
    fn aligned_buffers_are_aligned() {
        for len in [512, DIRECT_ALIGN, 3 * DIRECT_ALIGN] {
            let mut b = AlignedBuf::with_capacity(len);
            assert_eq!(b.slice().as_ptr() as usize % DIRECT_ALIGN, 0);
            assert_eq!(b.slice().len(), len);
            b.slice_mut().fill(0xAB);
            assert!(b.slice().iter().all(|&x| x == 0xAB));
        }
    }

    #[test]
    fn aligned_pool_reuses_and_zeroes() {
        let mut pool = AlignedPool::default();
        let mut b = pool.acquire(DIRECT_ALIGN);
        b.slice_mut().fill(0xFF);
        let addr = b.slice().as_ptr() as usize;
        pool.release(b);
        let again = pool.acquire(DIRECT_ALIGN);
        assert_eq!(again.slice().as_ptr() as usize, addr, "buffer reused");
        assert!(
            again.slice().iter().all(|&x| x == 0),
            "reused buffer zeroed"
        );
        // A larger request allocates fresh rather than overflowing.
        pool.release(again);
        let big = pool.acquire(4 * DIRECT_ALIGN);
        assert_eq!(big.slice().len(), 4 * DIRECT_ALIGN);
    }

    #[test]
    fn direct_file_round_trips_aligned_and_unaligned() {
        let path = cosbt_testkit::TempPath::new("direct-roundtrip");
        let mut dev = DirectFile::create(&path, true).unwrap();

        // Unaligned prologue (superblock-shaped) through the buffered path.
        dev.write_all_at(b"COSBTDAM", 0).unwrap();
        // Aligned block through the direct path (when the fs allows it).
        let block: Vec<u8> = (0..DIRECT_ALIGN).map(|i| (i % 251) as u8).collect();
        dev.write_all_at(&block, DIRECT_ALIGN as u64).unwrap();
        dev.sync().unwrap();

        let mut hdr = [0u8; 8];
        assert_eq!(dev.read_at(&mut hdr, 0).unwrap(), 8);
        assert_eq!(&hdr, b"COSBTDAM");
        let mut back = vec![0u8; DIRECT_ALIGN];
        assert_eq!(
            dev.read_at(&mut back, DIRECT_ALIGN as u64).unwrap(),
            DIRECT_ALIGN
        );
        assert_eq!(back, block);
        assert_eq!(dev.dev_len().unwrap(), 2 * DIRECT_ALIGN as u64);

        // Reads past EOF report zero bytes, like the other devices.
        let mut past = vec![0u8; DIRECT_ALIGN];
        assert_eq!(dev.read_at(&mut past, 64 * DIRECT_ALIGN as u64).unwrap(), 0);

        // Reopen (direct and buffered) and verify both views agree.
        for direct in [true, false] {
            let mut re = DirectFile::open(&path, direct).unwrap();
            let mut hdr = [0u8; 8];
            re.read_at(&mut hdr, 0).unwrap();
            assert_eq!(&hdr, b"COSBTDAM");
            let mut back = vec![0u8; DIRECT_ALIGN];
            re.read_at(&mut back, DIRECT_ALIGN as u64).unwrap();
            assert_eq!(back, block, "direct={direct}");
        }
    }

    #[test]
    fn direct_file_buffered_mode_never_opens_direct() {
        let path = cosbt_testkit::TempPath::new("direct-buffered");
        let dev = DirectFile::create(&path, false).unwrap();
        assert!(!dev.is_direct());
    }

    #[test]
    fn direct_file_mixed_paths_stay_coherent() {
        let path = cosbt_testkit::TempPath::new("direct-coherent");
        let mut dev = DirectFile::create(&path, true).unwrap();
        // Direct-path write, then an unaligned (buffered) read of the
        // same range; then a buffered overwrite re-read via the direct
        // path. The kernel keeps the two handles coherent.
        dev.write_all_at(&vec![0x11; DIRECT_ALIGN], 0).unwrap();
        let mut three = [0u8; 3];
        assert_eq!(dev.read_at(&mut three, 1).unwrap(), 3);
        assert_eq!(three, [0x11; 3]);
        dev.write_all_at(&[0x22; 7], 5).unwrap();
        let mut block = vec![0u8; DIRECT_ALIGN];
        dev.read_at(&mut block, 0).unwrap();
        assert_eq!(&block[..5], &[0x11; 5]);
        assert_eq!(&block[5..12], &[0x22; 7]);
        assert_eq!(&block[12..], &vec![0x11; DIRECT_ALIGN - 12][..]);
    }
}

//! One fresh scratch directory per process, removed when the run ends —
//! on success, on a failed check and on a panic alike.
//!
//! The directory sits next to the benchmark's own executable (inside the
//! cargo target directory, so inside the checkout the benchmark was
//! built in): the benchmark reads and writes nowhere else, apart from an
//! explicit `--out`.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// `<dir of this executable>/scratch/cosbt-benchmark-<pid>-<nanos>/`.
    pub fn create() -> io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new(".")).join("scratch");
        // The counter keeps two directories of one process apart even
        // on a clock too coarse to.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
            + NEXT.fetch_add(1, Ordering::Relaxed) as u128;
        let dir = base.join(format!("cosbt-benchmark-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Refuses to start with less than `need` bytes free under the
    /// scratch directory. Free space is read from `df -Pk` (the standard
    /// library has no call for it); where `df` cannot be run the check
    /// is skipped with a note, since refusing would fail every run.
    pub fn require_free(&self, need: u64) -> io::Result<()> {
        match free_bytes(&self.dir) {
            Some(free) if free < need => Err(io::Error::other(format!(
                "{} has {} MiB free; the benchmark wants {} MiB (4x its largest store)",
                self.dir.display(),
                free >> 20,
                need >> 20
            ))),
            Some(_) => Ok(()),
            None => {
                eprintln!("note: could not read free space with `df`; continuing unchecked");
                Ok(())
            }
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is reported, never a panic.
        if let Err(e) = std::fs::remove_dir_all(&self.dir) {
            eprintln!("note: could not remove {}: {e}", self.dir.display());
        }
    }
}

fn free_bytes(dir: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    if !out.status.success() {
        return None;
    }
    parse_df(&String::from_utf8_lossy(&out.stdout))
}

/// Fourth column of the second line of `df -Pk`: available KiB.
fn parse_df(text: &str) -> Option<u64> {
    let kib: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_fresh_and_removed_on_drop() {
        let a = Scratch::create().unwrap();
        let b = Scratch::create().unwrap();
        assert_ne!(a.dir, b.dir);
        std::fs::write(a.path("x"), b"1").unwrap();
        let dir = a.dir.clone();
        assert!(dir.is_dir());
        drop(a);
        assert!(!dir.exists());
        assert!(b.require_free(1).is_ok());
        assert!(b.require_free(u64::MAX).is_err() || free_bytes(&b.dir).is_none());
    }

    #[test]
    fn reads_the_available_column() {
        let text = "Filesystem 1024-blocks Used Available Capacity Mounted on\n\
                    /dev/vda 263174212 13107200 19922944 40% /\n";
        assert_eq!(parse_df(text), Some(19_922_944 * 1024));
        assert_eq!(parse_df("garbage"), None);
    }
}

//! Measurement loops and reporting.
//!
//! The paper measures "the time once every 2^20 inserts" and plots
//! average inserts/second against N on a log-log scale; searches are
//! timed after search number 2^x. These helpers reproduce those series at
//! configurable checkpoints and emit both a human-readable table and CSV.

use std::io::Write as _;
use std::time::{Duration, Instant};

use cosbt_core::Dictionary;
use cosbt_dam::IoStats;

/// Disk model matching the paper's testbed: 120 MiB/s streaming (their
/// measured raw bandwidth) and ~8 ms per random access.
pub const DISK_BW: f64 = 120.0 * 1024.0 * 1024.0;
/// Seek cost of the modeled 2007 disk, in milliseconds.
pub const DISK_SEEK_MS: f64 = 8.0;
/// Page size used by the out-of-core stores.
pub const DISK_BLOCK: usize = 4096;

/// One plotted point.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint {
    /// Operations completed so far (the paper's N).
    pub n: u64,
    /// Seconds since the measurement started.
    pub elapsed_s: f64,
    /// Cumulative average operations/second (what the paper plots).
    pub avg_ops_per_sec: f64,
    /// Operations/second within the last window.
    pub window_ops_per_sec: f64,
    /// Cumulative real block transfers (0 when not instrumented).
    pub transfers: u64,
    /// Cumulative non-sequential device accesses.
    pub seeks: u64,
    /// Ops/second under the rotating-disk model (CPU time + modeled disk
    /// time); the figure the paper's hardware would have shown.
    pub disk_model_ops_per_sec: f64,
}

/// One structure's series for a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label ("4-COLA", "B-tree", …).
    pub name: String,
    /// Checkpointed measurements.
    pub points: Vec<Checkpoint>,
    /// Whether the run stopped early on the time cap (the paper stopped
    /// its B-tree run after 87 hours at ~2^28 of 2^38 inserts).
    pub capped: bool,
}

impl Series {
    /// The final cumulative rate, for the ratio table.
    pub fn final_rate(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.avg_ops_per_sec)
    }

    /// The final disk-model rate (paper-comparable).
    pub fn final_disk_rate(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.disk_model_ops_per_sec)
    }

    /// Prints a table in the paper's axes (N, avg ops/sec).
    pub fn print(&self) {
        println!(
            "# {}{}",
            self.name,
            if self.capped { "  (time-capped)" } else { "" }
        );
        println!(
            "{:>12} {:>12} {:>14} {:>14} {:>12} {:>10} {:>14}",
            "N", "elapsed_s", "avg_ops/s", "window_ops/s", "transfers", "seeks", "disk-model/s"
        );
        for p in &self.points {
            println!(
                "{:>12} {:>12.3} {:>14.0} {:>14.0} {:>12} {:>10} {:>14.0}",
                p.n,
                p.elapsed_s,
                p.avg_ops_per_sec,
                p.window_ops_per_sec,
                p.transfers,
                p.seeks,
                p.disk_model_ops_per_sec
            );
        }
    }

    /// Appends this series to a CSV file (creating it with a header).
    ///
    /// The update is atomic — the existing content plus the new rows are
    /// written to a temporary sibling which then replaces the file — so a
    /// crash mid-write can never truncate previously collected results,
    /// and every I/O error propagates instead of being swallowed.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut content = match std::fs::read_to_string(path) {
            Ok(existing) => existing,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                "series,n,elapsed_s,avg_ops_per_sec,window_ops_per_sec,transfers,seeks,\
                 disk_model_ops_per_sec\n"
                    .to_string()
            }
            Err(e) => return Err(e),
        };
        for p in &self.points {
            use std::fmt::Write as _;
            let _ = writeln!(
                content,
                "{},{},{:.6},{:.1},{:.1},{},{},{:.1}",
                self.name,
                p.n,
                p.elapsed_s,
                p.avg_ops_per_sec,
                p.window_ops_per_sec,
                p.transfers,
                p.seeks,
                p.disk_model_ops_per_sec
            );
        }
        write_atomic(path, &content)
    }
}

/// Writes `content` to `path` atomically: a temporary sibling in the
/// same directory (so the rename cannot cross filesystems) is written,
/// then renamed over the target. Used for every results artifact — CSV
/// and `BENCH_*.json` — so partial writes never corrupt the trajectory.
pub fn write_atomic(path: &std::path::Path, content: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(content.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best-effort: drop the half-written temp file on failure.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Power-of-two checkpoints from `lo` to `hi` inclusive.
pub fn pow2_checkpoints(lo: u64, hi: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut n = lo;
    while n <= hi {
        out.push(n);
        n *= 2;
    }
    out
}

/// Feeds `keys` into `dict`, checkpointing at the given counts, stopping
/// early when `time_cap` elapses (reporting `capped`). `transfers` reads
/// the cumulative real-I/O counter (return 0 if not instrumented).
pub fn insert_throughput(
    name: &str,
    dict: &mut dyn Dictionary,
    keys: &[u64],
    checkpoints: &[u64],
    time_cap: Duration,
    io: &dyn Fn() -> IoStats,
) -> Series {
    let start = Instant::now();
    let mut points = Vec::new();
    let mut next_cp = 0usize;
    let mut last_t = 0.0f64;
    let mut last_n = 0u64;
    let mut capped = false;
    for (i, &k) in keys.iter().enumerate() {
        dict.insert(k, i as u64);
        let n = i as u64 + 1;
        if next_cp < checkpoints.len() && n == checkpoints[next_cp] {
            let t = start.elapsed().as_secs_f64();
            let st = io();
            let disk = st.modeled_disk_seconds(DISK_BLOCK, DISK_SEEK_MS, DISK_BW);
            points.push(Checkpoint {
                n,
                elapsed_s: t,
                avg_ops_per_sec: n as f64 / t.max(1e-9),
                window_ops_per_sec: (n - last_n) as f64 / (t - last_t).max(1e-9),
                transfers: st.transfers(),
                seeks: st.seeks,
                disk_model_ops_per_sec: n as f64 / (t + disk).max(1e-9),
            });
            last_t = t;
            last_n = n;
            next_cp += 1;
            if start.elapsed() > time_cap {
                capped = true;
                break;
            }
        }
    }
    Series {
        name: name.to_string(),
        points,
        capped,
    }
}

/// Runs point lookups, checkpointing after probe number 2^x as in
/// Figure 4 (the first searches are slow because the cache is cold).
pub fn search_throughput(
    name: &str,
    dict: &mut dyn Dictionary,
    probes: &[u64],
    io: &dyn Fn() -> IoStats,
) -> Series {
    let start = Instant::now();
    let mut points = Vec::new();
    let mut hits = 0u64;
    let mut last_t = 0.0f64;
    let mut last_n = 0u64;
    let mut next_cp = 1u64;
    for (i, &k) in probes.iter().enumerate() {
        if dict.get(k).is_some() {
            hits += 1;
        }
        let n = i as u64 + 1;
        if n == next_cp {
            let t = start.elapsed().as_secs_f64();
            let st = io();
            let disk = st.modeled_disk_seconds(DISK_BLOCK, DISK_SEEK_MS, DISK_BW);
            points.push(Checkpoint {
                n,
                elapsed_s: t,
                avg_ops_per_sec: n as f64 / t.max(1e-9),
                window_ops_per_sec: (n - last_n) as f64 / (t - last_t).max(1e-9),
                transfers: st.transfers(),
                seeks: st.seeks,
                disk_model_ops_per_sec: n as f64 / (t + disk).max(1e-9),
            });
            last_t = t;
            last_n = n;
            next_cp *= 2;
        }
    }
    let _ = hits;
    Series {
        name: name.to_string(),
        points,
        capped: false,
    }
}

/// Prints the headline ratio line used by the in-text table (E5).
pub fn print_ratio(label: &str, a_name: &str, a: f64, b_name: &str, b: f64) {
    if a <= 0.0 || b <= 0.0 {
        println!("{label}: insufficient data");
        return;
    }
    if a >= b {
        println!("{label}: {a_name} is {:.1}x faster than {b_name}", a / b);
    } else {
        println!("{label}: {a_name} is {:.1}x slower than {b_name}", b / a);
    }
}

/// Directory for CSV outputs: `<workspace>/results`.
pub fn results_dir() -> std::path::PathBuf {
    let mut d = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    d.pop();
    d.pop();
    d.push("results");
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop(std::collections::BTreeMap<u64, u64>);
    impl Dictionary for Nop {
        fn insert(&mut self, key: u64, val: u64) {
            self.0.insert(key, val);
        }
        fn delete(&mut self, key: u64) {
            self.0.remove(&key);
        }
        fn get(&mut self, key: u64) -> Option<u64> {
            self.0.get(&key).copied()
        }
        fn cursor(&mut self, lo: u64, hi: u64) -> cosbt_core::Cursor<'_> {
            cosbt_core::Cursor::new(cosbt_core::VecCursor::new(
                self.0.range(lo..=hi).map(|(&k, &v)| (k, v)).collect(),
            ))
        }
        fn physical_len(&self) -> usize {
            self.0.len()
        }
        fn name(&self) -> &'static str {
            "nop"
        }
    }

    #[test]
    fn checkpoints_and_series() {
        assert_eq!(pow2_checkpoints(4, 32), vec![4, 8, 16, 32]);
        let mut d = Nop(Default::default());
        let keys: Vec<u64> = (0..64).collect();
        let s = insert_throughput(
            "nop",
            &mut d,
            &keys,
            &pow2_checkpoints(4, 64),
            Duration::from_secs(60),
            &|| IoStats {
                fetches: 7,
                seeks: 2,
                ..Default::default()
            },
        );
        assert_eq!(s.points.len(), 5);
        assert_eq!(s.points.last().unwrap().n, 64);
        assert!(!s.capped);
        assert!(s.final_rate() > 0.0);
        assert_eq!(s.points[0].transfers, 7);
        assert_eq!(s.points[0].seeks, 2);
        assert!(s.final_disk_rate() > 0.0);
        assert!(
            s.final_disk_rate() < s.final_rate(),
            "disk model must slow things down"
        );
    }

    #[test]
    fn write_csv_appends_atomically_and_propagates_errors() {
        let dir = cosbt_testkit::TempPath::new("csv");
        let path = dir.join("series.csv");
        let s = Series {
            name: "a".into(),
            points: vec![Checkpoint {
                n: 8,
                elapsed_s: 0.5,
                avg_ops_per_sec: 16.0,
                window_ops_per_sec: 16.0,
                transfers: 3,
                seeks: 1,
                disk_model_ops_per_sec: 10.0,
            }],
            capped: false,
        };
        s.write_csv(&path).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.starts_with("series,n,"), "header written once");
        assert_eq!(first.lines().count(), 2);
        // A second series appends; prior rows survive.
        let mut t = s.clone();
        t.name = "b".into();
        t.write_csv(&path).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(second.lines().count(), 3);
        assert!(second.contains("a,8,") && second.contains("b,8,"));
        assert_eq!(second.matches("series,n,").count(), 1);
        // No temp droppings left behind.
        assert_eq!(std::fs::read_dir(&*dir).unwrap().count(), 1);
        // Errors propagate: the target's parent is an existing *file*.
        let bad = path.join("sub").join("x.csv");
        assert!(s.write_csv(&bad).is_err());
    }

    #[test]
    fn search_series_checkpoints_at_powers_of_two() {
        let mut d = Nop(Default::default());
        for k in 0..100u64 {
            d.insert(k, k);
        }
        let probes: Vec<u64> = (0..33u64).map(|i| i % 100).collect();
        let s = search_throughput("nop", &mut d, &probes, &IoStats::default);
        let ns: Vec<u64> = s.points.iter().map(|p| p.n).collect();
        assert_eq!(ns, vec![1, 2, 4, 8, 16, 32]);
    }
}

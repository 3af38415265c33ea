//! The scenario runner: executes a named workload against any cell of
//! the `DbBuilder` configuration matrix and produces a machine-readable
//! report — throughput, per-op-class latency percentiles, and DAM
//! block-transfer counts split by phase.
//!
//! A **scenario** is a key distribution × operation mix (see
//! [`crate::workloads`]) plus a prefill policy; a **cell** is one
//! structure × backend × shards configuration. The same `(scenario,
//! cell, n, seed)` tuple always executes the same operation sequence,
//! so results are comparable across structures, across commits (the
//! `BENCH_*.json` trajectory), and against a `BTreeMap` model replay
//! (the property suite in `tests/scenario_model.rs`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cosbt::testkit::Rng;
use cosbt::{CursorOps, Db, DbSnapshot};
use cosbt_dam::IoStats;

use crate::histogram::Histogram;
use crate::json::Json;
use crate::workloads::{prefill_run, KeyDist, KeyGen, Op, OpMix, OpStream};

/// Bump when the `BENCH_*.json` layout changes shape; `bench compare`
/// refuses to diff across schema versions.
pub const SCHEMA_VERSION: u64 = 1;

/// How a scenario drives the dictionary after prefill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioKind {
    /// A stationary stream of mixed operations.
    Mixed(OpMix),
    /// Insert every op as a write, then drain the whole keyspace through
    /// one streaming cursor (chunked so the drain contributes scan-class
    /// latency samples) — the log-index build-then-read pattern.
    InsertThenDrain,
}

/// A named workload: kind plus its default key distribution (the CLI can
/// override the distribution per run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// CLI name ("balanced", "read_heavy", …).
    pub name: &'static str,
    /// What the op stream looks like.
    pub kind: ScenarioKind,
    /// Default key distribution (per-run overridable).
    pub dist: KeyDist,
    /// Prefill size as a fraction of `n` (so reads have something to
    /// hit); applied before the measured phase.
    pub prefill_frac: f64,
    /// One-line description for `bench list`.
    pub about: &'static str,
}

/// The scenario catalog. Key spaces default to 1/4 of the op count so a
/// mixed run keeps revisiting keys (hit rate matters); the runner scales
/// them with `n`.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "read_heavy",
        kind: ScenarioKind::Mixed(OpMix::READ_HEAVY),
        dist: KeyDist::Zipfian {
            space: 0,
            theta: 0.99,
        },
        prefill_frac: 1.0,
        about: "95% zipfian gets / 5% inserts over a prefilled store",
    },
    Scenario {
        name: "balanced",
        kind: ScenarioKind::Mixed(OpMix::BALANCED),
        dist: KeyDist::Zipfian {
            space: 0,
            theta: 0.99,
        },
        prefill_frac: 0.5,
        about: "50% gets / 45% inserts / 5% deletes, zipfian keys",
    },
    Scenario {
        name: "write_heavy",
        kind: ScenarioKind::Mixed(OpMix::WRITE_HEAVY),
        dist: KeyDist::Uniform { space: 0 },
        prefill_frac: 0.25,
        about: "5% gets / 90% inserts / 5% deletes, uniform keys",
    },
    Scenario {
        name: "scan_heavy",
        kind: ScenarioKind::Mixed(OpMix::SCAN_HEAVY),
        dist: KeyDist::Uniform { space: 0 },
        prefill_frac: 1.0,
        about: "80% range scans (100 entries) over a trickle of writes",
    },
    Scenario {
        name: "miss_heavy",
        kind: ScenarioKind::Mixed(OpMix::MISS_HEAVY),
        dist: KeyDist::Zipfian {
            space: 0,
            theta: 0.99,
        },
        prefill_frac: 1.0,
        about: "90% zipfian negative lookups over a prefilled store — the filter showcase",
    },
    Scenario {
        name: "insert_then_drain",
        kind: ScenarioKind::InsertThenDrain,
        dist: KeyDist::TimeSeriesAppend { jitter: 64 },
        prefill_frac: 0.0,
        about: "append-ingest everything, then stream the whole keyspace",
    },
    Scenario {
        name: "shifting_hotspot",
        kind: ScenarioKind::Mixed(OpMix::READ_HEAVY),
        dist: KeyDist::ShiftingHotspot {
            space: 0,
            theta: 0.99,
            period: 0,
        },
        prefill_frac: 1.0,
        about: "95% zipfian gets whose hot set migrates every n/8 ops — cache re-warm under drift",
    },
    Scenario {
        name: "timeseries_retention",
        kind: ScenarioKind::Mixed(OpMix::TIMESERIES_RETENTION),
        dist: KeyDist::TimeSeriesAppend { jitter: 64 },
        prefill_frac: 0.0,
        about: "90% appends with periodic range-delete of expired prefixes — bounded live set",
    },
];

impl Scenario {
    /// Looks a scenario up by CLI name.
    pub fn by_name(name: &str) -> Option<&'static Scenario> {
        SCENARIOS.iter().find(|s| s.name == name)
    }

    /// The scenario's distribution with its key space sized to the run
    /// (`0` placeholders become `max(n/4, 16)`; a `0` hotspot period
    /// becomes `max(n/8, 16)`, several migrations per run).
    pub fn dist_for(&self, n: u64) -> KeyDist {
        let space = (n / 4).max(16);
        match self.dist {
            KeyDist::Uniform { space: 0 } => KeyDist::Uniform { space },
            KeyDist::Zipfian { space: 0, theta } => KeyDist::Zipfian { space, theta },
            KeyDist::ShiftingHotspot {
                space: 0,
                theta,
                period,
            } => KeyDist::ShiftingHotspot {
                space,
                theta,
                period: if period == 0 { (n / 8).max(16) } else { period },
            },
            d => d,
        }
    }
}

/// Run metadata identifying one cell execution; two runs with equal
/// identity executed the same op stream against the same configuration,
/// which is what `bench compare` matches on.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Structure CLI name ("gcola", "btree", …).
    pub structure: String,
    /// Human label from `DbBuilder::label` ("4-COLA ×2 shards").
    pub label: String,
    /// "mem" or "file".
    pub backend: String,
    /// Shard count.
    pub shards: usize,
    /// Page-cache budget of a file backend (0 for memory cells, where
    /// it has no effect).
    pub cache_bytes: u64,
    /// Lookahead-pointer density of the COLA levels.
    pub pointer_density: f64,
    /// Key distribution CLI name.
    pub dist: String,
    /// Measured operations.
    pub ops: u64,
    /// Prefill operations.
    pub prefill: u64,
    /// Workload seed.
    pub seed: u64,
}

impl RunMeta {
    /// Meta for one cell, derived from the database's own recorded
    /// [`cosbt::DbConfig`] — the cell identity is whatever the database
    /// says it was configured as, not a hand-assembled string.
    pub fn for_cell(
        structure: &str,
        cfg: &cosbt::DbConfig,
        dist: KeyDist,
        ops: u64,
        prefill: u64,
        seed: u64,
    ) -> RunMeta {
        RunMeta {
            structure: structure.to_string(),
            label: cfg.label(),
            backend: cfg.backend_kind().to_string(),
            shards: cfg.shards,
            cache_bytes: match cfg.backend {
                cosbt::Backend::Mem => 0,
                cosbt::Backend::File { .. } => cfg.cache_bytes as u64,
            },
            pointer_density: cfg.pointer_density,
            dist: dist.name().to_string(),
            ops,
            prefill,
            seed,
        }
    }

    /// The `meta` object of a `BENCH_*.json` run entry.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("structure", self.structure.as_str().into())
            .with("label", self.label.as_str().into())
            .with("backend", self.backend.as_str().into())
            .with("shards", self.shards.into())
            .with("cache_bytes", self.cache_bytes.into())
            .with("pointer_density", self.pointer_density.into())
            .with("dist", self.dist.as_str().into())
            .with("ops", self.ops.into())
            .with("prefill", self.prefill.into())
            .with("seed", self.seed.into())
    }
}

/// Latency histograms of one run, by op class.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    /// Every measured op.
    pub overall: Histogram,
    /// Point lookups.
    pub get: Histogram,
    /// Upserts.
    pub insert: Histogram,
    /// Deletes.
    pub delete: Histogram,
    /// Range scans (one sample per scan op, not per entry).
    pub scan: Histogram,
    /// Retention trims (one sample per whole expiry pass).
    pub trim: Histogram,
}

impl Latencies {
    fn for_class(&mut self, class: &str) -> &mut Histogram {
        match class {
            "get" => &mut self.get,
            "insert" => &mut self.insert,
            "delete" => &mut self.delete,
            "trim" => &mut self.trim,
            _ => &mut self.scan,
        }
    }
}

/// The cold-start phase a `--reopen` run appends: sync, drop the whole
/// process-side state (handle, page caches), reopen from the files, and
/// measure first-read behaviour.
#[derive(Debug, Clone)]
pub struct ReopenReport {
    /// Wall-clock seconds from `DbBuilder::open` call to a usable `Db`
    /// (superblock validation, metadata recovery, structure
    /// reconstruction).
    pub open_s: f64,
    /// Latency of the cold point reads issued right after reopen.
    pub first_reads: Histogram,
    /// Reads found (sanity: the reopened store actually serves data).
    pub hits: u64,
    /// I/O during the cold reads (every fetch is a real file read — the
    /// reopened cache starts empty).
    pub io: IoStats,
}

/// What one client thread of the contended driver did: its reads (with
/// tail latency), scans, and the writes it shipped to the ingest queue.
#[derive(Debug, Clone)]
pub struct ClientStats {
    /// Operations the client executed (reads served + writes enqueued).
    pub ops: u64,
    /// Point lookups served off the client's [`cosbt::DbReader`].
    pub reads: u64,
    /// Reads that found a live key.
    pub read_hits: u64,
    /// Entries streamed by the client's range scans.
    pub scanned: u64,
    /// Write operations (inserts/deletes/trims) enqueued to the writer.
    pub writes: u64,
    /// Read-path latency (gets and scans; enqueueing a write is not a
    /// completed operation, so it is counted but not timed).
    pub latency: Histogram,
}

/// The `--contended N` phase: N client threads each running the
/// scenario's *full* op mix — reads and scans served locally off an
/// auto-refreshing [`cosbt::DbReader`], writes shipped to the single
/// writer through an ingest queue — while the writer applies batches and
/// publishes an epoch per batch. Per-client p99/p999 read tails, writer
/// throughput, and epoch/reclaim counters land in `BENCH_*.json`.
#[derive(Debug, Clone)]
pub struct ContendedReport {
    /// Client thread count.
    pub clients: usize,
    /// Wall-clock seconds of the contended phase.
    pub elapsed_s: f64,
    /// Per-client breakdown (tail latency is per client, so one stalled
    /// client cannot hide inside a merged histogram).
    pub per_client: Vec<ClientStats>,
    /// Read latency merged across clients.
    pub read_latency: Histogram,
    /// Write ops the writer applied (everything the clients enqueued).
    pub writer_ops: u64,
    /// Ingest batches (epoch publications) the writer processed.
    pub writer_batches: u64,
    /// Writer ops per second while every client hammers its reader.
    pub writer_throughput: f64,
    /// Epochs published during the phase.
    pub epochs_published: u64,
    /// Retired runs reclaimed during the phase (freed under load as
    /// the readers' pins move past them).
    pub runs_reclaimed: u64,
}

/// The `--clients N` phase: N reader threads serving point lookups off
/// pinned snapshots while the writer keeps publishing epochs — the
/// contention cell recorded into `BENCH_*.json`.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Reader thread count.
    pub clients: usize,
    /// Wall-clock seconds of the contended phase.
    pub elapsed_s: f64,
    /// Point reads served across all readers.
    pub reads: u64,
    /// Reads that found a live key.
    pub read_hits: u64,
    /// Read latency under contention, merged across readers (the p99
    /// here is the headline number: snapshot reads must not stall while
    /// the writer publishes).
    pub read_latency: Histogram,
    /// Writes applied by the writer during the phase.
    pub writer_ops: u64,
    /// Writer ops per second while all readers hammer snapshots.
    pub writer_throughput: f64,
    /// Epochs the writer published during the phase.
    pub epochs_published: u64,
}

/// Everything one scenario × cell execution measured.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario CLI name.
    pub scenario: String,
    /// Cell + stream identity.
    pub meta: RunMeta,
    /// Wall-clock seconds of the measured phase (including the drain
    /// for `insert_then_drain`).
    pub elapsed_s: f64,
    /// Measured ops per second over `elapsed_s`. For
    /// `insert_then_drain` each drained entry counts as one op — the
    /// build-then-stream pipeline rate — since the drain is inside the
    /// measured window.
    pub throughput: f64,
    /// Per-class latency histograms.
    pub latency: Latencies,
    /// Entries streamed by scan ops (and the drain phase).
    pub scanned_entries: u64,
    /// Block transfers etc. during prefill (zeros for memory backends).
    pub io_prefill: IoStats,
    /// Block transfers etc. during the measured phase.
    pub io_run: IoStats,
    /// Cold-start measurements of the `--reopen` phase, when requested
    /// (file cells only). Optional, so trajectories with and without the
    /// phase keep one run identity.
    pub reopen: Option<ReopenReport>,
    /// Measurements of the `--clients N` contended phase, when
    /// requested. Optional for the same run-identity reason as `reopen`.
    pub concurrent: Option<ConcurrentReport>,
    /// Measurements of the `--contended N` full-mix multi-client phase,
    /// when requested. Optional for the same run-identity reason.
    pub contended: Option<ContendedReport>,
}

/// Batch size for prefill `insert_batch` runs and drain chunks.
const CHUNK: usize = 16 * 1024;

/// The seed of the prefill stream for a run seed — decorrelated from the
/// measured op stream so prefill keys do not replay as op keys. Public
/// so a model replay (`tests/scenario_model.rs`) regenerates the exact
/// prefill the runner used.
pub fn prefill_seed(seed: u64) -> u64 {
    seed ^ 0x5EED_F111
}

/// The op mix a scenario's measured phase executes.
pub fn mix_of(kind: ScenarioKind) -> OpMix {
    match kind {
        ScenarioKind::Mixed(mix) => mix,
        ScenarioKind::InsertThenDrain => OpMix::INSERT_ONLY,
    }
}

/// Loads the deterministic prefill stream for (`dist`, `prefill`,
/// `seed`) into `db` in ingest-sized chunks. Factored out of [`run`] so
/// the CLI's staged `--prefill-only` mode executes the *identical*
/// phase before syncing the store and recording a resume marker.
pub fn prefill_into(db: &mut Db, dist: KeyDist, prefill: u64, seed: u64) {
    let run = prefill_run(dist, prefill, prefill_seed(seed));
    for chunk in run.chunks(CHUNK) {
        db.insert_batch(chunk);
    }
}

/// Executes one retention trim: deletes every live key strictly below
/// `cutoff` as a single batch (the structures turn it into tombstones,
/// so the pass is one merge, not `k` point deletes). Public so a model
/// replay mirrors the exact semantics (`model.split_off(&cutoff)`).
pub fn trim_below(db: &mut Db, cutoff: u64) {
    if cutoff == 0 {
        return;
    }
    let expired = db.range(0, cutoff - 1);
    if expired.is_empty() {
        return;
    }
    let mut batch = cosbt::UpdateBatch::new();
    for (k, _) in expired {
        batch.delete(k);
    }
    db.apply(&mut batch);
}

/// Executes `scenario` against `db`: prefills (unmeasured, but its I/O
/// is reported), then runs `meta.ops` operations timing each one.
/// `meta.dist` must name the distribution actually passed in `dist` —
/// the CLI guarantees this; tests construct both from the same value.
pub fn run(scenario: &Scenario, dist: KeyDist, meta: RunMeta, db: &mut Db) -> ScenarioReport {
    run_resumable(scenario, dist, meta, db, false)
}

/// [`run`] with a resume switch: when `skip_prefill` is true the prefill
/// phase is skipped even though `meta.prefill` stays in the cell's
/// identity — the caller attests that `db` already holds the exact state
/// a fresh prefill with `meta.seed` would produce (the CLI's `--resume`
/// verifies this via a marker file keyed on the cell identity). Prefill
/// is deterministic, so the measured phase is identical either way; only
/// the unmeasured `io_prefill` counters differ.
pub fn run_resumable(
    scenario: &Scenario,
    dist: KeyDist,
    meta: RunMeta,
    db: &mut Db,
    skip_prefill: bool,
) -> ScenarioReport {
    // Phase 1: prefill (not latency-measured; I/O reported separately).
    if meta.prefill > 0 && !skip_prefill {
        prefill_into(db, dist, meta.prefill, meta.seed);
    }
    let io_prefill = db.io().take();

    // Phase 2: the measured op stream.
    let mix = mix_of(scenario.kind);
    let mut latency = Latencies::default();
    let mut scanned = 0u64;
    let started = Instant::now();
    for op in OpStream::new(mix, dist, meta.seed).take(meta.ops as usize) {
        let t = Instant::now();
        match op {
            Op::Get(k) => {
                std::hint::black_box(db.get(k));
            }
            Op::Insert(k, v) => db.insert(k, v),
            Op::Delete(k) => db.delete(k),
            Op::Scan(k, len) => {
                let mut cur = db.cursor(k, u64::MAX);
                for _ in 0..len {
                    match cur.next() {
                        Some(kv) => {
                            std::hint::black_box(kv);
                            scanned += 1;
                        }
                        None => break,
                    }
                }
            }
            Op::Trim(cutoff) => trim_below(db, cutoff),
        }
        let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        latency.for_class(op.class()).record(ns);
        latency.overall.record(ns);
    }

    // Phase 2b (insert_then_drain): stream everything back out, one
    // scan-class latency sample per chunk of entries.
    if scenario.kind == ScenarioKind::InsertThenDrain {
        let mut cur = db.cursor(0, u64::MAX);
        loop {
            let t = Instant::now();
            let mut got = 0usize;
            while got < CHUNK {
                match cur.next() {
                    Some(kv) => {
                        std::hint::black_box(kv);
                        got += 1;
                    }
                    None => break,
                }
            }
            if got > 0 {
                scanned += got as u64;
                let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                latency.scan.record(ns);
                latency.overall.record(ns);
            }
            if got < CHUNK {
                break;
            }
        }
    }

    let elapsed_s = started.elapsed().as_secs_f64();
    let io_run = db.io().take();
    // elapsed_s covers the drain too, so the drained entries must count
    // toward the rate — otherwise a drain-dominated run would understate
    // insert throughput and a slower drain would masquerade as one.
    let measured_ops = match scenario.kind {
        ScenarioKind::Mixed(_) => meta.ops,
        ScenarioKind::InsertThenDrain => meta.ops + scanned,
    };
    ScenarioReport {
        scenario: scenario.name.to_string(),
        throughput: measured_ops as f64 / elapsed_s.max(1e-9),
        meta,
        elapsed_s,
        latency,
        scanned_entries: scanned,
        io_prefill,
        io_run,
        reopen: None,
        concurrent: None,
        contended: None,
    }
}

/// The ingest-queue protocol between contended clients and the writer.
enum IngestMsg {
    /// Apply a batch of buffered upserts/deletes.
    Batch(cosbt::UpdateBatch),
    /// Expire everything strictly below the cutoff (a client rolled a
    /// retention trim; only the writer may mutate).
    Trim(u64),
}

/// Write ops a client buffers before shipping one batch to the writer.
const CLIENT_WRITE_CHUNK: usize = 256;

/// The `--contended N` phase: every client runs the full `mix` over
/// `dist` (salted per client so streams differ but stay deterministic),
/// serving gets/scans from its own auto-refreshing [`cosbt::DbReader`]
/// and shipping writes to the single writer via an mpsc ingest queue.
/// The writer drains the queue, applies each batch, and publishes an
/// epoch per batch so readers observe fresh data mid-run. Returns when
/// every client finished its `ops_per_client` stream and the queue is
/// drained.
pub fn run_contended(
    db: &mut Db,
    mix: OpMix,
    dist: KeyDist,
    seed: u64,
    clients: usize,
    ops_per_client: u64,
) -> ContendedReport {
    let epochs_before = db.snapshot_stats();
    let (tx, rx) = std::sync::mpsc::channel::<IngestMsg>();
    // One auto-refreshing reader per client, created up front (each
    // `reader()` call publishes the current state once; after that the
    // readers chase the writer's publications on their own).
    let mut readers: Vec<cosbt::DbReader> = (0..clients).map(|_| db.reader()).collect();

    let started = Instant::now();
    let (per_client, writer_ops, writer_batches) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let tx = tx.clone();
                let mut reader = readers.pop().expect("one reader per client");
                s.spawn(move || {
                    let mut stats = ClientStats {
                        ops: 0,
                        reads: 0,
                        read_hits: 0,
                        scanned: 0,
                        writes: 0,
                        latency: Histogram::new(),
                    };
                    let mut batch = cosbt::UpdateBatch::new();
                    let client_seed = seed ^ 0xC047_E4D0 ^ ((c as u64) << 32);
                    for op in OpStream::new(mix, dist, client_seed).take(ops_per_client as usize) {
                        stats.ops += 1;
                        match op {
                            Op::Get(k) => {
                                let t = Instant::now();
                                if std::hint::black_box(reader.get(k)).is_some() {
                                    stats.read_hits += 1;
                                }
                                let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                                stats.latency.record(ns);
                                stats.reads += 1;
                            }
                            Op::Scan(k, len) => {
                                let t = Instant::now();
                                let mut cur = reader.cursor(k, u64::MAX);
                                for _ in 0..len {
                                    match cur.next() {
                                        Some(kv) => {
                                            std::hint::black_box(kv);
                                            stats.scanned += 1;
                                        }
                                        None => break,
                                    }
                                }
                                let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                                stats.latency.record(ns);
                            }
                            Op::Insert(k, v) => {
                                batch.put(k, v);
                                stats.writes += 1;
                            }
                            Op::Delete(k) => {
                                batch.delete(k);
                                stats.writes += 1;
                            }
                            Op::Trim(cutoff) => {
                                // Order matters: buffered writes must land
                                // before the trim that may expire them.
                                if !batch.is_empty() {
                                    let full = std::mem::take(&mut batch);
                                    tx.send(IngestMsg::Batch(full)).expect("writer alive");
                                }
                                tx.send(IngestMsg::Trim(cutoff)).expect("writer alive");
                                stats.writes += 1;
                            }
                        }
                        if batch.len() >= CLIENT_WRITE_CHUNK {
                            let full = std::mem::take(&mut batch);
                            tx.send(IngestMsg::Batch(full)).expect("writer alive");
                        }
                    }
                    if !batch.is_empty() {
                        tx.send(IngestMsg::Batch(batch)).expect("writer alive");
                    }
                    stats
                })
            })
            .collect();
        drop(tx); // the writer's recv loop ends when the last client hangs up

        // The writer runs on this thread: drain the ingest queue, apply,
        // publish an epoch per message so readers refresh mid-run.
        let mut writer_ops = 0u64;
        let mut writer_batches = 0u64;
        while let Ok(msg) = rx.recv() {
            match msg {
                IngestMsg::Batch(mut b) => {
                    writer_ops += b.len() as u64;
                    db.apply(&mut b);
                }
                IngestMsg::Trim(cutoff) => {
                    writer_ops += 1;
                    trim_below(db, cutoff);
                }
            }
            writer_batches += 1;
            drop(db.snapshot());
        }

        let per_client: Vec<ClientStats> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (per_client, writer_ops, writer_batches)
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut read_latency = Histogram::new();
    for c in &per_client {
        read_latency.merge(&c.latency);
    }
    let epochs_after = db.snapshot_stats();
    ContendedReport {
        clients,
        elapsed_s,
        per_client,
        read_latency,
        writer_ops,
        writer_batches,
        writer_throughput: writer_ops as f64 / elapsed_s.max(1e-9),
        epochs_published: epochs_after.published - epochs_before.published,
        runs_reclaimed: epochs_after.reclaimed_runs - epochs_before.reclaimed_runs,
    }
}

/// The `--clients N` contended phase: `clients` reader threads run point
/// lookups against the freshest published snapshot (each iteration clones
/// the latest [`DbSnapshot`] out of a shared slot — one brief mutex touch,
/// then every read is lock-free against the pinned epoch) while the
/// writer applies `write_ops` upserts in chunks, publishing a new epoch
/// per chunk. Keys on both sides come from the run's distribution, so
/// readers mostly hit. Returns merged reader latency plus writer
/// throughput under contention.
pub fn run_concurrent(
    db: &mut Db,
    dist: KeyDist,
    seed: u64,
    clients: usize,
    write_ops: u64,
) -> ConcurrentReport {
    const WRITE_CHUNK: usize = 4 * 1024;
    let epochs_before = db.snapshot_stats().published;
    let latest: Arc<Mutex<DbSnapshot>> = Arc::new(Mutex::new(db.snapshot()));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..clients)
        .map(|c| {
            let latest = Arc::clone(&latest);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut keygen = KeyGen::new(dist);
                let mut rng = Rng::new(seed ^ 0xC11E_4700 ^ (c as u64) << 32);
                let mut hist = Histogram::new();
                let mut hits = 0u64;
                // ordering: Acquire pairs with the driver's Release
                // store so a client observing `stop` also observes the
                // final snapshot published before it.
                while !stop.load(Ordering::Acquire) {
                    let snap = latest.lock().unwrap().clone();
                    for _ in 0..256 {
                        let k = keygen.next_key(&mut rng);
                        let t = Instant::now();
                        if std::hint::black_box(snap.get(k)).is_some() {
                            hits += 1;
                        }
                        let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        hist.record(ns);
                    }
                }
                (hist, hits)
            })
        })
        .collect();

    let mut keygen = KeyGen::new(dist);
    let mut rng = Rng::new(seed ^ 0x3717_E400);
    let started = Instant::now();
    let mut written = 0u64;
    while written < write_ops {
        let n = WRITE_CHUNK.min((write_ops - written) as usize);
        let mut chunk: Vec<(u64, u64)> = (0..n)
            .map(|_| (keygen.next_key(&mut rng), rng.next_u64()))
            .collect();
        chunk.sort_unstable_by_key(|&(k, _)| k);
        db.insert_batch(&chunk);
        written += n as u64;
        *latest.lock().unwrap() = db.snapshot();
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    // ordering: Release pairs with the clients' Acquire loads above.
    stop.store(true, Ordering::Release);

    let mut read_latency = Histogram::new();
    let mut reads = 0u64;
    let mut read_hits = 0u64;
    for r in readers {
        let (hist, hits) = r.join().expect("reader thread panicked");
        reads += hist.count();
        read_hits += hits;
        read_latency.merge(&hist);
    }
    ConcurrentReport {
        clients,
        elapsed_s,
        reads,
        read_hits,
        read_latency,
        writer_ops: written,
        writer_throughput: written as f64 / elapsed_s.max(1e-9),
        epochs_published: db.snapshot_stats().published - epochs_before,
    }
}

/// The `--reopen` cold-start phase: commits `db` durably, drops every
/// piece of process state (handle and user-space page caches), reopens
/// the store from its files via `builder`, and measures open latency
/// plus `samples` cold point reads against keys drawn from the run's
/// key distribution (the regenerated prefill stream — real hits whenever
/// the scenario prefills). Consumes and returns the database so the
/// caller keeps control of file cleanup.
pub fn run_reopen(
    builder: cosbt::DbBuilder,
    db: Db,
    dist: KeyDist,
    seed: u64,
    samples: u64,
) -> Result<(ReopenReport, Db), String> {
    let mut db = db;
    db.sync().map_err(|e| format!("sync before reopen: {e}"))?;
    drop(db);

    let started = Instant::now();
    let mut db = builder.open().map_err(|e| format!("reopen: {e}"))?;
    let open_s = started.elapsed().as_secs_f64();

    db.io().reset();
    let mut first_reads = Histogram::default();
    let mut hits = 0u64;
    let keys = prefill_run(dist, samples, prefill_seed(seed));
    for &(k, _) in &keys {
        let t = Instant::now();
        if std::hint::black_box(db.get(k)).is_some() {
            hits += 1;
        }
        let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        first_reads.record(ns);
    }
    let io = db.io().take();
    Ok((
        ReopenReport {
            open_s,
            first_reads,
            hits,
            io,
        },
        db,
    ))
}

fn histogram_json(h: &Histogram) -> Json {
    Json::obj()
        .with("count", h.count().into())
        .with("mean_ns", h.mean().into())
        .with("min_ns", h.min().into())
        .with("p50_ns", h.p50().into())
        .with("p95_ns", h.p95().into())
        .with("p99_ns", h.p99().into())
        .with("p999_ns", h.p999().into())
        .with("max_ns", h.max().into())
}

fn io_json(s: &IoStats) -> Json {
    Json::obj()
        .with("transfers", s.transfers().into())
        .with("accesses", s.accesses.into())
        .with("hits", s.hits.into())
        .with("fetches", s.fetches.into())
        .with("writebacks", s.writebacks.into())
        .with("seeks", s.seeks.into())
}

impl ScenarioReport {
    /// The run as one entry of a `BENCH_*.json` `runs` array.
    pub fn to_json(&self) -> Json {
        let reopen_json = self.reopen.as_ref().map(|r| {
            Json::obj()
                .with("open_s", r.open_s.into())
                .with("first_reads_ns", histogram_json(&r.first_reads))
                .with("hits", r.hits.into())
                .with("io", io_json(&r.io))
        });
        let concurrent_json = self.concurrent.as_ref().map(|c| {
            Json::obj()
                .with("clients", (c.clients as u64).into())
                .with("elapsed_s", c.elapsed_s.into())
                .with("reads", c.reads.into())
                .with("read_hits", c.read_hits.into())
                .with("read_latency_ns", histogram_json(&c.read_latency))
                .with("writer_ops", c.writer_ops.into())
                .with("writer_throughput_ops_per_sec", c.writer_throughput.into())
                .with("epochs_published", c.epochs_published.into())
        });
        let contended_json = self.contended.as_ref().map(|c| {
            let per_client: Vec<Json> = c
                .per_client
                .iter()
                .map(|cl| {
                    Json::obj()
                        .with("ops", cl.ops.into())
                        .with("reads", cl.reads.into())
                        .with("read_hits", cl.read_hits.into())
                        .with("scanned", cl.scanned.into())
                        .with("writes", cl.writes.into())
                        .with("read_latency_ns", histogram_json(&cl.latency))
                })
                .collect();
            Json::obj()
                .with("clients", (c.clients as u64).into())
                .with("elapsed_s", c.elapsed_s.into())
                .with("per_client", Json::Arr(per_client))
                .with("read_latency_ns", histogram_json(&c.read_latency))
                .with("writer_ops", c.writer_ops.into())
                .with("writer_batches", c.writer_batches.into())
                .with("writer_throughput_ops_per_sec", c.writer_throughput.into())
                .with("epochs_published", c.epochs_published.into())
                .with("runs_reclaimed", c.runs_reclaimed.into())
        });
        let base = Json::obj()
            .with("meta", self.meta.to_json())
            .with("elapsed_s", self.elapsed_s.into())
            .with("throughput_ops_per_sec", self.throughput.into())
            .with(
                "latency_ns",
                Json::obj()
                    .with("overall", histogram_json(&self.latency.overall))
                    .with("get", histogram_json(&self.latency.get))
                    .with("insert", histogram_json(&self.latency.insert))
                    .with("delete", histogram_json(&self.latency.delete))
                    .with("scan", histogram_json(&self.latency.scan))
                    .with("trim", histogram_json(&self.latency.trim)),
            )
            .with("scanned_entries", self.scanned_entries.into())
            .with(
                "io",
                Json::obj()
                    .with("prefill", io_json(&self.io_prefill))
                    .with("run", io_json(&self.io_run)),
            );
        let base = match reopen_json {
            Some(r) => base.with("reopen", r),
            None => base,
        };
        let base = match concurrent_json {
            Some(c) => base.with("concurrent", c),
            None => base,
        };
        match contended_json {
            Some(c) => base.with("contended", c),
            None => base,
        }
    }

    /// Human console summary.
    pub fn print(&self) {
        println!(
            "{:<18} {:<24} {:>10.0} ops/s  p50 {:>8} ns  p95 {:>8} ns  p99 {:>8} ns  \
             transfers {:>8}",
            self.scenario,
            self.meta.label,
            self.throughput,
            self.latency.overall.p50(),
            self.latency.overall.p95(),
            self.latency.overall.p99(),
            self.io_run.transfers(),
        );
    }
}

/// Header of the `BENCH_*.csv` companion files.
pub fn csv_header() -> &'static str {
    "scenario,structure,backend,shards,dist,ops,prefill,seed,elapsed_s,\
     throughput_ops_per_sec,p50_ns,p95_ns,p99_ns,p999_ns,prefill_transfers,run_transfers"
}

/// Wraps run entries into a schema-versioned `BENCH_<scenario>.json`
/// document, replacing same-identity runs of `existing` (so re-running a
/// cell updates its row while other cells' results survive — the bench
/// trajectory accumulates instead of resetting).
pub fn merge_document(scenario: &str, existing: Option<&Json>, new_runs: &[Json]) -> Json {
    let mut runs: Vec<Json> = existing
        .filter(|doc| {
            doc.get("schema_version").and_then(Json::as_u64) == Some(SCHEMA_VERSION)
                && doc.get("scenario").and_then(Json::as_str) == Some(scenario)
        })
        .and_then(|doc| doc.get("runs"))
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();
    for new_run in new_runs {
        let id = run_identity(new_run);
        if let Some(slot) = runs.iter_mut().find(|r| run_identity(r) == id) {
            *slot = new_run.clone();
        } else {
            runs.push(new_run.clone());
        }
    }
    Json::obj()
        .with("schema_version", SCHEMA_VERSION.into())
        .with("scenario", scenario.into())
        .with("runs", Json::Arr(runs))
}

/// The compare/merge key of a serialized run: every meta field that
/// pins the op stream and the cell's behaviour — the serialized form of
/// the cell's `DbConfig` plus the stream parameters. The label is
/// included because it encodes the structure parameters (growth factor,
/// fanout, deamortization) the bare structure name does not — a 2-COLA
/// and an 8-COLA must not replace each other's trajectory rows;
/// cache_bytes because it directly changes transfer counts on file
/// cells. `pointer_density` defaults to the builder default when absent,
/// so baselines recorded before the field existed keep matching.
/// `parallel_ingest` reads as `false` when absent: runs no longer record
/// it (the shard router picks its threads itself), and the older rows
/// that do all say `false`. Older artifacts also carry two booleans for
/// read-path knobs that no longer exist; they are not part of the key.
pub fn run_identity(run: &Json) -> String {
    let meta = run.get("meta");
    let s = |k: &str| {
        meta.and_then(|m| m.get(k))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let n = |k: &str| {
        meta.and_then(|m| m.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX)
    };
    let parallel = meta
        .and_then(|m| m.get("parallel_ingest"))
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let density = meta
        .and_then(|m| m.get("pointer_density"))
        .and_then(Json::as_f64)
        .unwrap_or(0.1);
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
        s("structure"),
        s("label"),
        s("backend"),
        n("shards"),
        n("cache_bytes"),
        parallel,
        density,
        s("dist"),
        n("ops"),
        n("prefill"),
        n("seed")
    )
}

/// Renders a merged `BENCH_*.json` document as its companion CSV (one
/// row per run, [`csv_header`] first) — regenerated wholesale from the
/// document so the two artifacts can never drift apart.
pub fn csv_from_document(doc: &Json) -> String {
    let scenario = doc.get("scenario").and_then(Json::as_str).unwrap_or("?");
    let mut out = format!("{}\n", csv_header());
    let empty: &[Json] = &[];
    for r in doc.get("runs").and_then(Json::as_arr).unwrap_or(empty) {
        let meta = r.get("meta");
        let ms = |k: &str| {
            meta.and_then(|m| m.get(k))
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let mn = |k: &str| {
            meta.and_then(|m| m.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let overall = r.get("latency_ns").and_then(|l| l.get("overall"));
        let q = |k: &str| {
            overall
                .and_then(|o| o.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let io = |phase: &str| {
            r.get("io")
                .and_then(|io| io.get(phase))
                .and_then(|p| p.get("transfers"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{:.6},{:.1},{},{},{},{},{},{}",
            scenario,
            ms("structure"),
            ms("backend"),
            mn("shards"),
            ms("dist"),
            mn("ops"),
            mn("prefill"),
            mn("seed"),
            r.get("elapsed_s").and_then(Json::as_f64).unwrap_or(0.0),
            r.get("throughput_ops_per_sec")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            q("p50_ns"),
            q("p95_ns"),
            q("p99_ns"),
            q("p999_ns"),
            io("prefill"),
            io("run"),
        );
    }
    out
}

/// One regression (or advisory) found by [`compare_documents`].
#[derive(Debug, Clone)]
pub struct Finding {
    /// Human description of the delta.
    pub message: String,
    /// Whether this finding should fail the gate.
    pub fails: bool,
}

/// Diffs a current `BENCH_*.json` document against a baseline.
///
/// Block transfers are deterministic for a fixed `(scenario, cell, n,
/// seed)` — same code, same count — so they gate hard: a current value
/// more than `threshold` (fractional) above baseline is a failing
/// finding. Wall-clock throughput depends on the machine, so it only
/// gates when `check_throughput` is set (useful on a dedicated runner);
/// otherwise it reports advisories. Runs missing from the baseline are
/// advisories, so adding a new cell never breaks the gate.
pub fn compare_documents(
    current: &Json,
    baseline: &Json,
    threshold: f64,
    check_throughput: bool,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let (cur_v, base_v) = (
        current.get("schema_version").and_then(Json::as_u64),
        baseline.get("schema_version").and_then(Json::as_u64),
    );
    if cur_v != Some(SCHEMA_VERSION) || base_v != Some(SCHEMA_VERSION) {
        findings.push(Finding {
            message: format!(
                "schema mismatch: current {cur_v:?}, baseline {base_v:?}, tool expects \
                 {SCHEMA_VERSION} — refresh the baseline"
            ),
            fails: true,
        });
        return findings;
    }
    let empty: &[Json] = &[];
    let base_runs = baseline.get("runs").and_then(Json::as_arr).unwrap_or(empty);
    let cur_runs = current.get("runs").and_then(Json::as_arr).unwrap_or(empty);
    for cur in cur_runs {
        let id = run_identity(cur);
        let label = cur
            .get("meta")
            .and_then(|m| m.get("label"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(base) = base_runs.iter().find(|r| run_identity(r) == id) else {
            findings.push(Finding {
                message: format!("{label}: no baseline run (new cell?) — skipped"),
                fails: false,
            });
            continue;
        };
        let transfers = |r: &Json| -> u64 {
            r.get("io")
                .and_then(|io| io.get("run"))
                .and_then(|p| p.get("transfers"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let (ct, bt) = (transfers(cur), transfers(base));
        if ct as f64 > bt as f64 * (1.0 + threshold) + 0.5 {
            findings.push(Finding {
                message: format!(
                    "{label}: block transfers regressed {bt} → {ct} \
                     (+{:.1}%, threshold {:.1}%)",
                    (ct as f64 / bt.max(1) as f64 - 1.0) * 100.0,
                    threshold * 100.0
                ),
                fails: true,
            });
        } else if (bt as f64) > ct as f64 * (1.0 + threshold) + 0.5 {
            findings.push(Finding {
                message: format!("{label}: block transfers improved {bt} → {ct}"),
                fails: false,
            });
        }
        let tput = |r: &Json| {
            r.get("throughput_ops_per_sec")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let (cth, bth) = (tput(cur), tput(base));
        if cth < bth * (1.0 - threshold) && bth > 0.0 {
            findings.push(Finding {
                message: format!(
                    "{label}: throughput {} {bth:.0} → {cth:.0} ops/s (−{:.1}%)",
                    if check_throughput {
                        "regressed"
                    } else {
                        "lower (advisory)"
                    },
                    (1.0 - cth / bth) * 100.0
                ),
                fails: check_throughput,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosbt::{DbBuilder, Structure};

    fn small_meta(scenario: &Scenario, n: u64) -> (KeyDist, RunMeta) {
        let dist = scenario.dist_for(n);
        let meta = RunMeta {
            structure: "gcola".into(),
            label: "4-COLA".into(),
            backend: "mem".into(),
            shards: 1,
            cache_bytes: 0,
            pointer_density: 0.1,
            dist: dist.name().into(),
            ops: n,
            prefill: (n as f64 * scenario.prefill_frac) as u64,
            seed: 42,
        };
        (dist, meta)
    }

    #[test]
    fn every_scenario_runs_and_reports() {
        for scenario in SCENARIOS {
            let (dist, meta) = small_meta(scenario, 2000);
            let mut db = DbBuilder::new()
                .structure(Structure::GCola { g: 4 })
                .build()
                .unwrap();
            let report = run(scenario, dist, meta, &mut db);
            // Every op contributes one overall sample; a drain adds one
            // more per streamed chunk on top of the 2000 ops.
            let want = match scenario.kind {
                ScenarioKind::Mixed(_) => 2000,
                ScenarioKind::InsertThenDrain => 2000 + report.latency.scan.count(),
            };
            assert_eq!(
                report.latency.overall.count(),
                want,
                "{}: every op sampled",
                scenario.name
            );
            assert!(report.throughput > 0.0, "{}", scenario.name);
            assert!(report.elapsed_s > 0.0, "{}", scenario.name);
            if scenario.kind == ScenarioKind::InsertThenDrain {
                assert!(
                    report.scanned_entries > 0,
                    "{}: drain streamed entries",
                    scenario.name
                );
            }
            let j = report.to_json();
            assert!(j.get("latency_ns").is_some());
            assert!(j
                .get("io")
                .unwrap()
                .get("run")
                .unwrap()
                .get("transfers")
                .is_some());
        }
    }

    #[test]
    fn merge_document_replaces_by_identity() {
        let scenario = Scenario::by_name("balanced").unwrap();
        let (dist, meta) = small_meta(scenario, 500);
        let mut db = DbBuilder::new().build().unwrap();
        let r1 = run(scenario, dist, meta.clone(), &mut db).to_json();
        let doc = merge_document("balanced", None, std::slice::from_ref(&r1));
        assert_eq!(doc.get("schema_version").unwrap().as_u64(), Some(1));
        // Same identity: replaced, not duplicated.
        let doc2 = merge_document("balanced", Some(&doc), std::slice::from_ref(&r1));
        assert_eq!(doc2.get("runs").unwrap().as_arr().unwrap().len(), 1);
        // Different identity: appended.
        let mut db2 = DbBuilder::new()
            .structure(Structure::BTree)
            .build()
            .unwrap();
        let meta2 = RunMeta {
            structure: "btree".into(),
            label: "B-tree".into(),
            ..meta
        };
        let r2 = run(scenario, dist, meta2, &mut db2).to_json();
        let doc3 = merge_document("balanced", Some(&doc2), &[r2]);
        assert_eq!(doc3.get("runs").unwrap().as_arr().unwrap().len(), 2);
        // Same structure name but different parameters (the label
        // carries g/fanout/deamortization): distinct identity, appended —
        // an 8-COLA must not overwrite the 4-COLA's trajectory row.
        let mut db3 = DbBuilder::new()
            .structure(Structure::GCola { g: 8 })
            .build()
            .unwrap();
        let (dist, meta8) = small_meta(scenario, 500);
        let meta8 = RunMeta {
            label: "8-COLA".into(),
            ..meta8
        };
        let r3 = run(scenario, dist, meta8, &mut db3).to_json();
        let doc4 = merge_document("balanced", Some(&doc3), &[r3]);
        assert_eq!(doc4.get("runs").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn compare_flags_transfer_regressions_not_improvements() {
        let scenario = Scenario::by_name("balanced").unwrap();
        let (dist, meta) = small_meta(scenario, 500);
        let mut db = DbBuilder::new().build().unwrap();
        let r = run(scenario, dist, meta, &mut db).to_json();
        let current = merge_document("balanced", None, std::slice::from_ref(&r));

        // Identical baseline: clean.
        let findings = compare_documents(&current, &current, 0.10, false);
        assert!(findings.iter().all(|f| !f.fails), "{findings:?}");

        // Baseline with *fewer* transfers than current → current regressed.
        // Memory cells report 0 transfers, so fabricate counts on both
        // sides through the JSON (what the CLI actually diffs).
        let inflate = |doc: &Json, t: u64| -> Json {
            let mut doc = doc.clone();
            let Json::Obj(fields) = &mut doc else {
                panic!()
            };
            let runs = fields.iter_mut().find(|(k, _)| k == "runs").unwrap();
            let Json::Arr(runs) = &mut runs.1 else {
                panic!()
            };
            for r in runs {
                let io = r.get("io").unwrap().clone();
                let run_io = io.get("run").unwrap().clone().with("transfers", t.into());
                r.set("io", io.with("run", run_io));
            }
            doc
        };
        let current_bad = inflate(&current, 150);
        let baseline = inflate(&current, 100);
        let findings = compare_documents(&current_bad, &baseline, 0.10, false);
        assert!(
            findings.iter().any(|f| f.fails),
            "50% above a 10% threshold must fail: {findings:?}"
        );
        // Within threshold: clean.
        let findings = compare_documents(&inflate(&current, 105), &baseline, 0.10, false);
        assert!(findings.iter().all(|f| !f.fails), "{findings:?}");
        // Improvement: advisory only.
        let findings = compare_documents(&inflate(&current, 50), &baseline, 0.10, false);
        assert!(findings.iter().all(|f| !f.fails), "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("improved")));
        // Missing baseline run: advisory only.
        let empty = Json::obj()
            .with("schema_version", SCHEMA_VERSION.into())
            .with("scenario", "balanced".into())
            .with("runs", Json::Arr(vec![]));
        let findings = compare_documents(&current, &empty, 0.10, false);
        assert!(findings.iter().all(|f| !f.fails), "{findings:?}");
        // Schema mismatch: hard failure.
        let old = Json::obj().with("schema_version", 999u64.into());
        assert!(compare_documents(&current, &old, 0.10, false)[0].fails);
    }

    #[test]
    fn sharded_file_cell_reports_phase_io() {
        let scenario = Scenario::by_name("balanced").unwrap();
        let n = 4000u64;
        let dist = scenario.dist_for(n);
        let path = cosbt_testkit::TempPath::new("scen.dat");
        let meta = RunMeta {
            structure: "gcola".into(),
            label: "4-COLA ×2 shards".into(),
            backend: "file".into(),
            shards: 2,
            cache_bytes: 64 * 1024,
            pointer_density: 0.1,
            dist: dist.name().into(),
            ops: n,
            prefill: n / 2,
            seed: 7,
        };
        let builder = DbBuilder::new()
            .structure(Structure::GCola { g: 4 })
            .backend(cosbt::Backend::file(path.to_path_buf()))
            .cache_bytes(64 * 1024)
            .shards(2);
        let mut db = builder.build().unwrap();
        let report = run(scenario, dist, meta, &mut db);
        assert!(report.io_prefill.transfers() > 0, "prefill hit the files");
        assert!(report.io_run.accesses > 0, "run phase touched the stores");
    }
}

//! The scenario runner: executes a named workload against any cell of
//! the `DbBuilder` configuration matrix and produces a machine-readable
//! report of deterministic counts: ops per class, scanned entries, and
//! DAM block-transfer counts split by phase. Wall-clock is measured by
//! the repository benchmark (`benchmark/`), not here.
//!
//! A **scenario** is a key distribution × operation mix (see
//! [`crate::workloads`]) plus a prefill policy; a **cell** is one
//! structure × backend × shards configuration. The same `(scenario,
//! cell, n, seed)` tuple always executes the same operation sequence,
//! so results are comparable across structures, across commits (the
//! `BENCH_*.json` trajectory), and against a `BTreeMap` model replay
//! (the property suite in `tests/scenario_model.rs`).

use cosbt::Db;
use cosbt_dam::IoStats;

use crate::json::Json;
use crate::workloads::{prefill_run, KeyDist, Op, OpMix, OpStream};

/// Bump when the `BENCH_*.json` layout changes shape; `bench compare`
/// refuses to diff across schema versions.
pub const SCHEMA_VERSION: u64 = 2;

/// How a scenario drives the dictionary after prefill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioKind {
    /// A stationary stream of mixed operations.
    Mixed(OpMix),
    /// Insert every op as a write, then drain the whole keyspace through
    /// one streaming cursor — the log-index build-then-read pattern.
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

/// How many ops of each class one run executed: the op stream's own
/// tally, so a test can check that every op ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Point lookups.
    pub get: u64,
    /// Upserts.
    pub insert: u64,
    /// Deletes.
    pub delete: u64,
    /// Range scans (one per scan op, not per entry).
    pub scan: u64,
    /// Retention trims (one per whole expiry pass).
    pub trim: u64,
}

impl OpCounts {
    fn count(&mut self, op: &Op) {
        match op {
            Op::Get(_) => self.get += 1,
            Op::Insert(..) => self.insert += 1,
            Op::Delete(_) => self.delete += 1,
            Op::Scan(..) => self.scan += 1,
            Op::Trim(_) => self.trim += 1,
        }
    }

    /// Every op the run executed.
    pub fn total(&self) -> u64 {
        self.get + self.insert + self.delete + self.scan + self.trim
    }
}

/// The cold-start phase a `--reopen` run appends: sync, drop the whole
/// process-side state (handle, page caches), reopen from the files, and
/// read the distinct keys of [`REOPEN_SAMPLES`] key draws cold.
#[derive(Debug, Clone)]
pub struct ReopenReport {
    /// Reads found (sanity: the reopened store actually serves data).
    pub hits: u64,
    /// I/O during the cold reads (every fetch is a real file read — the
    /// reopened cache starts empty).
    pub io: IoStats,
}

/// Everything one scenario × cell execution counted.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario CLI name.
    pub scenario: String,
    /// Cell + stream identity.
    pub meta: RunMeta,
    /// Ops executed in the measured phase, by class.
    pub op_counts: OpCounts,
    /// Entries streamed by scan ops (and the drain phase).
    pub scanned_entries: u64,
    /// Block transfers etc. during prefill (zeros for memory backends).
    pub io_prefill: IoStats,
    /// Block transfers etc. during the measured phase.
    pub io_run: IoStats,
    /// Counts of the `--reopen` phase, when requested (file cells
    /// only). Optional, so trajectories with and without the phase keep
    /// one run identity.
    pub reopen: Option<ReopenReport>,
}

/// Batch size for prefill `insert_batch` runs.
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

/// Executes `scenario` against `db`: prefills (its I/O is reported as
/// its own phase), then runs `meta.ops` operations, counting each by
/// class. `meta.dist` must name the distribution actually passed in
/// `dist` — the CLI guarantees this; tests construct both from the same
/// value.
pub fn run(scenario: &Scenario, dist: KeyDist, meta: RunMeta, db: &mut Db) -> ScenarioReport {
    // Phase 1: prefill.
    for chunk in prefill_run(dist, meta.prefill, prefill_seed(meta.seed)).chunks(CHUNK) {
        db.insert_batch(chunk);
    }
    let io_prefill = db.io().take();

    // Phase 2: the measured op stream.
    let mut op_counts = OpCounts::default();
    let mut scanned = 0u64;
    for op in OpStream::new(mix_of(scenario.kind), dist, meta.seed).take(meta.ops as usize) {
        op_counts.count(&op);
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
    }

    // Phase 2b (insert_then_drain): stream everything back out.
    if scenario.kind == ScenarioKind::InsertThenDrain {
        let mut cur = db.cursor(0, u64::MAX);
        while let Some(kv) = cur.next() {
            std::hint::black_box(kv);
            scanned += 1;
        }
    }

    let io_run = db.io().take();
    ScenarioReport {
        scenario: scenario.name.to_string(),
        meta,
        op_counts,
        scanned_entries: scanned,
        io_prefill,
        io_run,
        reopen: None,
    }
}

/// Key draws of the `--reopen` phase; it reads each distinct key once.
pub const REOPEN_SAMPLES: u64 = 2000;

/// The `--reopen` cold-start phase: commits `db` durably, drops every
/// piece of process state (handle and user-space page caches), reopens
/// the store from its files via `builder`, and counts the hits and I/O
/// of cold point reads of the distinct keys among [`REOPEN_SAMPLES`]
/// draws from the run's key distribution (the regenerated prefill stream
/// — real hits whenever the scenario prefills). Consumes and returns the
/// database so the caller keeps control of file cleanup.
pub fn run_reopen(
    builder: cosbt::DbBuilder,
    db: Db,
    dist: KeyDist,
    seed: u64,
) -> Result<(ReopenReport, Db), String> {
    let mut db = db;
    db.sync().map_err(|e| format!("sync before reopen: {e}"))?;
    drop(db);

    let mut db = builder.open().map_err(|e| format!("reopen: {e}"))?;
    db.io().reset();
    let mut hits = 0u64;
    for (k, _) in prefill_run(dist, REOPEN_SAMPLES, prefill_seed(seed)) {
        if std::hint::black_box(db.get(k)).is_some() {
            hits += 1;
        }
    }
    let io = db.io().take();
    Ok((ReopenReport { hits, io }, db))
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
        let o = &self.op_counts;
        let run = Json::obj()
            .with("meta", self.meta.to_json())
            .with(
                "op_counts",
                Json::obj()
                    .with("get", o.get.into())
                    .with("insert", o.insert.into())
                    .with("delete", o.delete.into())
                    .with("scan", o.scan.into())
                    .with("trim", o.trim.into()),
            )
            .with("scanned_entries", self.scanned_entries.into())
            .with(
                "io",
                Json::obj()
                    .with("prefill", io_json(&self.io_prefill))
                    .with("run", io_json(&self.io_run)),
            );
        match &self.reopen {
            Some(r) => run.with(
                "reopen",
                Json::obj()
                    .with("hits", r.hits.into())
                    .with("io", io_json(&r.io)),
            ),
            None => run,
        }
    }

    /// Human console summary.
    pub fn print(&self) {
        println!(
            "{:<18} {:<24} transfers {:>8} (prefill {:>8})  scanned {:>8}",
            self.scenario,
            self.meta.label,
            self.io_run.transfers(),
            self.io_prefill.transfers(),
            self.scanned_entries,
        );
    }
}

/// Header of the `BENCH_*.csv` companion files.
pub fn csv_header() -> &'static str {
    "scenario,structure,backend,shards,dist,ops,prefill,seed,prefill_transfers,run_transfers"
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
/// cells.
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
    let density = meta
        .and_then(|m| m.get("pointer_density"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
        s("structure"),
        s("label"),
        s("backend"),
        n("shards"),
        n("cache_bytes"),
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
            "{},{},{},{},{},{},{},{},{},{}",
            scenario,
            ms("structure"),
            ms("backend"),
            mn("shards"),
            ms("dist"),
            mn("ops"),
            mn("prefill"),
            mn("seed"),
            io("prefill"),
            io("run"),
        );
    }
    out
}

/// The fields of a run row, as paths, that [`compare_documents`] holds
/// to the baseline's exactly.
pub const EXACT_FIELDS: [&[&str]; 5] = [
    &["io", "prefill"],
    &["reopen", "io"],
    &["reopen", "hits"],
    &["op_counts"],
    &["scanned_entries"],
];

/// One regression (or note) found by [`compare_documents`].
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
/// seed)` — same code, same count — so they gate exactly: any rise in a
/// run's `io.run.transfers` fails, and any fall is a note (refresh the
/// baseline to keep the gain). The rest of a row is as deterministic, and
/// nothing about it is better one way than the other, so each of
/// [`EXACT_FIELDS`] must equal the baseline's; a field that differs fails
/// by name. Runs missing from the baseline are notes, so adding a new
/// cell never breaks the gate.
pub fn compare_documents(current: &Json, baseline: &Json) -> Vec<Finding> {
    let (cur_v, base_v) = (
        current.get("schema_version").and_then(Json::as_u64),
        baseline.get("schema_version").and_then(Json::as_u64),
    );
    if cur_v != Some(SCHEMA_VERSION) || base_v != Some(SCHEMA_VERSION) {
        return vec![Finding {
            message: format!(
                "schema mismatch: current {cur_v:?}, baseline {base_v:?}, tool expects \
                 {SCHEMA_VERSION} — refresh the baseline"
            ),
            fails: true,
        }];
    }
    let empty: &[Json] = &[];
    let base_runs = baseline.get("runs").and_then(Json::as_arr).unwrap_or(empty);
    let cur_runs = current.get("runs").and_then(Json::as_arr).unwrap_or(empty);
    let transfers = |r: &Json| -> u64 {
        r.get("io")
            .and_then(|io| io.get("run"))
            .and_then(|p| p.get("transfers"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let mut findings = Vec::new();
    for cur in cur_runs {
        let id = run_identity(cur);
        let label = cur
            .get("meta")
            .and_then(|m| m.get("label"))
            .and_then(Json::as_str)
            .unwrap_or("?");
        let Some(base) = base_runs.iter().find(|r| run_identity(r) == id) else {
            findings.push(Finding {
                message: format!("{label}: no baseline run (new cell?) — skipped"),
                fails: false,
            });
            continue;
        };
        let (ct, bt) = (transfers(cur), transfers(base));
        if ct != bt {
            findings.push(Finding {
                message: format!(
                    "{label}: block transfers {} {bt} → {ct}",
                    if ct > bt { "regressed" } else { "improved" }
                ),
                fails: ct > bt,
            });
        }
        for path in EXACT_FIELDS {
            let field = |r: &Json| path.iter().try_fold(r, |j, k| j.get(k)).cloned();
            if field(cur) != field(base) {
                findings.push(Finding {
                    message: format!("{label}: {} differs from the baseline's", path.join(".")),
                    fails: true,
                });
            }
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
            assert_eq!(
                report.op_counts.total(),
                2000,
                "{}: every op ran",
                scenario.name
            );
            let mix = mix_of(scenario.kind);
            let c = report.op_counts;
            for (class, weight, count) in [
                ("get", mix.get + mix.neg_get, c.get),
                ("insert", mix.insert, c.insert),
                ("delete", mix.delete, c.delete),
                ("scan", mix.scan, c.scan),
                ("trim", mix.trim, c.trim),
            ] {
                assert_eq!(
                    weight > 0,
                    count > 0,
                    "{}: {class} ran iff the mix weights it",
                    scenario.name
                );
            }
            if scenario.kind == ScenarioKind::InsertThenDrain {
                assert!(
                    report.scanned_entries > 0,
                    "{}: drain streamed entries",
                    scenario.name
                );
            }
            let j = report.to_json();
            assert_eq!(
                j.get("op_counts").unwrap().get("insert").unwrap().as_u64(),
                Some(c.insert)
            );
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
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION)
        );
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

        // Identical baseline: no finding at all.
        let findings = compare_documents(&current, &current);
        assert!(findings.is_empty(), "{findings:?}");

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
        let baseline = inflate(&current, 100);
        let findings = compare_documents(&inflate(&current, 100), &baseline);
        assert!(findings.is_empty(), "{findings:?}");
        // One extra transfer fails.
        let findings = compare_documents(&inflate(&current, 101), &baseline);
        assert!(
            findings.iter().any(|f| f.fails),
            "one transfer over the baseline must fail: {findings:?}"
        );
        // One fewer is a note.
        let findings = compare_documents(&inflate(&current, 99), &baseline);
        assert!(findings.iter().all(|f| !f.fails), "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("improved")));
        // Missing baseline run: a note.
        let empty = Json::obj()
            .with("schema_version", SCHEMA_VERSION.into())
            .with("scenario", "balanced".into())
            .with("runs", Json::Arr(vec![]));
        let findings = compare_documents(&current, &empty);
        assert!(findings.iter().all(|f| !f.fails), "{findings:?}");
        // Schema mismatch: hard failure.
        let old = Json::obj().with("schema_version", 999u64.into());
        assert!(compare_documents(&current, &old)[0].fails);
        // Every exactly gated field: a row that differs there alone fails,
        // naming the field, whichever way it moved.
        fn set(j: &Json, path: &[&str], value: Json) -> Json {
            match path {
                [] => value,
                [k, rest @ ..] => {
                    let inner = j.get(k).cloned().unwrap_or_else(Json::obj);
                    j.clone().with(k, set(&inner, rest, value))
                }
            }
        }
        let edit = |doc: &Json, path: &[&str], value: u64| -> Json {
            let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
            let runs = runs.iter().map(|r| set(r, path, value.into())).collect();
            doc.clone().with("runs", Json::Arr(runs))
        };
        let baseline = inflate(&current, 100);
        for path in EXACT_FIELDS {
            let name = path.join(".");
            let base = edit(&baseline, path, 4);
            assert!(compare_documents(&base, &base).is_empty(), "{name}");
            for value in [3, 5] {
                let findings = compare_documents(&edit(&baseline, path, value), &base);
                assert!(
                    findings.len() == 1 && findings[0].fails && findings[0].message.contains(&name),
                    "{name} at {value} against 4: {findings:?}"
                );
            }
        }
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

//! `bench` — the scenario benchmark CLI: one entry point to run mixed
//! workloads against any cell of the configuration matrix, maintain the
//! `BENCH_*.json` trajectory, gate on regressions, and regenerate the
//! paper's figures.
//!
//! ```text
//! bench list
//! bench run --scenario balanced --structure gcola --shards 2
//! bench run --scenario read_heavy --structure btree --backend file --n 50000
//! bench compare --current results --baseline results/baseline
//! bench figures fig2 deamort        # the paper's figure sweeps
//! ```
//!
//! `run` writes a schema-versioned `BENCH_<scenario>.json` (runs keyed by
//! cell identity are replaced; other cells' results survive, so the file
//! accumulates a trajectory) plus a companion CSV. `compare` diffs every
//! `BENCH_*.json` in `--current` against the same file in `--baseline`
//! and exits nonzero when any cell's run-phase transfers exceed the
//! baseline's — the CI transfer gate. Invoke via
//! `cargo run --release -p cosbt-bench --bin bench -- <args>`.

use std::path::PathBuf;
use std::process::ExitCode;

use cosbt::{Backend, Db, DbBuilder, Structure};
use cosbt_bench::json::{self, Json};
use cosbt_bench::measure::{results_dir, write_atomic};
use cosbt_bench::scaled;
use cosbt_bench::scenario::{
    compare_documents, csv_from_document, merge_document, run, run_reopen, RunMeta, Scenario,
    REOPEN_SAMPLES, SCENARIOS,
};
use cosbt_bench::workloads::KeyDist;

/// The paper experiments `bench figures` dispatches to (each is a
/// standalone bench target, so `cargo bench` regenerates them too).
const EXPERIMENTS: &[(&str, &str, &str)] = &[
    (
        "fig2",
        "fig2_random_inserts",
        "Figure 2: random inserts, COLAs vs B-tree (E1)",
    ),
    (
        "fig3",
        "fig3_sorted_inserts",
        "Figure 3: sorted inserts (E2)",
    ),
    ("fig4", "fig4_searches", "Figure 4: random searches (E3)"),
    (
        "fig5",
        "fig5_insert_patterns",
        "Figure 5: insert patterns (E4)",
    ),
    (
        "bounds-cola",
        "bounds_cola",
        "E6: COLA transfer bounds (Lemmas 19/20)",
    ),
    (
        "bounds-baselines",
        "bounds_baselines",
        "E7: B-tree & BRT bounds",
    ),
    (
        "tradeoff",
        "bounds_tradeoff",
        "E8: B^eps growth-factor tradeoff",
    ),
    (
        "deamort",
        "deamort_worst_case",
        "E9: deamortized worst case (Thm 22)",
    ),
    (
        "shuttle",
        "bounds_shuttle",
        "E10: shuttle tree layout & inserts",
    ),
    ("batch", "bounds_batch", "E12: batched vs per-key ingest"),
    ("shards", "bounds_shards", "E13: sharded ingest scaling"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench <command>\n\
         \n\
         commands:\n\
         \x20 list                         scenarios, structures, experiments\n\
         \x20 run [options]                execute one scenario × cell, update BENCH_*.json\n\
         \x20 compare [options]            diff BENCH_*.json against a baseline (transfer gate)\n\
         \x20 figures <exp>...|all         regenerate the paper's figure sweeps\n\
         \n\
         run options:\n\
         \x20 --scenario NAME              {} (required)\n\
         \x20 --structure NAME             gcola | basic | deamortized | btree | brt | shuttle\n\
         \x20                              (default gcola)\n\
         \x20 --g N | --c N                growth factor / fanout (default 4)\n\
         \x20 --shards N                   shard count (default 1)\n\
         \x20 --backend mem|file           storage backend (default mem)\n\
         \x20 --direct                     open the file backend with O_DIRECT (bypasses the\n\
         \x20                              kernel page cache; falls back to buffered with a\n\
         \x20                              warning where unsupported)\n\
         \x20 --cache-bytes N              file-backend page-cache budget (default 16 MiB)\n\
         \x20 --dist NAME                  uniform | zipfian | ascending | timeseries |\n\
         \x20                              shifting_hotspot\n\
         \x20 --n N                        measured ops (default {} / COSBT_SCALE=full {})\n\
         \x20 --scale quick|full|huge      n preset; huge = {} ops, out-of-core (cache << data)\n\
         \x20 --prefill N                  prefill ops (default: scenario fraction of n)\n\
         \x20 --seed N                     workload seed (default 42)\n\
         \x20 --reopen                     cold-start phase: sync, drop all process state,\n\
         \x20                              reopen from the files, count the hits and\n\
         \x20                              transfers of cold reads of {} key draws (file only)\n\
         \x20 --out DIR                    artifact directory (default results/)\n\
         \n\
         compare options:\n\
         \x20 --current DIR                directory of fresh BENCH_*.json (default results/)\n\
         \x20 --baseline DIR               checked-in baseline (default results/baseline/)",
        SCENARIOS
            .iter()
            .map(|s| s.name)
            .collect::<Vec<_>>()
            .join(" | "),
        DEFAULT_N_QUICK,
        DEFAULT_N_FULL,
        DEFAULT_N_HUGE,
        REOPEN_SAMPLES,
    );
    ExitCode::from(2)
}

const DEFAULT_N_QUICK: u64 = 100_000;
const DEFAULT_N_FULL: u64 = 2_000_000;
/// `--scale huge`: the out-of-core tier. At ~32 bytes per resident
/// entry this puts the dataset an order of magnitude past the default
/// 16 MiB page-cache budget, so the DAM cache actually evicts.
const DEFAULT_N_HUGE: u64 = 10_000_000;

/// `--key value` and bare-flag argument scanner.
struct Args {
    argv: Vec<String>,
}

impl Args {
    fn opt(&mut self, key: &str) -> Option<String> {
        let i = self.argv.iter().position(|a| a == key)?;
        if i + 1 >= self.argv.len() {
            eprintln!("{key} needs a value");
            std::process::exit(2);
        }
        self.argv.remove(i);
        Some(self.argv.remove(i))
    }

    fn flag(&mut self, key: &str) -> bool {
        if let Some(i) = self.argv.iter().position(|a| a == key) {
            self.argv.remove(i);
            true
        } else {
            false
        }
    }

    fn num(&mut self, key: &str) -> Option<u64> {
        self.opt(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{key} expects a number, got '{v}'");
                std::process::exit(2);
            })
        })
    }

    fn finish(&self, command: &str) {
        if let Some(stray) = self.argv.first() {
            eprintln!("unknown argument for {command}: {stray}");
            std::process::exit(2);
        }
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage();
    }
    let command = argv.remove(0);
    let mut args = Args { argv };
    match command.as_str() {
        "list" => {
            list();
            args.finish("list");
            ExitCode::SUCCESS
        }
        "run" => cmd_run(&mut args),
        "compare" => cmd_compare(&mut args),
        "figures" => cmd_figures(args),
        _ => usage(),
    }
}

fn list() {
    println!("scenarios:");
    for s in SCENARIOS {
        println!("  {:<18} {}", s.name, s.about);
    }
    println!("\nstructures: gcola (--g), basic, deamortized, btree, brt, shuttle (--c); modifiers: --shards N, --backend mem|file [--direct]");
    println!("\nfigure experiments:");
    for (name, _, desc) in EXPERIMENTS {
        println!("  {name:<18} {desc}");
    }
}

/// One structure × backend × shards cell, as parsed from `run` flags.
struct CellSpec {
    structure: String,
    param: usize,
    shards: usize,
    backend: String,
    direct: bool,
    cache_bytes: usize,
}

impl CellSpec {
    fn from_args(args: &mut Args) -> CellSpec {
        let mut backend = args.opt("--backend").unwrap_or_else(|| "mem".into());
        let mut direct = args.flag("--direct");
        // `--backend file-direct` is the one-flag spelling of
        // `--backend file --direct` (matches the cell label in JSON).
        if backend == "file-direct" {
            backend = "file".into();
            direct = true;
        }
        CellSpec {
            structure: args.opt("--structure").unwrap_or_else(|| "gcola".into()),
            param: args.num("--g").or_else(|| args.num("--c")).unwrap_or(4) as usize,
            shards: args.num("--shards").unwrap_or(1) as usize,
            backend,
            direct,
            cache_bytes: args.num("--cache-bytes").unwrap_or(16 * 1024 * 1024) as usize,
        }
    }
}

/// A `Db` plus its builder (for the `--reopen` phase) and the file paths
/// to unlink when the run is done.
struct BuiltCell {
    db: Db,
    builder: DbBuilder,
    cleanup: Vec<PathBuf>,
}

/// Builds the cell `spec` names; a file cell gets a scratch store named
/// by the process id.
fn build_cell(spec: &CellSpec) -> Result<BuiltCell, String> {
    let s = match spec.structure.as_str() {
        "gcola" => Structure::GCola { g: spec.param },
        "basic" => Structure::BasicCola,
        "deamortized" => Structure::DeamortizedCola,
        "btree" => Structure::BTree,
        "brt" => Structure::Brt,
        "shuttle" => Structure::Shuttle { c: spec.param },
        other => return Err(format!("unknown structure '{other}'")),
    };
    let mut b = DbBuilder::new()
        .structure(s)
        .shards(spec.shards)
        .cache_bytes(spec.cache_bytes);
    match spec.backend.as_str() {
        "file" => {
            // Scratch data lives under the system temp dir, never under
            // --out: the artifact directory (possibly the checked-in
            // results/baseline/) must only ever receive BENCH_* files.
            let dir = std::env::temp_dir().join("cosbt-bench-data");
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let path = dir.join(format!("cell-{}.dat", std::process::id()));
            b = b.backend(if spec.direct {
                Backend::file_direct(path)
            } else {
                Backend::file(path)
            });
        }
        "mem" => {
            if spec.direct {
                return Err(
                    "--direct needs --backend file (O_DIRECT is a file-device mode)".into(),
                );
            }
        }
        other => {
            return Err(format!(
                "unknown backend '{other}' (mem | file | file-direct)"
            ))
        }
    }
    let cleanup = b.data_paths();
    let db = b.clone().build().map_err(|e| e.to_string())?;
    Ok(BuiltCell {
        db,
        builder: b,
        cleanup,
    })
}

fn cmd_run(args: &mut Args) -> ExitCode {
    let Some(scenario_name) = args.opt("--scenario") else {
        eprintln!("run needs --scenario");
        return usage();
    };
    let Some(scenario) = Scenario::by_name(&scenario_name) else {
        eprintln!(
            "unknown scenario '{scenario_name}'; known: {}",
            SCENARIOS
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    };
    let spec = CellSpec::from_args(args);
    let n = match args.opt("--scale") {
        Some(scale) => match scale.as_str() {
            "quick" => DEFAULT_N_QUICK,
            "full" => DEFAULT_N_FULL,
            // The out-of-core tier: with the default 16 MiB cache the
            // working set is an order of magnitude past memory.
            "huge" => DEFAULT_N_HUGE,
            other => {
                eprintln!("unknown --scale '{other}' (quick | full | huge)");
                return ExitCode::from(2);
            }
        },
        None => scaled(DEFAULT_N_QUICK, DEFAULT_N_FULL),
    };
    let n = args.num("--n").unwrap_or(n);
    let prefill = args
        .num("--prefill")
        .unwrap_or((n as f64 * scenario.prefill_frac) as u64);
    let seed = args.num("--seed").unwrap_or(42);
    let reopen = args.flag("--reopen");
    let out = args
        .opt("--out")
        .map(PathBuf::from)
        .unwrap_or_else(results_dir);
    let dist = match args.opt("--dist") {
        Some(name) => match KeyDist::by_name(&name, (n / 4).max(16)) {
            Some(d) => d,
            None => {
                eprintln!(
                    "unknown dist '{name}' (uniform | zipfian | ascending | timeseries | \
                     shifting_hotspot)"
                );
                return ExitCode::from(2);
            }
        },
        None => scenario.dist_for(n),
    };
    args.finish("run");
    if reopen && spec.backend != "file" {
        eprintln!("--reopen needs --backend file (a memory cell has nothing to reopen)");
        return ExitCode::from(2);
    }

    let built = match build_cell(&spec) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot build cell: {e}");
            return ExitCode::from(2);
        }
    };
    let mut db = built.db;
    let meta = RunMeta::for_cell(&spec.structure, db.config(), dist, n, prefill, seed);
    println!(
        "running scenario '{}' on {} ({} backend, n = {n}, prefill = {prefill}, seed = {seed})",
        scenario.name, meta.label, meta.backend,
    );
    let mut report = run(scenario, dist, meta, &mut db);
    report.print();
    let reopen_result = if reopen {
        match run_reopen(built.builder.clone(), db, dist, seed) {
            Ok((cold, reopened)) => {
                println!(
                    "reopen: cold reads of {REOPEN_SAMPLES} key draws, {} hits, transfers {}",
                    cold.hits,
                    cold.io.transfers(),
                );
                report.reopen = Some(cold);
                drop(reopened);
                Ok(())
            }
            Err(e) => Err(e),
        }
    } else {
        // Scratch cell, files unlinked below: skip the sync-on-drop
        // commit (quiesce + fsync) that durability would otherwise pay.
        db.discard_on_drop();
        drop(db);
        Ok(())
    };
    // Scratch files go away on success *and* failure — a failed reopen
    // phase must not leak the cell's store files into the temp dir.
    for path in built.cleanup {
        // Best-effort temp-dir hygiene; the file may be gone already.
        let _ = std::fs::remove_file(path);
    }
    if let Err(e) = reopen_result {
        eprintln!("reopen phase failed: {e}");
        return ExitCode::FAILURE;
    }

    // Merge into the trajectory and write both artifacts atomically.
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let json_path = out.join(format!("BENCH_{}.json", scenario.name));
    let existing = match std::fs::read_to_string(&json_path) {
        Ok(text) => match json::parse(&text) {
            Ok(doc) => Some(doc),
            Err(e) => {
                eprintln!(
                    "warning: {} is not valid JSON ({e}); starting a fresh trajectory",
                    json_path.display()
                );
                None
            }
        },
        Err(_) => None,
    };
    let doc = merge_document(scenario.name, existing.as_ref(), &[report.to_json()]);
    if let Err(e) = write_atomic(&json_path, &doc.to_pretty()) {
        eprintln!("cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    let csv_path = out.join(format!("BENCH_{}.csv", scenario.name));
    if let Err(e) = write_atomic(&csv_path, &csv_from_document(&doc)) {
        eprintln!("cannot write {}: {e}", csv_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} runs) and {}",
        json_path.display(),
        doc.get("runs")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len),
        csv_path.display()
    );
    ExitCode::SUCCESS
}

fn cmd_compare(args: &mut Args) -> ExitCode {
    let current_dir = args
        .opt("--current")
        .map(PathBuf::from)
        .unwrap_or_else(results_dir);
    let baseline_dir = args
        .opt("--baseline")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("baseline"));
    args.finish("compare");

    let mut bench_files: Vec<PathBuf> = match std::fs::read_dir(&current_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("cannot read {}: {e}", current_dir.display());
            return ExitCode::from(2);
        }
    };
    bench_files.sort();
    if bench_files.is_empty() {
        eprintln!(
            "no BENCH_*.json in {} — run `bench run` first",
            current_dir.display()
        );
        return ExitCode::from(2);
    }

    let mut failed = false;
    for current_path in bench_files {
        let name = current_path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .to_string();
        let baseline_path = baseline_dir.join(&name);
        let current = match std::fs::read_to_string(&current_path)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
        {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{name}: unreadable current file: {e}");
                failed = true;
                continue;
            }
        };
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match json::parse(&text) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("{name}: unreadable baseline: {e}");
                    failed = true;
                    continue;
                }
            },
            Err(_) => {
                println!(
                    "{name}: no baseline at {} — skipped",
                    baseline_path.display()
                );
                continue;
            }
        };
        let findings = compare_documents(&current, &baseline);
        if findings.is_empty() {
            println!("{name}: ok (transfers equal to the baseline's)");
        }
        for f in findings {
            if f.fails {
                eprintln!("{name}: REGRESSION: {}", f.message);
                failed = true;
            } else {
                println!("{name}: note: {}", f.message);
            }
        }
    }
    if failed {
        eprintln!("\ntransfer gate failed (refresh results/baseline/ with tools/bench-cells.sh if the change is intentional)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_figures(args: Args) -> ExitCode {
    let names = args.argv;
    if names.is_empty() || names[0] == "list" {
        eprintln!("usage: bench figures <experiment>... | all  (see `bench list`)");
        return ExitCode::from(2);
    }
    let selected: Vec<&(&str, &str, &str)> = if names.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in &names {
            match EXPERIMENTS.iter().find(|(name, _, _)| name == a) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("unknown experiment: {a} (see `bench list`)");
                    return ExitCode::from(2);
                }
            }
        }
        sel
    };
    for (name, bench, desc) in selected {
        println!("\n======== {name}: {desc} ========");
        let status = std::process::Command::new(env!("CARGO"))
            .args(["bench", "-p", "cosbt-bench", "--bench", bench])
            .status()
            .expect("failed to spawn cargo bench");
        if !status.success() {
            eprintln!("{name} failed");
            return ExitCode::FAILURE;
        }
    }
    println!("\nCSV outputs are under results/.");
    ExitCode::SUCCESS
}

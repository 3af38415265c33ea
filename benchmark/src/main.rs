//! The repository's benchmark. See `README.md` beside this package.
//!
//! ```text
//! cosbt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! cosbt-benchmark run   --seed <n> --out <dir>
//! cosbt-benchmark trace --seed <n> --out <dir>
//! cosbt-benchmark agree <dirA> <dirB> [--spec <BENCHMARK.json>]
//! ```

mod agree;
mod gen;
mod hist;
mod json;
mod metrics;
mod scratch;
mod stack;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use metrics::{Def, END_TO_END, PER_LAYER};
use workloads::{Opts, Outcome, Sizes, NAMES};

/// `run_seconds` of `BENCHMARK.json` (a unit test holds the two
/// together): the length of every workload of `run` and `trace`.
pub const RUN_SECONDS: u32 = 20;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => all_workloads(&args[1..], false),
        Some("trace") => all_workloads(&args[1..], true),
        Some("agree") => agree_cmd(&args[1..]),
        Some(a) if a.starts_with("--") => one_workload(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  cosbt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  cosbt-benchmark run   --seed <n> --out <dir>
  cosbt-benchmark trace --seed <n> --out <dir>
  cosbt-benchmark agree <dirA> <dirB> [--spec <BENCHMARK.json>]
workloads: ingest_ooc read_ooc mixed_mem contended_rw";

/// `--flag value` pairs; anything else is an error.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").filter(|n| known.contains(n));
        let (Some(name), Some(value)) = (name, it.next()) else {
            return Err(format!("unexpected argument '{flag}'\n{USAGE}"));
        };
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn need<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Result<T, String> {
    let text = flag(flags, name).ok_or_else(|| format!("missing --{name}\n{USAGE}"))?;
    text.parse()
        .map_err(|_| format!("bad value for --{name}: '{text}'"))
}

/// One workload in this process: the form the driver calls.
fn one_workload(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let workload: String = need(&f, "workload")?;
    let seed: u64 = need(&f, "seed")?;
    let seconds: f64 = need(&f, "seconds")?;
    let trace = match need::<u8>(&f, "trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], not {seconds}"));
    }
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {NAMES:?})"));
    }
    let out_dir = flag(&f, "out").map(PathBuf::from);

    let sizes = Sizes::standard();
    let scratch = scratch::Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    scratch
        .require_free(4 * sizes.largest_store_bytes())
        .map_err(|e| e.to_string())?;
    let opts = Opts {
        seed,
        seconds,
        trace,
        sizes: &sizes,
        scratch: &scratch,
        clock: trace::Clock::start(),
    };
    let out = workloads::run(&workload, &opts)?;
    drop(scratch);

    let unknown = out.values.unknown_names();
    assert!(
        unknown.is_empty(),
        "values outside the metric tables: {unknown:?}"
    );
    let correct = out.failed == 0 && out.errors.is_empty();
    let defs = if trace { PER_LAYER } else { END_TO_END };
    print_table(&workload, seed, seconds, trace, &out, defs);
    if let Some(dir) = out_dir {
        write_results(&dir, &workload, seed, seconds, trace, correct, &out)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    for e in &out.errors {
        eprintln!("error: {e}");
    }
    let mut last = Json::obj();
    last.set("correct", correct)
        .set("attempted", out.attempted)
        .set("failed", out.failed)
        .set("metrics", out.values.json(defs, true));
    println!("{}", last.line());
    Ok(correct)
}

fn print_table(workload: &str, seed: u64, seconds: f64, trace: bool, out: &Outcome, defs: &[Def]) {
    println!(
        "workload {workload}  seed {seed}  seconds {seconds}  trace {}",
        trace as u8
    );
    for (k, v) in out.info.fields() {
        println!("  {k}: {}", v.line());
    }
    println!("  checked {} answers, {} wrong", out.attempted, out.failed);
    // Everything measured, table order; with --trace 0 that includes
    // the end-to-end metrics only some workloads have.
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let listed = defs.iter().any(|l| l.name == d.name);
        let Some(v) = out.values.get(d.name).or(listed.then_some(metrics::Value {
            value: 0.0,
            spread: None,
        })) else {
            continue;
        };
        let spread = v
            .spread
            .map_or(String::new(), |s| format!("  (pass spread {s:.4})"));
        println!(
            "{:<32} {:>18.6} {:<6} {} is better{spread}",
            d.name,
            v.value,
            d.unit,
            d.better.name()
        );
    }
}

fn write_results(
    dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    correct: bool,
    out: &Outcome,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let kind = if trace { "trace" } else { "run" };
    // An untraced run keeps every value it measured, from both tables;
    // a traced run its per-layer table (its end-to-end values come from
    // a shorter facade phase than an untraced run's).
    let tables = END_TO_END.iter().filter(|_| !trace).chain(PER_LAYER);
    let metrics = out.values.json(tables, false);
    let mut file = Json::obj();
    file.set("workload", workload)
        .set("seed", seed)
        .set("seconds", seconds)
        .set("trace", trace)
        .set("correct", correct)
        .set("attempted", out.attempted)
        .set("failed", out.failed)
        .set(
            "errors",
            Json::Arr(out.errors.iter().map(|e| e.as_str().into()).collect()),
        )
        .set("info", out.info.clone())
        .set("metrics", metrics);
    std::fs::write(dir.join(format!("{kind}_{workload}.json")), file.pretty())?;
    if let Some(jsonl) = &out.jsonl {
        std::fs::write(dir.join(format!("trace_{workload}.jsonl")), jsonl)?;
    }
    Ok(())
}

/// `run` / `trace`: the four workloads, one child process each, so a
/// workload's peak memory is its own.
fn all_workloads(args: &[String], trace: bool) -> Result<bool, String> {
    let f = flags(args, &["seed", "out"])?;
    let seed: u64 = need(&f, "seed")?;
    let out: String = need(&f, "out")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for w in NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &seed.to_string()])
            .args(["--seconds", &RUN_SECONDS.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--out", &out])
            .status()
            .map_err(|e| format!("could not start the {w} child: {e}"))?;
        all_ok &= status.success();
        println!();
    }
    Ok(all_ok)
}

fn agree_cmd(args: &[String]) -> Result<bool, String> {
    let (dirs, rest) = args.split_at(args.len().min(2));
    let [a, b] = dirs else {
        return Err(USAGE.to_string());
    };
    let f = flags(rest, &["spec"])?;
    let spec = match flag(&f, "spec") {
        Some(p) => PathBuf::from(p),
        None if Path::new("BENCHMARK.json").exists() => PathBuf::from("BENCHMARK.json"),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    };
    agree::agree(Path::new(a), Path::new(b), &spec)
}

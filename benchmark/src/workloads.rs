//! The four workloads: what runs, how it is timed, what is checked.
//!
//! A run is `ROUNDS` rounds. A round sets everything up from the seed
//! (inputs, store, prefill), then runs a fixed number of identical
//! passes of the same op stream: one pass per second of `--seconds`
//! over the whole run, whatever a pass turns out to take, so the
//! statistic does not depend on the speed of what it measures. Every
//! count must be identical in every pass or the run fails, so what
//! differs between passes is the machine, not the program: throughput
//! and the latency percentiles are those of the **fastest pass** — the
//! one the rest of the machine disturbed least — and how much slower the
//! lower-quartile pass and the median pass were is recorded beside them.
//! (The 2-vCPU sandbox the benchmark was sized on switches, every ten
//! seconds or so, between a state in which a pass takes its usual time
//! and one in which it takes half as much again; the share of a run's
//! passes that fall in the slow state went from none to all between
//! back-to-back runs of one binary, and the median pass with it, while
//! the fastest pass stayed within a few percent.)
//! Set-up and reopen times are medians over rounds; the `tail.*` values
//! pool every timed call of the run. Checks (answers against the
//! benchmark's own model, the final contents) are made after each pass,
//! outside the timed region.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::gen::{self, Answers, ContendedInputs, LoadedInputs, Op, Rng, NONE};
use crate::hist::{median, Hist};
use crate::json::Json;
use crate::metrics::Values;
use crate::scratch::Scratch;
use crate::stack::{
    CoreCounts, DevCounts, Facade, FileSeam, IoCounts, Layers, MemSeam, OpenTimes, Stack, StoreCfg,
    Target, Traced, PAGE_BYTES,
};
use crate::trace::{Clock, Kind, SelfTime};

pub const NAMES: [&str; 4] = ["ingest_ooc", "read_ooc", "mixed_mem", "contended_rw"];

/// Bytes of one user entry (key + value): the unit of `write_amp` and
/// `space_amp`. A stored COLA cell is twice that.
const ENTRY_BYTES: u64 = 16;
/// Set-ups per untraced run: `setup_s` is their median. A traced run
/// sets up once per stack (it does not report `setup_s`).
const ROUNDS: u32 = 5;

/// Passes in each round of an untraced run: one pass per second asked
/// for over the run. The standard sizes make a pass, with the fresh store
/// before it and the checks after it, take about a second on the machine
/// the benchmark was sized on.
fn passes_per_round(seconds: f64) -> u32 {
    ((seconds / ROUNDS as f64).round() as u32).max(1)
}

/// Passes of each stack (facade, replica) in a traced run. A replica
/// pass takes up to three times a facade pass, so a third of a pass per
/// second each keeps a traced run about as long as an untraced one.
fn traced_passes(seconds: f64) -> u32 {
    ((seconds / 3.0).round() as u32).max(1)
}
const CELL_BYTES: usize = 32;

/// Final sizes. The issue's shapes are kept (mixes, cache:data ratios,
/// thread counts, flush points per pass, chunks per load); the op counts
/// are scaled so a pass, with the fresh store before it and the checks
/// after it, takes about a second on the 2-core machine the benchmark
/// was sized on, and a run fits the driver's time cap.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `ingest_ooc`: calls per pass; the cache is 1/32 of the cells written.
    pub ingest_ops: usize,
    pub ingest_syncs: usize,
    /// `read_ooc`: keys loaded, chunks they are loaded in, calls per pass,
    /// entries per scan; the cache is 1/32 of the cells loaded.
    pub read_keys: usize,
    pub read_chunks: usize,
    pub read_ops: usize,
    pub read_scan: u32,
    /// `mixed_mem`: keys prefilled, calls per pass (6 per prefilled key),
    /// zipf exponent, entries per scan.
    pub mixed_prefill: usize,
    pub mixed_ops: usize,
    pub mixed_scan: u32,
    pub theta: f64,
    /// `contended_rw`: keys prefilled (the cache is 1/8 of their cells),
    /// puts per batch, batches due per second, client gets before the
    /// writer starts.
    pub cont_prefill: usize,
    pub cont_batch: usize,
    pub cont_rate: f64,
    pub cont_warm_gets: usize,
    pub load_chunks: usize,
}

impl Sizes {
    pub fn standard() -> Sizes {
        Sizes {
            ingest_ops: 1 << 18,
            ingest_syncs: 8,
            read_keys: 1 << 18,
            read_chunks: 64,
            read_ops: 1 << 15,
            read_scan: 128,
            mixed_prefill: 1 << 17,
            mixed_ops: 6 << 17,
            mixed_scan: 64,
            theta: 0.99,
            cont_prefill: 1 << 16,
            cont_batch: 256,
            cont_rate: 150.0,
            cont_warm_gets: 10_000,
            load_chunks: 16,
        }
    }

    fn ingest_cache(&self) -> usize {
        self.ingest_ops * CELL_BYTES / 32
    }

    fn read_cache(&self) -> usize {
        self.read_keys * CELL_BYTES / 32
    }

    fn cont_cache(&self) -> usize {
        self.cont_prefill * CELL_BYTES / 8
    }

    /// Bytes of the largest store any workload grows, for the free-space
    /// check: `read_ooc`'s load, with the COLA's slack levels and shadow
    /// pages allowed for.
    pub fn largest_store_bytes(&self) -> u64 {
        (self.read_keys.max(self.ingest_ops) * CELL_BYTES * 4) as u64
    }

    fn json(&self, workload: &str) -> Json {
        let mut o = Json::obj();
        match workload {
            "ingest_ooc" => o
                .set("ops_per_pass", self.ingest_ops as u64)
                .set("syncs_per_pass", self.ingest_syncs as u64)
                .set("cache_bytes", self.ingest_cache() as u64),
            "read_ooc" => o
                .set("keys", self.read_keys as u64)
                .set("load_chunks", self.read_chunks as u64)
                .set("ops_per_pass", self.read_ops as u64)
                .set("scan_len", self.read_scan as u64)
                .set("cache_bytes", self.read_cache() as u64),
            "mixed_mem" => o
                .set("prefill", self.mixed_prefill as u64)
                .set("ops_per_pass", self.mixed_ops as u64)
                .set("scan_len", self.mixed_scan as u64)
                .set("zipf_theta", self.theta),
            _ => o
                .set("prefill", self.cont_prefill as u64)
                .set("batch_puts", self.cont_batch as u64)
                .set("batches_per_s", self.cont_rate)
                .set("cache_bytes", self.cont_cache() as u64)
                .set("zipf_theta", self.theta),
        };
        o.set("page_bytes", PAGE_BYTES as u64)
            .set("meta_slot_bytes", crate::stack::META_SLOT_BYTES as u64);
        o
    }
}

pub struct Opts<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: &'a Sizes,
    pub scratch: &'a Scratch,
    pub clock: Clock,
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Breaches of the determinism guards; any one fails the run.
    pub errors: Vec<String>,
    pub values: Values,
    /// Sizes, pass counts, fingerprints: recorded with the result.
    pub info: Json,
    /// `trace_<workload>.jsonl`, from the fastest traced pass.
    pub jsonl: Option<String>,
}

pub fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let mut out = match workload {
        "ingest_ooc" => ingest_ooc(opts),
        "read_ooc" => read_ooc(opts),
        "mixed_mem" => mixed_mem(opts),
        "contended_rw" => contended_rw(opts),
        other => return Err(format!("unknown workload '{other}' (one of {NAMES:?})")),
    };
    out.values.set("peak_rss_mb", peak_rss_mb());
    out.info.set("sizes", opts.sizes.json(workload)).set(
        "threads_available",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
    );
    Ok(out)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

// ---------------------------------------------------------------------
// Single-client workloads.
// ---------------------------------------------------------------------

/// One pass as measured.
#[derive(Debug, Default)]
struct Pass {
    wall_ns: u64,
    /// Sum of the op spans (the rest of the wall is the load generator).
    span_ns: u64,
    /// Timed calls, flushes not counted.
    ops: u64,
    scan_entries: u64,
    scan_ns: u64,
    /// `insert`/`delete` calls, and the time inside them and the flushes.
    writes: u64,
    write_ns: u64,
    io: IoCounts,
    data_bytes: u64,
    lat: PassLat,
    layers: Option<Layers>,
}

/// `(p50, p99)` of one pass, by the percentile rule; 0 where the pass
/// made no such call.
#[derive(Debug, Default, Clone, Copy)]
struct PassLat {
    op: (f64, f64),
    write: (f64, f64),
    get: (f64, f64),
    /// p10 … p90 of every call, to show the shape behind `op_p50_ns`.
    op_deciles: [f64; 9],
}

fn p50_p99(h: &Hist) -> (f64, f64) {
    (
        h.percentile_or_highest(0.5).0,
        h.percentile_or_highest(0.99).0,
    )
}

/// What must repeat exactly from pass to pass.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    ops: u64,
    scan_entries: u64,
    io: IoCounts,
    core: Option<CoreCounts>,
    mem_calls: Option<u64>,
    dev: Option<[u64; 5]>,
}

impl Pass {
    fn fingerprint(&self) -> Fingerprint {
        let l = self.layers.as_ref();
        Fingerprint {
            ops: self.ops,
            scan_entries: self.scan_entries,
            io: self.io,
            core: l.map(|l| l.core),
            mem_calls: l.map(|l| l.rec.mem_calls),
            dev: l.map(|l| dev_counts(&l.dev)),
        }
    }
}

fn dev_counts(d: &DevCounts) -> [u64; 5] {
    [
        d.read.calls,
        d.read.bytes,
        d.write.calls,
        d.write.bytes,
        d.sync.calls,
    ]
}

/// Runs `ops` once against `t`, timing every call. Latencies are added
/// to `pool` by kind; answers go to `got`, in stream order.
fn run_pass<T: Target>(
    t: &mut T,
    ops: &[Op],
    clock: Clock,
    pool: &mut [Hist; 5],
    got: &mut Answers,
) -> Pass {
    got.clear();
    let mut lat: [Hist; 5] = Default::default();
    let io0 = t.io();
    let (mut span_ns, mut n_ops, mut scan_entries) = (0u64, 0u64, 0u64);
    let t0 = clock.now();
    for op in ops {
        let s = clock.now();
        let kind = match *op {
            Op::Insert { key, val } => {
                t.insert(key, val);
                Kind::Insert
            }
            Op::Delete { key } => {
                t.delete(key);
                Kind::Delete
            }
            Op::Get { key } => {
                got.gets.push(t.get(key).unwrap_or(NONE));
                Kind::Get
            }
            Op::Scan { lo, len } => {
                let r = t.scan(lo, len);
                scan_entries += r.0 as u64;
                got.scans.push(r);
                Kind::Scan
            }
            Op::Sync => {
                t.sync();
                Kind::Sync
            }
        };
        let e = clock.now();
        lat[kind.index()].record(e - s);
        span_ns += e - s;
        n_ops += (kind != Kind::Sync) as u64;
        t.op_done(kind, s, e);
    }
    let wall_ns = clock.now() - t0;
    let all = pooled(&lat, &CALLS);
    let writes = pooled(&lat, &WRITES);
    let pass_lat = PassLat {
        op: p50_p99(&all),
        op_deciles: std::array::from_fn(|i| all.percentile_or_highest((i + 1) as f64 / 10.0).0),
        write: p50_p99(&writes),
        get: p50_p99(&lat[Kind::Get.index()]),
    };
    for (all, this) in pool.iter_mut().zip(&lat) {
        all.merge(this);
    }
    Pass {
        wall_ns,
        span_ns,
        ops: n_ops,
        scan_entries,
        scan_ns: lat[Kind::Scan.index()].sum(),
        writes: writes.count(),
        write_ns: writes.sum() + lat[Kind::Sync.index()].sum(),
        io: t.io().since(&io0),
        data_bytes: 0,
        lat: pass_lat,
        layers: None,
    }
}

/// Positions where two answer lists disagree (a length mismatch counts
/// every missing position).
fn mismatches<A: PartialEq>(got: &[A], want: &[A]) -> u64 {
    let common = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (common + got.len().abs_diff(want.len())) as u64
}

/// The shape of one single-client workload.
struct Spec<'a> {
    inputs: &'a dyn Fn() -> LoadedInputs,
    cfg: StoreCfg,
    /// The passes only read (`read_ooc`): the round's store is loaded
    /// and committed once, and every pass starts by dropping the handle,
    /// opening the store again from its file and emptying the user-space
    /// cache, so each pass begins in the same state. Otherwise passes
    /// change the store and each starts from a freshly prepared one.
    reopen: bool,
}

/// One way of running a workload (facade or replica), all rounds.
#[derive(Debug, Default)]
struct Phase {
    passes: Vec<Pass>,
    lat: [Hist; 5],
    setup_s: Vec<f64>,
    /// Per round: the time to load the round's store (`insert_batch` per
    /// chunk, and the `sync` where the store is then reopened).
    load_s: Vec<f64>,
    loaded_entries: u64,
    opens: Vec<OpenTimes>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    final_entries: u64,
    stream_fnv: u64,
}

/// A store ready for a pass, how long opening it took, and how long
/// loading it took.
fn prepare<S: Stack>(spec: &Spec, inputs: &LoadedInputs, clock: Clock) -> (S, OpenTimes, f64) {
    let (mut st, mut times) = S::create(&spec.cfg, clock);
    let t = clock.now();
    for chunk in &inputs.load {
        st.insert_batch(chunk);
    }
    if spec.reopen {
        st.sync();
    }
    let load_s = secs(clock.now() - t);
    if spec.reopen {
        (st, times) = st.reopen(&spec.cfg, clock);
    }
    (st, times, load_s)
}

type Model = (Answers, Vec<(u64, u64)>);

fn run_phase<S: Stack>(
    spec: &Spec,
    opts: &Opts,
    rounds: u32,
    passes: u32,
    model: &mut Option<Model>,
) -> Phase {
    let clock = opts.clock;
    let mut phase = Phase::default();
    let mut got = Answers::default();
    for _ in 0..rounds {
        let r0 = clock.now();
        let inputs = (spec.inputs)();
        let (mut st, times, load_s) = prepare::<S>(spec, &inputs, clock);
        phase.setup_s.push(secs(clock.now() - r0));
        phase.load_s.push(load_s);
        phase.loaded_entries = inputs.load.iter().map(|c| c.len() as u64).sum();
        phase.opens.push(times);
        if phase.stream_fnv == 0 {
            phase.stream_fnv = gen::fnv64(&gen::stream_bytes(&inputs.ops));
        }
        let (want, want_final) =
            model.get_or_insert_with(|| gen::model_replay(&inputs.load, &inputs.ops));
        phase.final_entries = want_final.len() as u64;
        for pass_no in 1..=passes {
            if spec.reopen {
                st.drop_cache();
            }
            st.start_recording();
            let mut pass = run_pass(&mut st, &inputs.ops, clock, &mut phase.lat, &mut got);
            pass.layers = st.take_layers();
            pass.data_bytes = st.data_bytes();

            phase.attempted += (want.gets.len() + want.scans.len()) as u64;
            phase.failed += mismatches(&got.gets, &want.gets) + mismatches(&got.scans, &want.scans);
            if !spec.reopen || pass_no == 1 {
                phase.attempted += want_final.len() as u64;
                phase.failed += mismatches(&st.range_all(), want_final);
            }
            if let Some(p0) = phase.passes.first() {
                if p0.fingerprint() != pass.fingerprint() && phase.errors.is_empty() {
                    phase.errors.push(format!(
                        "counts differ between passes of one stream: {:?} vs {:?}",
                        p0.fingerprint(),
                        pass.fingerprint()
                    ));
                }
            }
            phase.passes.push(pass);
            if pass_no == passes {
                break;
            }
            if spec.reopen {
                let times;
                (st, times) = st.reopen(&spec.cfg, clock);
                phase.opens.push(times);
            } else {
                st.finish();
                (st, _, _) = prepare::<S>(spec, &inputs, clock);
            }
        }
        st.finish();
    }
    phase
}

fn pooled(lat: &[Hist; 5], kinds: &[Kind]) -> Hist {
    let mut h = Hist::default();
    for k in kinds {
        h.merge(&lat[k.index()]);
    }
    h
}

/// Percentile `p` by the benchmark's rule; a sample too thin for `p`
/// gives its highest supported percentile and a note in `info`.
fn pct(h: &Hist, p: f64, name: &str, info: &mut Json) -> f64 {
    let (v, used) = h.percentile_or_highest(p);
    if used != p && h.count() > 0 {
        info.set(&format!("{name}.percentile_used"), used);
    }
    v
}

fn set_pct(v: &mut Values, info: &mut Json, name: &'static str, h: &Hist, p: f64) {
    v.set(name, pct(h, p, name, info));
}

const WRITES: [Kind; 2] = [Kind::Insert, Kind::Delete];
const CALLS: [Kind; 4] = [Kind::Insert, Kind::Delete, Kind::Get, Kind::Scan];

/// The fastest pass, and the pass spread recorded beside its values: how
/// much slower the pass at the lower quartile was. A small spread says
/// that several passes ran as fast as the fastest, so the value is the
/// program's and not one lucky pass's.
fn fastest(passes: &[Pass]) -> (&Pass, f64) {
    let mut by_wall: Vec<&Pass> = passes.iter().collect();
    by_wall.sort_by_key(|p| p.wall_ns);
    let (best, near) = (by_wall[0], by_wall[by_wall.len() / 4]);
    (
        best,
        (near.wall_ns - best.wall_ns) as f64 / best.wall_ns as f64,
    )
}

/// The wall time of the median pass (the slower of the middle two of an
/// even number).
fn median_wall_ns(passes: &[Pass]) -> u64 {
    let mut walls: Vec<u64> = passes.iter().map(|p| p.wall_ns).collect();
    walls.sort_unstable();
    walls[walls.len() / 2]
}

/// End-to-end values of a facade phase (those that apply go in; the
/// tables fill the rest with 0).
fn end_to_end_values(ph: &Phase, v: &mut Values, info: &mut Json) {
    let (best, spread) = fastest(&ph.passes);
    v.set_spread("ops_per_s", best.ops as f64 / secs(best.wall_ns), spread);
    // What the fastest pass leaves out: a stall that hits most passes but
    // not all is in the median pass.
    v.set(
        "tail.median_pass_ops_per_s",
        best.ops as f64 / secs(median_wall_ns(&ph.passes)),
    );
    v.set_median("setup_s", &ph.setup_s);
    v.set_spread("op_p50_ns", best.lat.op.0, spread);
    v.set_spread("tail.op_p99_ns", best.lat.op.1, spread);

    // The amortized cost of the workload's write path. Where the timed
    // stream writes nothing (`read_ooc`), that path is the load of the
    // round's store: `insert_batch` per sorted chunk and one `sync`.
    if best.writes > 0 {
        let per_entry = best.write_ns as f64 / best.writes as f64;
        v.set_spread("write_ns_per_entry", per_entry, spread);
    } else {
        let per_entry: Vec<f64> = ph
            .load_s
            .iter()
            .map(|s| s * 1e9 / ph.loaded_entries as f64)
            .collect();
        v.set_median("write_ns_per_entry", &per_entry);
    }
    let writes = pooled(&ph.lat, &WRITES);
    if writes.count() > 0 {
        v.set_spread("write_p50_ns", best.lat.write.0, spread);
        v.set_spread("write_p99_ns", best.lat.write.1, spread);
        set_pct(v, info, "tail.write_p9999_ns", &writes, 0.9999);
        v.set("tail.write_max_ns", writes.max() as f64);
    }
    let gets = &ph.lat[Kind::Get.index()];
    if gets.count() > 0 {
        v.set_spread("get_p50_ns", best.lat.get.0, spread);
        v.set_spread("get_p99_ns", best.lat.get.1, spread);
        set_pct(v, info, "tail.get_p9999_ns", gets, 0.9999);
        v.set("tail.get_max_ns", gets.max() as f64);
    }
    if best.scan_ns > 0 {
        v.set_spread(
            "scan_entries_per_s",
            best.scan_entries as f64 / secs(best.scan_ns),
            spread,
        );
    }
    v.set(
        "loadgen.self_share",
        1.0 - best.span_ns as f64 / best.wall_ns as f64,
    );

    if best.io != IoCounts::default() {
        v.set(
            "transfers_per_op",
            best.io.transfers() as f64 / best.ops as f64,
        );
        let written = (writes.count() / ph.passes.len() as u64) * ENTRY_BYTES;
        if written > 0 {
            v.set(
                "write_amp",
                (best.io.writebacks * PAGE_BYTES as u64) as f64 / written as f64,
            );
            v.set(
                "space_amp",
                best.data_bytes as f64 / (ph.final_entries * ENTRY_BYTES) as f64,
            );
        }
    }
    let n = ph.passes.len() as u64;
    info.set("passes", n)
        .set("rounds", ph.setup_s.len() as u64)
        .set("samples_per_pass", pooled(&ph.lat, &CALLS).count() / n)
        .set(
            "op_deciles_ns",
            Json::Arr(
                best.lat
                    .op_deciles
                    .iter()
                    .map(|&d| d.round().into())
                    .collect(),
            ),
        )
        .set(
            "pass_wall_s",
            Json::Arr(ph.passes.iter().map(|p| secs(p.wall_ns).into()).collect()),
        )
        .set("stream_fnv64", format!("{:016x}", ph.stream_fnv));
}

fn io_values(io: &IoCounts, ops: u64, v: &mut Values) {
    let per = |n: u64| n as f64 / ops as f64;
    v.set("dam.cache.accesses_per_op", per(io.accesses));
    let rate = if io.accesses == 0 {
        0.0
    } else {
        io.hits as f64 / io.accesses as f64
    };
    v.set("dam.cache.hit_rate", rate);
    v.set("dam.cache.fetches_per_op", per(io.fetches));
    v.set("dam.cache.writebacks_per_op", per(io.writebacks));
    v.set("dam.cache.evictions_per_op", per(io.evictions));
    v.set("dam.cache.seeks_per_op", per(io.seeks));
}

/// Per-layer values of a traced phase. Counts are those of any pass
/// (every pass has the same); self times are the fastest traced pass's;
/// device and commit latencies pool the calls of every traced pass.
fn layer_values(ph: &Phase, facade_wall_ns: u64, v: &mut Values, info: &mut Json) {
    let (best, _) = fastest(&ph.passes);
    let l = best.layers.as_ref().expect("a traced pass has layers");
    let ops = best.ops;
    let mut dev = DevCounts::default();
    let mut commit = Hist::default();
    for p in &ph.passes {
        let pl = p.layers.as_ref().expect("a traced pass has layers");
        dev.read.ns.merge(&pl.dev.read.ns);
        dev.write.ns.merge(&pl.dev.write.ns);
        dev.sync.ns.merge(&pl.dev.sync.ns);
        commit.merge(&pl.rec.commit);
    }
    let st: SelfTime = l.rec.self_time;
    let share = |ns: u64| ns as f64 / l.rec.span_ns as f64;
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    v.set("core.self_ns_per_op", per(st.core, ops));
    v.set("core.self_share", share(st.core));
    v.set("core.merges", l.core.merges as f64);
    v.set(
        "core.cells_written_per_insert",
        per(l.core.cells_written, l.core.inserts),
    );
    v.set(
        "core.max_cells_per_insert",
        l.core.max_cells_per_insert as f64,
    );
    v.set(
        "core.cells_scanned_per_get",
        per(l.core.cells_scanned, l.core.searches),
    );
    v.set(
        "core.filter_skips_per_get",
        per(l.core.filter_skips, l.core.searches),
    );
    v.set("core.levels", l.core.levels as f64);
    v.set("core.mem_calls_per_op", per(l.rec.mem_calls, ops));
    let opens = &ph.opens;
    v.set(
        "core.from_parts_s",
        median(&opens.iter().map(|o| o.from_parts_s).collect::<Vec<_>>()),
    );
    v.set(
        "dam.cache.open_s",
        median(&opens.iter().map(|o| o.store_s).collect::<Vec<_>>()),
    );

    v.set("dam.cache.self_ns_per_op", per(st.cache, ops));
    v.set("dam.cache.self_share", share(st.cache));
    // Time inside Mem calls, device time taken out, per call.
    v.set("dam.cache.ns_per_call", per(st.cache, l.rec.mem_calls));
    io_values(&best.io, ops, v);

    v.set("dam.dev.read_calls", l.dev.read.calls as f64);
    v.set("dam.dev.read_bytes", l.dev.read.bytes as f64);
    set_pct(v, info, "dam.dev.read_ns_p50", &dev.read.ns, 0.5);
    set_pct(v, info, "dam.dev.read_ns_p99", &dev.read.ns, 0.99);
    v.set("dam.dev.write_calls", l.dev.write.calls as f64);
    v.set("dam.dev.write_bytes", l.dev.write.bytes as f64);
    set_pct(v, info, "dam.dev.write_ns_p50", &dev.write.ns, 0.5);
    set_pct(v, info, "dam.dev.write_ns_p99", &dev.write.ns, 0.99);
    v.set("dam.dev.sync_calls", l.dev.sync.calls as f64);
    set_pct(v, info, "dam.dev.sync_ns_p50", &dev.sync.ns, 0.5);
    set_pct(v, info, "dam.dev.sync_ns_p99", &dev.sync.ns, 0.99);
    let dev_ns = l.dev.read.ns.sum() + l.dev.write.ns.sum() + l.dev.sync.ns.sum();
    v.set("dam.dev.busy_share", dev_ns as f64 / best.wall_ns as f64);

    v.set("dam.commit.calls", l.rec.commit.count() as f64);
    set_pct(v, info, "dam.commit.ns_p50", &commit, 0.5);
    set_pct(v, info, "dam.commit.ns_p99", &commit, 0.99);
    v.set(
        "dam.commit.bytes_per_call",
        per(l.rec.commit_bytes, l.rec.commit.count()),
    );

    v.set(
        "trace.overhead_ratio",
        best.wall_ns as f64 / facade_wall_ns as f64,
    );
    v.set("trace.coverage", l.rec.span_ns as f64 / best.wall_ns as f64);
    let mut shares = Json::obj();
    shares
        .set("core", share(st.core))
        .set("dam.cache", share(st.cache))
        .set("dam.dev", share(st.dev))
        .set("dam.commit", share(st.commit));
    info.set("traced_passes", ph.passes.len() as u64)
        .set("self_shares", shares)
        .set("self_share_sum", share(st.total()))
        .set("kept_spans", l.rec.kept.len() as u64);
}

fn check_same_io(facade: &Phase, traced: &Phase, errors: &mut Vec<String>) {
    let (f, t) = (facade.passes[0].io, traced.passes[0].io);
    if f != t {
        errors.push(format!(
            "the traced replica's IoStats differ from the facade's on the same stream \
             (the replica has drifted from DbBuilder::build_shard): {t:?} vs {f:?}"
        ));
    }
}

fn single_client<T: Stack>(spec: Spec, opts: &Opts) -> Outcome {
    let mut out = Outcome {
        info: Json::obj(),
        ..Outcome::default()
    };
    let mut model = None;
    let (rounds, passes) = if opts.trace {
        (1, traced_passes(opts.seconds))
    } else {
        (ROUNDS, passes_per_round(opts.seconds))
    };
    let facade = run_phase::<Facade>(&spec, opts, rounds, passes, &mut model);
    end_to_end_values(&facade, &mut out.values, &mut out.info);
    if spec.reopen {
        let reopen: Vec<f64> = facade.opens.iter().map(|o| o.total_s).collect();
        out.values.set_median("reopen_s", &reopen);
    }
    out.attempted = facade.attempted;
    out.failed = facade.failed;
    out.errors.extend(facade.errors.iter().cloned());
    if opts.trace {
        let mut traced = run_phase::<T>(&spec, opts, 1, passes, &mut model);
        let facade_wall = fastest(&facade.passes).0.wall_ns;
        layer_values(&traced, facade_wall, &mut out.values, &mut out.info);
        check_same_io(&facade, &traced, &mut out.errors);
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        out.errors.append(&mut traced.errors);
        out.jsonl = fastest(&traced.passes)
            .0
            .layers
            .as_ref()
            .map(|l| l.rec.jsonl());
    }
    out
}

fn ingest_ooc(opts: &Opts) -> Outcome {
    let z = opts.sizes;
    let seed = opts.seed;
    let inputs = move || LoadedInputs {
        load: Vec::new(),
        ops: gen::ingest_ops(seed, z.ingest_ops, z.ingest_ops / z.ingest_syncs),
    };
    let spec = Spec {
        inputs: &inputs,
        cfg: StoreCfg::file(opts.scratch.path("ingest.db"), z.ingest_cache()),
        reopen: false,
    };
    single_client::<Traced<FileSeam>>(spec, opts)
}

fn read_ooc(opts: &Opts) -> Outcome {
    let z = opts.sizes;
    let seed = opts.seed;
    let inputs =
        move || gen::read_inputs(seed, z.read_keys, z.read_chunks, z.read_ops, z.read_scan);
    let spec = Spec {
        inputs: &inputs,
        cfg: StoreCfg::file(opts.scratch.path("read.db"), z.read_cache()),
        reopen: true,
    };
    single_client::<Traced<FileSeam>>(spec, opts)
}

fn mixed_mem(opts: &Opts) -> Outcome {
    let z = opts.sizes;
    let seed = opts.seed;
    let inputs = move || {
        gen::mixed_inputs(
            seed,
            z.mixed_prefill,
            z.load_chunks,
            z.mixed_ops,
            z.theta,
            z.mixed_scan,
        )
    };
    let spec = Spec {
        inputs: &inputs,
        cfg: StoreCfg::mem(),
        reopen: false,
    };
    single_client::<Traced<MemSeam>>(spec, opts)
}

// ---------------------------------------------------------------------
// contended_rw: one paced writer, one closed-loop client.
// ---------------------------------------------------------------------

/// When batch `i` is due and how its latency is accounted: the writer
/// is an open loop, so a batch is timed from the instant it was due, not
/// from when a late writer got to it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub period_ns: u64,
}

impl Schedule {
    pub fn due(&self, i: u64) -> u64 {
        self.start_ns + i * self.period_ns
    }

    /// `(lateness, latency)` of batch `i` begun at `began` and finished
    /// at `ended`: how late the generator ran, and what a user who
    /// submitted on schedule waited.
    pub fn account(&self, i: u64, began: u64, ended: u64) -> (u64, u64) {
        let due = self.due(i);
        (began.saturating_sub(due), ended.saturating_sub(due))
    }
}

/// Sleeps until shortly before `due`, then spins: `sleep` alone
/// overshoots by tens of microseconds, which would read as latency.
fn wait_until(clock: Clock, due: u64) {
    const SPIN_NS: u64 = 300_000;
    loop {
        let now = clock.now();
        if now >= due {
            return;
        }
        if due - now > SPIN_NS {
            std::thread::sleep(std::time::Duration::from_nanos(due - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[derive(Debug, Default)]
struct WriterStats {
    latency: Hist,
    lateness: Hist,
    apply: Hist,
    publish: Hist,
    run_count_max: u64,
    retired_pending_max: u64,
}

/// What one round of `contended_rw` timed.
#[derive(Debug, Clone, Copy)]
struct RoundTimes {
    gets_per_s: f64,
    /// `(p50, p99)` of the client's gets.
    get: (f64, f64),
    loadgen_share: f64,
    /// The writer's time inside `apply` + publish, per put.
    write_ns_per_put: f64,
}

#[derive(Debug, Default)]
struct ClientStats {
    gets: u64,
    failed: u64,
    wall_ns: u64,
    span_ns: u64,
    latency: Hist,
    epoch_lag: Hist,
}

fn writer_loop(
    db: &mut Facade,
    inp: &ContendedInputs,
    rate: f64,
    clock: Clock,
    published: &AtomicU64,
    w: &mut WriterStats,
    last_seq: &mut [u32],
) {
    let sched = Schedule {
        start_ns: clock.now() + 1_000_000,
        period_ns: (1e9 / rate) as u64,
    };
    for (b, batch) in inp.batches.iter().enumerate() {
        let seq = b as u32 + 1;
        wait_until(clock, sched.due(b as u64));
        let began = clock.now();
        db.apply_puts(batch.iter().map(|&i| {
            let k = gen::key_of(inp.seed, i as u64);
            (k, gen::tagged_val(k, seq))
        }));
        let applied = clock.now();
        let (epoch, runs) = db.publish();
        // ordering: a statistic the client subtracts from; nothing else
        // is published through it.
        published.store(epoch, Ordering::Relaxed);
        let ended = clock.now();
        let (late, latency) = sched.account(b as u64, began, ended);
        w.lateness.record(late);
        w.latency.record(latency);
        w.apply.record(applied - began);
        w.publish.record(ended - applied);
        w.run_count_max = w.run_count_max.max(runs);
        w.retired_pending_max = w.retired_pending_max.max(db.epochs().retired_pending);
        for &i in batch {
            last_seq[i as usize] = seq;
        }
    }
}

/// Checks one client answer: the value belongs to the key asked for and
/// its batch number has not gone backwards for that key.
fn client_check(key: u64, got: Option<u64>, last: &mut u32) -> bool {
    match got {
        Some(v) if v >> 32 == gen::tagged_val(key, 0) >> 32 && v as u32 >= *last => {
            *last = v as u32;
            true
        }
        _ => false,
    }
}

fn client_loop(
    reader: &mut crate::stack::Reader,
    inp: &ContendedInputs,
    rng: &mut Rng,
    clock: Clock,
    published: &AtomicU64,
    stop: impl Fn(u64) -> bool,
    seen: &mut [u32],
) -> ClientStats {
    let mut c = ClientStats::default();
    let t0 = clock.now();
    while !stop(c.gets) {
        let idx = gen::scatter(inp.zipf.sample(rng), inp.universe);
        let key = gen::key_of(inp.seed, idx);
        // ordering: see the store; read before the get, so a lag means
        // the view served was older than an epoch already published.
        let newest = published.load(Ordering::Relaxed);
        let s = clock.now();
        let got = reader.get(key);
        let e = clock.now();
        c.latency.record(e - s);
        c.span_ns += e - s;
        c.epoch_lag.record(newest.saturating_sub(reader.epoch()));
        c.failed += !client_check(key, got, &mut seen[idx as usize]) as u64;
        c.gets += 1;
    }
    c.wall_ns = clock.now() - t0;
    c
}

fn contended_rw(opts: &Opts) -> Outcome {
    let z = opts.sizes;
    let clock = opts.clock;
    let mut out = Outcome {
        info: Json::obj(),
        ..Outcome::default()
    };
    // No replica here (the layers of this workload are timed around the
    // facade's own calls), so a traced run is shaped like any other.
    let rounds = ROUNDS;
    let n_batches = ((opts.seconds / rounds as f64) * z.cont_rate)
        .floor()
        .max(1.0) as usize;
    let cfg = StoreCfg::file(opts.scratch.path("contended.db"), z.cont_cache());

    let mut w = WriterStats::default();
    // The client of every round pooled (for the tails), and what each
    // round timed.
    let mut client = ClientStats::default();
    let mut timed: Vec<RoundTimes> = Vec::new();
    let (mut setup_s, mut seed_s) = (Vec::new(), Vec::new());
    let (mut io, mut puts) = (IoCounts::default(), 1u64);
    let mut epochs = crate::stack::EpochCounts::default();
    let mut bypass_holds = true;
    for _ in 0..rounds {
        let r0 = clock.now();
        let inp = gen::contended_inputs(
            opts.seed,
            z.cont_prefill,
            z.load_chunks,
            n_batches,
            z.cont_batch,
            z.theta,
        );
        let (mut db, _) = Facade::create(&cfg, clock);
        for chunk in &inp.load {
            db.insert_batch(chunk);
        }
        db.sync();
        let s0 = clock.now();
        let mut reader = db.reader();
        seed_s.push(secs(clock.now() - s0));
        setup_s.push(secs(clock.now() - r0));

        // The bypass prediction: client gets are served from the DRAM
        // overlay, so they leave the store's counters where they were.
        let published = AtomicU64::new(reader.epoch());
        let mut rng = Rng::new(opts.seed, 5);
        let mut seen = vec![0u32; inp.universe as usize];
        let io0 = db.io();
        let warm = z.cont_warm_gets as u64;
        let c = client_loop(
            &mut reader,
            &inp,
            &mut rng,
            clock,
            &published,
            |n| n >= warm,
            &mut seen,
        );
        bypass_holds &= db.io() == io0;
        out.attempted += c.gets;
        out.failed += c.failed;

        let done = AtomicBool::new(false);
        let mut last_seq = vec![0u32; inp.universe as usize];
        let busy0 = w.apply.sum() + w.publish.sum();
        let c = std::thread::scope(|s| {
            let handle = s.spawn(|| {
                // ordering: a stop flag; the client's results come back
                // through the join, not through this.
                let stop = |_| done.load(Ordering::Relaxed);
                client_loop(
                    &mut reader,
                    &inp,
                    &mut rng,
                    clock,
                    &published,
                    stop,
                    &mut seen,
                )
            });
            writer_loop(
                &mut db,
                &inp,
                z.cont_rate,
                clock,
                &published,
                &mut w,
                &mut last_seq,
            );
            done.store(true, Ordering::Relaxed);
            handle.join().expect("client thread panicked")
        });
        client.gets += c.gets;
        client.failed += c.failed;
        client.latency.merge(&c.latency);
        client.epoch_lag.merge(&c.epoch_lag);
        // Every round makes the same store calls: the last round's do.
        io = db.io().since(&io0);
        puts = (n_batches * z.cont_batch) as u64;
        timed.push(RoundTimes {
            gets_per_s: c.gets as f64 / secs(c.wall_ns),
            get: p50_p99(&c.latency),
            loadgen_share: 1.0 - c.span_ns as f64 / c.wall_ns as f64,
            write_ns_per_put: (w.apply.sum() + w.publish.sum() - busy0) as f64 / puts as f64,
        });
        epochs = db.epochs();

        // Final contents: every key holds the value of the last batch
        // that wrote it.
        let mut want: Vec<(u64, u64)> = (0..inp.universe)
            .map(|i| {
                let k = gen::key_of(inp.seed, i);
                (k, gen::tagged_val(k, last_seq[i as usize]))
            })
            .collect();
        want.sort_unstable();
        out.attempted += want.len() as u64;
        out.failed += mismatches(&db.range_all(), &want);
        db.finish();
    }
    out.attempted += client.gets;
    out.failed += client.failed;

    let v = &mut out.values;
    let info = &mut out.info;
    // End to end, an op here is a client get: the client is the closed
    // loop. Timing values are those of the fastest round — the one in
    // which the client got through most gets per second, the counterpart
    // of the single-client workloads' fastest pass. A round is 1/5 of
    // `--seconds` of the writer's schedule, so whatever the writer does
    // to the client in that time is in the value. The writer's side is
    // `write_ns_per_entry`, the time inside `apply` + publish per put:
    // what the writer costs, stalls included, however they fall against
    // the schedule; and `tail.batch_*`, its batch latencies from the due
    // instant, which turn every merge stall into a backlog of late
    // batches. Neither repeats from hour to hour on the sandbox (the
    // README has the numbers), so neither is gated.
    timed.sort_by(|a, b| b.gets_per_s.total_cmp(&a.gets_per_s));
    let best = timed[0];
    let spread = (best.gets_per_s - timed[timed.len() / 4].gets_per_s) / best.gets_per_s;
    v.set_spread("ops_per_s", best.gets_per_s, spread);
    v.set(
        "tail.median_pass_ops_per_s",
        timed[timed.len() / 2].gets_per_s,
    );
    v.set_median("setup_s", &setup_s);
    v.set_spread("op_p50_ns", best.get.0, spread);
    v.set_spread("tail.op_p99_ns", best.get.1, spread);
    v.set_spread("get_p50_ns", best.get.0, spread);
    v.set_spread("get_p99_ns", best.get.1, spread);
    v.set_spread("write_ns_per_entry", best.write_ns_per_put, spread);
    set_pct(v, info, "tail.get_p9999_ns", &client.latency, 0.9999);
    v.set("tail.get_max_ns", client.latency.max() as f64);
    set_pct(v, info, "tail.batch_p50_ns", &w.latency, 0.5);
    set_pct(v, info, "tail.batch_p99_ns", &w.latency, 0.99);
    v.set("tail.batch_max_ns", w.latency.max() as f64);
    // The store's work here is the writer's only: per put.
    io_values(&io, puts, v);
    v.set_median("snapshot.seed_s", &seed_s);
    set_pct(v, info, "snapshot.apply_ns_p50", &w.apply, 0.5);
    set_pct(v, info, "snapshot.apply_ns_p99", &w.apply, 0.99);
    set_pct(v, info, "snapshot.publish_ns_p50", &w.publish, 0.5);
    set_pct(v, info, "snapshot.publish_ns_p99", &w.publish, 0.99);
    // A count of epochs: whole, not interpolated inside a bucket.
    let lag = pct(&client.epoch_lag, 0.99, "snapshot.epoch_lag_p99", info).floor();
    v.set("snapshot.epoch_lag_p99", lag);
    v.set("snapshot.run_count_max", w.run_count_max as f64);
    v.set("epoch.published", epochs.published as f64);
    v.set("epoch.retired_runs", epochs.retired_runs as f64);
    v.set("epoch.reclaimed_runs", epochs.reclaimed_runs as f64);
    v.set("epoch.retired_pending_max", w.retired_pending_max as f64);
    v.set("loadgen.self_share", best.loadgen_share);
    set_pct(v, info, "loadgen.lateness_p99_ns", &w.lateness, 0.99);
    info.set("rounds", rounds as u64)
        .set("batches_per_round", n_batches as u64)
        .set("batch_samples", w.latency.count())
        .set("get_samples", client.latency.count())
        .set(
            "client_gets_per_s_fastest_round_first",
            Json::Arr(timed.iter().map(|t| t.gets_per_s.round().into()).collect()),
        )
        .set(
            "writer_busy_share",
            (w.apply.sum() + w.publish.sum()) as f64
                / (w.latency.count() as f64 * 1e9 / z.cont_rate),
        )
        .set("bypass_client_gets_leave_io_unchanged", bypass_holds);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Sizes {
        Sizes {
            ingest_ops: 4_000,
            ingest_syncs: 4,
            read_keys: 4_096,
            read_chunks: 8,
            read_ops: 3_000,
            read_scan: 16,
            mixed_prefill: 2_048,
            mixed_ops: 6_000,
            mixed_scan: 8,
            theta: 0.99,
            cont_prefill: 2_048,
            cont_batch: 32,
            cont_rate: 400.0,
            cont_warm_gets: 500,
            load_chunks: 4,
        }
    }

    fn run_tiny(workload: &str, trace: bool) -> Outcome {
        let scratch = Scratch::create().unwrap();
        let sizes = tiny();
        let opts = Opts {
            seed: 9,
            // Two passes per stack of a traced run, one per round of an
            // untraced one; the paced workload's length is its seconds.
            seconds: if workload == "contended_rw" { 0.3 } else { 6.0 },
            trace,
            sizes: &sizes,
            scratch: &scratch,
            clock: Clock::start(),
        };
        run(workload, &opts).unwrap()
    }

    #[test]
    fn every_workload_answers_correctly_and_repeats_its_counts() {
        for w in NAMES {
            for trace in [false, true] {
                let out = run_tiny(w, trace);
                assert!(out.errors.is_empty(), "{w}: {:?}", out.errors);
                assert_eq!(out.failed, 0, "{w}");
                assert!(out.attempted > 0, "{w}");
                assert!(out.values.unknown_names().is_empty(), "{w}");
                // Every end-to-end metric is there and not 0.
                let e2e = out.values.json(crate::metrics::END_TO_END, true);
                for (name, m) in e2e.fields() {
                    assert!(
                        m.get("value").unwrap().as_f64().unwrap() > 0.0,
                        "{w} {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn traced_runs_split_time_and_match_the_facade() {
        let out = run_tiny("ingest_ooc", true);
        let v = |n: &str| out.values.get(n).unwrap().value;
        let shares = v("core.self_share") + v("dam.cache.self_share");
        assert!(shares > 0.0 && shares <= 1.0);
        assert!((out.info.get("self_share_sum").unwrap().as_f64().unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(
            v("dam.cache.fetches_per_op") + v("dam.cache.writebacks_per_op"),
            v("transfers_per_op")
        );
        assert!(v("dam.commit.calls") == 4.0 && v("dam.dev.sync_calls") >= 8.0);
        assert!(out.jsonl.unwrap().lines().count() > 0);

        // The bypass predictions.
        let mem = run_tiny("mixed_mem", true);
        assert_eq!(
            mem.values.get("dam.cache.accesses_per_op").unwrap().value,
            0.0
        );
        assert!(mem.values.get("transfers_per_op").is_none());
        assert!(mem.values.get("core.mem_calls_per_op").unwrap().value > 0.0);
        let cont = run_tiny("contended_rw", false);
        let holds = cont.info.get("bypass_client_gets_leave_io_unchanged");
        assert_eq!(holds, Some(&Json::Bool(true)));
    }

    #[test]
    fn the_pass_count_follows_from_the_seconds_alone() {
        assert_eq!(passes_per_round(20.0), 4);
        assert_eq!(passes_per_round(10.0), 2);
        assert_eq!(passes_per_round(0.5), 1);
        assert_eq!(traced_passes(20.0), 7);
        assert_eq!(traced_passes(1.0), 1);
    }

    #[test]
    fn the_fastest_pass_is_reported_with_how_close_the_others_came() {
        let passes: Vec<Pass> = [1_500u64, 1_000, 1_510, 1_020, 1_490, 1_040, 1_480, 1_060]
            .iter()
            .map(|&wall_ns| Pass {
                wall_ns,
                ..Pass::default()
            })
            .collect();
        // Half the passes fell in the machine's slow state: the fastest
        // pass does not move, the spread says two more came within 4 %,
        // and the median pass is kept for `tail.median_pass_ops_per_s`.
        let (best, spread) = fastest(&passes);
        assert_eq!(best.wall_ns, 1_000);
        assert_eq!(spread, 0.04);
        assert_eq!(median_wall_ns(&passes), 1_480);
        assert_eq!(fastest(&passes[..1]).1, 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let s = Schedule {
            start_ns: 1_000,
            period_ns: 100,
        };
        assert_eq!(s.due(3), 1_300);
        // On time: latency is the service time.
        assert_eq!(s.account(3, 1_300, 1_340), (0, 40));
        // The writer got to batch 3 late by 250: the wait is part of
        // what a user who submitted on schedule saw.
        assert_eq!(s.account(3, 1_550, 1_590), (250, 290));
        // An early start (clock read just before the due instant) is
        // not negative lateness.
        assert_eq!(s.account(3, 1_299, 1_340), (0, 40));
    }

    #[test]
    fn client_check_catches_wrong_keys_and_time_travel() {
        let k = 0xDEAD_BEEF_0123_4567u64;
        let mut last = 0;
        assert!(client_check(k, Some(gen::tagged_val(k, 0)), &mut last));
        assert!(client_check(k, Some(gen::tagged_val(k, 5)), &mut last));
        assert_eq!(last, 5);
        assert!(
            !client_check(k, Some(gen::tagged_val(k, 4)), &mut last),
            "seq went backwards"
        );
        assert!(
            !client_check(k, Some(gen::tagged_val(k ^ 1, 9)), &mut last),
            "another key's value"
        );
        assert!(
            !client_check(k, None, &mut last),
            "a prefilled key is never absent"
        );
    }

    #[test]
    fn mismatches_count_positions() {
        assert_eq!(mismatches(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(mismatches(&[1, 9, 3], &[1, 2, 3]), 1);
        assert_eq!(mismatches(&[1, 2], &[1, 2, 3, 4]), 2);
    }
}

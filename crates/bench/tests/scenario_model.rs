//! Correctness net under the benchmark harness: a scenario run is only a
//! valid measurement if it computed the right answer, so every scenario
//! over every cell of the configuration matrix must leave the dictionary
//! **exactly** equal to a `BTreeMap` model replay of the same seeded op
//! stream. A structure that dropped or duplicated a write under a mixed
//! workload would otherwise report excellent throughput.

use std::collections::BTreeMap;

use cosbt::{Backend, DbBuilder, Structure};
use cosbt_bench::json::{self, Json};
use cosbt_bench::scenario::{
    self, mix_of, prefill_seed, run_identity, RunMeta, Scenario, SCENARIOS,
};
use cosbt_bench::workloads::{prefill_run, Op, OpStream};

/// Replays the exact streams the runner executes into a model.
fn model_replay(scenario: &Scenario, n: u64, prefill: u64, seed: u64) -> BTreeMap<u64, u64> {
    let dist = scenario.dist_for(n);
    let mut model = BTreeMap::new();
    for (k, v) in prefill_run(dist, prefill, prefill_seed(seed)) {
        model.insert(k, v);
    }
    for op in OpStream::new(mix_of(scenario.kind), dist, seed).take(n as usize) {
        match op {
            Op::Insert(k, v) => {
                model.insert(k, v);
            }
            Op::Delete(k) => {
                model.remove(&k);
            }
            Op::Trim(cutoff) => {
                // Mirrors `scenario::trim_below`: everything strictly
                // below the cutoff expires.
                model = model.split_off(&cutoff);
            }
            Op::Get(_) | Op::Scan(..) => {}
        }
    }
    model
}

fn check_cell(scenario: &Scenario, builder: DbBuilder, n: u64, seed: u64) {
    let label = builder.label();
    let dist = scenario.dist_for(n);
    let prefill = (n as f64 * scenario.prefill_frac) as u64;
    let meta = RunMeta {
        structure: "?".into(),
        label: label.clone(),
        backend: "?".into(),
        shards: 1,
        cache_bytes: 0,
        pointer_density: 0.1,
        dist: dist.name().into(),
        ops: n,
        prefill,
        seed,
    };
    let mut db = builder.build().expect("matrix cell builds");
    let report = scenario::run(scenario, dist, meta, &mut db);
    assert!(
        report.latency.overall.count() > 0,
        "{}/{label}: ops were measured",
        scenario.name
    );

    let want: Vec<(u64, u64)> = model_replay(scenario, n, prefill, seed)
        .into_iter()
        .collect();
    let got = db.range(0, u64::MAX);
    assert_eq!(
        got, want,
        "{}/{label}: dictionary diverged from the model replay (seed {seed})",
        scenario.name
    );
}

#[test]
fn every_scenario_matches_model_on_every_mem_matrix_cell() {
    // Unsharded and sharded cells of the shared matrix; small n keeps the
    // full 5-scenario × 18-cell product testable in debug builds.
    let n = 1500u64;
    for scenario in SCENARIOS {
        for builder in DbBuilder::matrix(&[1, 3]) {
            check_cell(scenario, builder, n, 0xBEEF);
        }
    }
}

#[test]
fn scenarios_match_model_on_file_backed_cells() {
    let n = 2000u64;
    let dir = cosbt_testkit::TempPath::new("scenmodel");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, structure) in [Structure::GCola { g: 4 }, Structure::BTree, Structure::Brt]
        .into_iter()
        .enumerate()
    {
        let path = dir.join(format!("cell{i}.dat"));
        let builder = DbBuilder::new()
            .structure(structure)
            .backend(Backend::file(path))
            .cache_bytes(64 * 1024);
        check_cell(Scenario::by_name("balanced").unwrap(), builder, n, 0xF00D);
    }
}

#[test]
fn parallel_sharded_run_matches_model() {
    // Sharded ingest, on worker threads for the batches large enough,
    // must not reorder a key's operations observably.
    let builder = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .shards(4);
    for seed in [1u64, 2, 3] {
        check_cell(
            Scenario::by_name("write_heavy").unwrap(),
            builder.clone(),
            3000,
            seed,
        );
    }
}

#[test]
fn drain_scenario_streams_exactly_the_live_set() {
    // insert_then_drain's scanned_entries must equal the model's live
    // count: the drain is a full-keyspace cursor pass.
    let scenario = Scenario::by_name("insert_then_drain").unwrap();
    let n = 4000u64;
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
        prefill: 0,
        seed: 99,
    };
    let mut db = DbBuilder::new().build().unwrap();
    let report = scenario::run(scenario, dist, meta, &mut db);
    let model = model_replay(scenario, n, 0, 99);
    assert_eq!(report.scanned_entries, model.len() as u64);
}

#[test]
fn legacy_baseline_rows_keep_their_identity() {
    // Committed rows recorded when the run meta still carried two
    // read-path knobs and the parallel-ingest switch (this is the meta of
    // the BRT `write_heavy` baseline row) must stay the cell today's
    // harness names without them.
    let legacy = json::parse(
        r#"{"meta": {"structure": "brt", "label": "BRT", "backend": "file", "shards": 1,
            "cache_bytes": 16384, "parallel_ingest": false, "cascade": true,
            "veb_layout": false, "pointer_density": 0.1, "dist": "uniform",
            "ops": 20000, "prefill": 5000, "seed": 42}}"#,
    )
    .unwrap();
    let meta = legacy.get("meta").unwrap();

    let s = |k: &str| meta.get(k).and_then(Json::as_str).unwrap().to_string();
    let n = |k: &str| meta.get(k).and_then(Json::as_u64).unwrap();
    let current = RunMeta {
        structure: s("structure"),
        label: s("label"),
        backend: s("backend"),
        shards: n("shards") as usize,
        cache_bytes: n("cache_bytes"),
        pointer_density: meta.get("pointer_density").and_then(Json::as_f64).unwrap(),
        dist: s("dist"),
        ops: n("ops"),
        prefill: n("prefill"),
        seed: n("seed"),
    }
    .to_json();
    assert!(current.get("cascade").is_none(), "new rows omit them");
    assert!(current.get("parallel_ingest").is_none(), "and the switch");
    let current = Json::obj().with("meta", current);
    assert_eq!(run_identity(&legacy), run_identity(&current));
}

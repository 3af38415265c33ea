//! The metric tables: every name the benchmark prints, with its unit,
//! its better direction, and how `agree` judges it. `BENCHMARK.json`
//! lists the same names (a unit test holds the two together).

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How `agree` judges a metric that `BENCHMARK.json` gives no bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// An end-to-end metric: its bound is read from `BENCHMARK.json`.
    Bounded,
    /// The two sets may not lie further apart than this share of the
    /// smaller value.
    Within(f64),
    /// A count made by the program or the seams: equal between two runs
    /// of one commit on one seed; on different seeds only shown.
    Exact,
    /// Shown, never judged.
    Info,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub rule: Rule,
}

const fn def(name: &'static str, unit: &'static str, better: Better, rule: Rule) -> Def {
    Def {
        name,
        unit,
        better,
        rule,
    }
}

use Better::{Higher, Lower};
use Rule::{Bounded, Exact, Info, Within};

/// Reported by every workload with `--trace 0`; gated by the driver.
pub const END_TO_END: &[Def] = &[
    def("ops_per_s", "1/s", Higher, Bounded),
    def("op_p50_ns", "ns", Lower, Bounded),
    def("peak_rss_mb", "MB", Lower, Bounded),
    def("setup_s", "s", Lower, Bounded),
];

/// Reported by every workload with `--trace 1`; 0 where a metric does
/// not apply to the workload. The first block is end-to-end metrics that
/// exist on some workloads only (the driver's `end_to_end` list must be
/// non-zero on all of them); `agree` holds them to the issue's bounds
/// where five runs of one seed repeated within them, to a quarter where
/// they repeated within that, and shows the rest.
pub const PER_LAYER: &[Def] = &[
    def("write_ns_per_entry", "ns", Lower, Info),
    def("write_p50_ns", "ns", Lower, Within(0.10)),
    def("write_p99_ns", "ns", Lower, Info),
    def("get_p50_ns", "ns", Lower, Info),
    def("get_p99_ns", "ns", Lower, Info),
    def("scan_entries_per_s", "1/s", Higher, Within(0.10)),
    def("transfers_per_op", "count", Lower, Exact),
    def("write_amp", "ratio", Lower, Exact),
    def("space_amp", "ratio", Lower, Exact),
    def("reopen_s", "s", Lower, Within(0.25)),
    // core: cosbt-core::{gcola,cascade,cursor}
    def("core.self_ns_per_op", "ns", Lower, Info),
    def("core.self_share", "ratio", Lower, Info),
    def("core.merges", "count", Lower, Exact),
    def("core.cells_written_per_insert", "count", Lower, Exact),
    def("core.max_cells_per_insert", "count", Lower, Exact),
    def("core.cells_scanned_per_get", "count", Lower, Exact),
    def("core.filter_skips_per_get", "count", Higher, Exact),
    def("core.levels", "count", Lower, Exact),
    def("core.mem_calls_per_op", "count", Lower, Exact),
    def("core.from_parts_s", "s", Lower, Info),
    // dam.cache: cosbt-dam::{file,lru}
    def("dam.cache.self_ns_per_op", "ns", Lower, Info),
    def("dam.cache.self_share", "ratio", Lower, Info),
    def("dam.cache.ns_per_call", "ns", Lower, Info),
    def("dam.cache.accesses_per_op", "count", Lower, Exact),
    def("dam.cache.hit_rate", "ratio", Higher, Exact),
    def("dam.cache.fetches_per_op", "count", Lower, Exact),
    def("dam.cache.writebacks_per_op", "count", Lower, Exact),
    def("dam.cache.evictions_per_op", "count", Lower, Exact),
    def("dam.cache.seeks_per_op", "count", Lower, Exact),
    def("dam.cache.open_s", "s", Lower, Info),
    // dam.dev: cosbt-dam::dev
    def("dam.dev.read_calls", "count", Lower, Exact),
    def("dam.dev.read_bytes", "B", Lower, Exact),
    def("dam.dev.read_ns_p50", "ns", Lower, Info),
    def("dam.dev.read_ns_p99", "ns", Lower, Info),
    def("dam.dev.write_calls", "count", Lower, Exact),
    def("dam.dev.write_bytes", "B", Lower, Exact),
    def("dam.dev.write_ns_p50", "ns", Lower, Info),
    def("dam.dev.write_ns_p99", "ns", Lower, Info),
    def("dam.dev.sync_calls", "count", Lower, Exact),
    def("dam.dev.sync_ns_p50", "ns", Lower, Info),
    def("dam.dev.sync_ns_p99", "ns", Lower, Info),
    def("dam.dev.busy_share", "ratio", Lower, Info),
    // dam.commit: cosbt-dam::format + cosbt-core::persist
    def("dam.commit.calls", "count", Lower, Exact),
    def("dam.commit.ns_p50", "ns", Lower, Info),
    def("dam.commit.ns_p99", "ns", Lower, Info),
    def("dam.commit.bytes_per_call", "B", Lower, Exact),
    // snapshot: cosbt::snapshot + cosbt-core::{epoch,worker}
    def("snapshot.seed_s", "s", Lower, Info),
    def("snapshot.apply_ns_p50", "ns", Lower, Info),
    def("snapshot.apply_ns_p99", "ns", Lower, Info),
    def("snapshot.publish_ns_p50", "ns", Lower, Info),
    def("snapshot.publish_ns_p99", "ns", Lower, Info),
    def("snapshot.epoch_lag_p99", "count", Lower, Info),
    def("snapshot.run_count_max", "count", Lower, Info),
    def("epoch.published", "count", Lower, Info),
    def("epoch.retired_runs", "count", Lower, Info),
    def("epoch.reclaimed_runs", "count", Higher, Info),
    def("epoch.retired_pending_max", "count", Lower, Info),
    // the harness itself
    def("loadgen.self_share", "ratio", Lower, Info),
    def("loadgen.lateness_p99_ns", "ns", Lower, Info),
    def("trace.overhead_ratio", "ratio", Lower, Info),
    def("trace.coverage", "ratio", Higher, Info),
    def("tail.median_pass_ops_per_s", "1/s", Higher, Info),
    def("tail.op_p99_ns", "ns", Lower, Info),
    def("tail.batch_p50_ns", "ns", Lower, Info),
    def("tail.batch_p99_ns", "ns", Lower, Info),
    def("tail.batch_max_ns", "ns", Lower, Info),
    def("tail.write_p9999_ns", "ns", Lower, Info),
    def("tail.write_max_ns", "ns", Lower, Info),
    def("tail.get_p9999_ns", "ns", Lower, Info),
    def("tail.get_max_ns", "ns", Lower, Info),
];

/// One measured value. `spread` says how well the run itself pins the
/// value down: for a median of rounds, `(max − min) / median`; for a
/// fastest-pass value, how much slower the lower-quartile pass was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub spread: Option<f64>,
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, Value)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((
            name,
            Value {
                value,
                spread: None,
            },
        ));
    }

    pub fn set_spread(&mut self, name: &'static str, value: f64, spread: f64) {
        self.0.push((
            name,
            Value {
                value,
                spread: Some(spread),
            },
        ));
    }

    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let value = Value {
            value: crate::hist::median(samples),
            spread: Some(crate::hist::spread(samples)),
        };
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// A `metrics` object over `defs`, in table order. `complete` is the
    /// result line's form: every metric of `defs`, value and unit only —
    /// a per-layer metric the workload does not have is 0, a missing
    /// end-to-end metric is a bug in the workload. Otherwise the result
    /// file's form: the metrics this run measured, with their spreads.
    pub fn json<'a>(&self, defs: impl IntoIterator<Item = &'a Def>, complete: bool) -> Json {
        let mut out = Json::obj();
        for d in defs {
            let v = match (self.get(d.name), d.rule) {
                (Some(v), _) => v,
                (None, _) if !complete => continue,
                (None, Bounded) => panic!("workload did not measure {}", d.name),
                (None, _) => Value {
                    value: 0.0,
                    spread: None,
                },
            };
            let mut m = Json::obj();
            m.set("value", v.value).set("unit", d.unit);
            if let (false, Some(s)) = (complete, v.spread) {
                m.set("spread", s);
            }
            out.set(d.name, m);
        }
        out
    }

    /// Every name set must be in one of the tables.
    pub fn unknown_names(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == *n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables name the same metrics with the
    /// same units and directions, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = spec.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (l, d) in listed.iter().zip(defs) {
                assert_eq!(l.get("name").unwrap().as_str(), Some(d.name));
                assert_eq!(l.get("unit").unwrap().as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    l.get("better").unwrap().as_str(),
                    Some(d.better.name()),
                    "{}",
                    d.name
                );
            }
        }
        let names: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
        assert_eq!(
            spec.get("run_seconds").unwrap().as_f64(),
            Some(crate::RUN_SECONDS as f64)
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn absent_layer_metrics_read_zero() {
        let mut v = Values::default();
        v.set("core.merges", 7.0);
        v.set_median("reopen_s", &[1.0, 2.0, 4.0]);
        let j = v.json(PER_LAYER, false);
        assert!(
            j.get("dam.dev.read_calls").is_none(),
            "files keep what was measured"
        );
        assert_eq!(
            j.get("core.merges").unwrap().get("value").unwrap().as_f64(),
            Some(7.0)
        );
        assert_eq!(
            j.get("reopen_s").unwrap().get("spread").unwrap().as_f64(),
            Some(1.5)
        );
        let line = v.json(PER_LAYER, true);
        let absent = line.get("dam.dev.read_calls").unwrap();
        assert_eq!(absent.get("value").unwrap().as_f64(), Some(0.0));
        assert!(line.get("reopen_s").unwrap().get("spread").is_none());
        assert!(v.unknown_names().is_empty());
    }
}

//! `agree <dirA> <dirB>`: do two result sets agree within the
//! benchmark's own bounds? One row per workload × metric. Neither set is
//! the other's baseline, so the answer does not depend on their order.

use std::path::Path;

use crate::json::Json;
use crate::metrics::{Def, Rule, END_TO_END, PER_LAYER};
use crate::workloads::NAMES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Breach,
    /// The passes of one run spread wider than the bound: the metric
    /// cannot tell a change of that size from noise.
    Unresolved,
    /// Shown, not judged.
    Info,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Breach => "BREACH",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// One metric of one run, as read back from a result file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: Option<f64>,
}

/// How far apart two values are, as a share of the smaller: the share by
/// which one is worse than the other, whichever of the two is taken as
/// the base and whichever direction is better.
pub fn apart(a: f64, b: f64) -> f64 {
    let (lo, hi) = (a.abs().min(b.abs()), a.abs().max(b.abs()));
    if a == b {
        0.0
    } else if lo == 0.0 || (a < 0.0) != (b < 0.0) {
        f64::INFINITY
    } else {
        (hi - lo) / lo
    }
}

/// Judges one metric. `bound` is the end-to-end bound from
/// `BENCHMARK.json` when the metric has one there.
pub fn judge(
    d: &Def,
    bound: Option<f64>,
    same_seed: bool,
    a: Reading,
    b: Reading,
) -> (Option<f64>, Verdict) {
    let limit = match d.rule {
        Rule::Bounded => bound,
        Rule::Within(w) => Some(w),
        Rule::Exact if same_seed => {
            let v = if a.value == b.value {
                Verdict::Ok
            } else {
                Verdict::Breach
            };
            return (Some(0.0), v);
        }
        Rule::Exact | Rule::Info => None,
    };
    let Some(limit) = limit else {
        return (None, Verdict::Info);
    };
    let noisy = [a.spread, b.spread].iter().flatten().any(|&s| s > limit);
    let verdict = if noisy {
        Verdict::Unresolved
    } else if apart(a.value, b.value) <= limit {
        Verdict::Ok
    } else {
        Verdict::Breach
    };
    (Some(limit), verdict)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn reading(file: &Json, name: &str) -> Option<Reading> {
    let m = file.get("metrics")?.get(name)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread").and_then(Json::as_f64),
    })
}

/// Prints the table; `Ok(true)` when nothing breached.
pub fn agree(dir_a: &Path, dir_b: &Path, spec_path: &Path) -> Result<bool, String> {
    let spec = load(spec_path)?;
    let bound_of = |name: &str| -> Option<f64> {
        spec.get("end_to_end")?
            .as_arr()?
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    println!(
        "{:<13} {:<5} {:<30} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "file", "metric", "A", "B", "B/A", "bound"
    );
    let (mut breaches, mut compared) = (0u32, 0u32);
    for w in NAMES {
        // What the untraced run measured is judged there, not again from
        // the traced run's shorter facade phase.
        let mut judged: Vec<&str> = Vec::new();
        for kind in ["run", "trace"] {
            let (pa, pb) = (
                dir_a.join(format!("{kind}_{w}.json")),
                dir_b.join(format!("{kind}_{w}.json")),
            );
            if !pa.exists() && !pb.exists() {
                continue;
            }
            let (a, b) = (load(&pa)?, load(&pb)?);
            compared += 1;
            let same_seed = a.get("seed") == b.get("seed") && a.get("seed").is_some();
            for (side, f) in [("A", &a), ("B", &b)] {
                let failed = f.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
                if failed != 0.0 || f.get("correct") != Some(&Json::Bool(true)) {
                    println!(
                        "{w:<13} {kind:<5} {:<30} set {side}: {failed} failed ops  BREACH",
                        "failed_ops"
                    );
                    breaches += 1;
                }
            }
            for d in END_TO_END.iter().chain(PER_LAYER) {
                let (ra, rb) = match (reading(&a, d.name), reading(&b, d.name)) {
                    (Some(ra), Some(rb)) => (ra, rb),
                    (None, None) => continue,
                    _ => {
                        println!("{w:<13} {kind:<5} {:<30} in one set only  BREACH", d.name);
                        breaches += 1;
                        continue;
                    }
                };
                if (ra.value == 0.0 && rb.value == 0.0) || judged.contains(&d.name) {
                    continue;
                }
                judged.push(d.name);
                let (limit, verdict) = judge(d, bound_of(d.name), same_seed, ra, rb);
                breaches += (verdict == Verdict::Breach) as u32;
                println!(
                    "{w:<13} {kind:<5} {:<30} {:>16.6} {:>16.6} {:>8.4} {:>6}  {}",
                    d.name,
                    ra.value,
                    rb.value,
                    if ra.value == 0.0 {
                        f64::NAN
                    } else {
                        rb.value / ra.value
                    },
                    limit.map_or("-".to_string(), |l| if l == 0.0 {
                        "exact".into()
                    } else {
                        format!("{l}")
                    }),
                    verdict.name()
                );
            }
        }
    }
    if compared == 0 {
        return Err(format!(
            "no result files in {} and {}",
            dir_a.display(),
            dir_b.display()
        ));
    }
    println!("{compared} result files compared, {breaches} breaches");
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, spread: Option<f64>) -> Reading {
        Reading { value, spread }
    }

    fn d(name: &str) -> &'static Def {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap()
    }

    #[test]
    fn the_verdict_does_not_depend_on_the_order_of_the_sets() {
        for name in ["ops_per_s", "op_p50_ns"] {
            let m = d(name);
            for (x, y, want) in [
                (100.0, 95.0, Verdict::Ok),
                (100.0, 91.0, Verdict::Ok),
                (100.0, 90.0, Verdict::Breach),
                (100.0, 115.0, Verdict::Breach),
            ] {
                let ab = judge(m, Some(0.1), true, r(x, None), r(y, None)).1;
                let ba = judge(m, Some(0.1), true, r(y, None), r(x, None)).1;
                assert_eq!((ab, ba), (want, want), "{name} {x} {y}");
            }
        }
        assert_eq!(apart(4.0, 5.0), 0.25);
        assert_eq!(apart(5.0, 4.0), 0.25);
        assert_eq!(apart(0.0, 0.0), 0.0);
        assert_eq!(apart(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn wide_pass_spread_is_unresolved_not_unchanged() {
        let ops = d("ops_per_s");
        let v = judge(
            ops,
            Some(0.1),
            true,
            r(100.0, Some(0.3)),
            r(99.0, Some(0.02)),
        )
        .1;
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn counts_are_exact_on_one_seed_and_shown_across_seeds() {
        let t = d("transfers_per_op");
        assert_eq!(
            judge(t, None, true, r(0.5, None), r(0.5, None)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(t, None, true, r(0.5, None), r(0.5001, None)).1,
            Verdict::Breach
        );
        // Another seed is another stream: `read_ooc` moves 6 % of its
        // transfers between seeds.
        assert_eq!(
            judge(t, None, false, r(0.5, None), r(0.53, None)).1,
            Verdict::Info
        );
        let m = d("core.merges");
        assert_eq!(
            judge(m, None, false, r(10.0, None), r(12.0, None)).1,
            Verdict::Info
        );
        assert_eq!(
            judge(d("core.self_share"), None, true, r(0.4, None), r(0.9, None)).1,
            Verdict::Info
        );
    }
}

//! `gbench --compare A.json B.json`: two sets of runs (as `--out` writes
//! them), one row per workload and end-to-end metric, judged by the
//! bounds the benchmark fixes.

use std::path::Path;

use serde::Value;

use crate::measure::{median, quartiles};
use crate::spec::{MetricSpec, END_TO_END, WORKLOADS};

pub const SCHEMA: &str = "gbench.runs.v1";

/// The `runs` array of a run-set document.
pub fn parse_runs(text: &str) -> Result<Vec<Value>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} document"));
    }
    match doc.get("runs") {
        Some(Value::Array(runs)) => Ok(runs.clone()),
        _ => Err("no runs array".into()),
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// The untraced, full-scale runs of a set; smoke runs are refused because
/// their numbers are not comparable with anything.
fn load(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = parse_runs(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if runs
        .iter()
        .any(|r| r.get("smoke") != Some(&Value::Bool(false)))
    {
        return Err(format!(
            "{}: holds smoke runs, which are not comparable",
            path.display()
        ));
    }
    Ok(runs
        .into_iter()
        .filter(|r| r.get("trace") == Some(&Value::Bool(false)))
        .collect())
}

fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value").and_then(as_f64))
        .collect()
}

struct Summary {
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Summary {
    fn of(v: &[f64]) -> Summary {
        let (q1, q3) = if v.len() >= 2 {
            quartiles(v)
        } else {
            (f64::NAN, f64::NAN)
        };
        Summary {
            n: v.len(),
            median: median(v),
            q1,
            q3,
        }
    }

    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    fn value(&self) -> Value {
        Value::Object(vec![
            ("n".to_string(), Value::U64(self.n as u64)),
            ("median".to_string(), Value::F64(self.median)),
            ("q1".to_string(), Value::F64(self.q1)),
            ("q3".to_string(), Value::F64(self.q3)),
        ])
    }
}

/// `ok`, `worse` (B's median is worse than A's by more than the bound) or
/// `unresolved` (either set's own spread is wider than the bound, so the
/// medians cannot be told apart). `setup_s` is judged on its medians
/// alone: it is a few milliseconds on most workloads, and the driver's
/// contract exempts its spread for the same reason.
fn verdict(m: &MetricSpec, a: &Summary, b: &Summary) -> &'static str {
    if a.n < 2 || b.n < 2 {
        return "unresolved";
    }
    if m.name != "setup_s" && (a.spread() > m.bound || b.spread() > m.bound) {
        return "unresolved";
    }
    let worse = if m.higher_is_better {
        b.median < a.median * (1.0 - m.bound)
    } else {
        b.median > a.median * (1.0 + m.bound)
    };
    if worse {
        "worse"
    } else {
        "ok"
    }
}

/// Compare run set `b` against run set `a`. `Ok(true)` when every row is
/// `ok` and no run of either set failed a check.
pub fn run(a: &Path, b: &Path, out: Option<&Path>) -> Result<bool, String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let failed = |runs: &[Value]| {
        runs.iter()
            .filter(|r| r.get("correct") != Some(&Value::Bool(true)))
            .count()
    };
    let mut all_ok = failed(&runs_a) + failed(&runs_b) == 0;
    if !all_ok {
        println!(
            "runs with failed checks: {} in A, {} in B",
            failed(&runs_a),
            failed(&runs_b)
        );
    }
    println!(
        "{:<14} {:<16} {:>3} {:>13} {:>8} | {:>3} {:>13} {:>8} | {:>6} verdict",
        "workload", "metric", "nA", "median A", "iqr/med", "nB", "median B", "iqr/med", "bound"
    );
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            let (sa, sb) = (
                Summary::of(&values(&runs_a, w, m.name)),
                Summary::of(&values(&runs_b, w, m.name)),
            );
            if sa.n == 0 && sb.n == 0 {
                continue;
            }
            let v = verdict(m, &sa, &sb);
            all_ok &= v == "ok";
            println!(
                "{:<14} {:<16} {:>3} {:>13.5e} {:>7.2}% | {:>3} {:>13.5e} {:>7.2}% | {:>5.0}% {}",
                w,
                m.name,
                sa.n,
                sa.median,
                sa.spread() * 100.0,
                sb.n,
                sb.median,
                sb.spread() * 100.0,
                m.bound * 100.0,
                v
            );
            rows.push(Value::Object(vec![
                ("workload".to_string(), Value::Str(w.to_string())),
                ("metric".to_string(), Value::Str(m.name.to_string())),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
                ("bound".to_string(), Value::F64(m.bound)),
                ("a".to_string(), sa.value()),
                ("b".to_string(), sb.value()),
                ("verdict".to_string(), Value::Str(v.to_string())),
            ]));
        }
    }
    if let Some(path) = out {
        let doc = Value::Object(vec![
            (
                "schema".to_string(),
                Value::Str("gbench.compare.v1".to_string()),
            ),
            ("rows".to_string(), Value::Array(rows)),
        ]);
        let text = serde_json::to_string_pretty(&doc).expect("a value tree serializes");
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(v: &[f64]) -> Summary {
        Summary::of(v)
    }

    #[test]
    fn verdict_follows_the_bound_and_the_spread() {
        let rate = MetricSpec {
            name: "msgs_per_s",
            unit: "1/s",
            higher_is_better: true,
            bound: 0.10,
        };
        let steady = summary(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let slower = summary(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        let noisy = summary(&[60.0, 100.0, 140.0, 80.0, 120.0]);
        assert_eq!(verdict(&rate, &steady, &steady), "ok");
        assert_eq!(verdict(&rate, &steady, &slower), "worse");
        assert_eq!(verdict(&rate, &slower, &steady), "ok");
        assert_eq!(verdict(&rate, &steady, &noisy), "unresolved");
        assert_eq!(verdict(&rate, &steady, &summary(&[100.0])), "unresolved");
        // A lower-is-better metric worsens upwards.
        let latency = MetricSpec {
            name: "op_p50_us",
            unit: "us",
            higher_is_better: false,
            bound: 0.10,
        };
        assert_eq!(verdict(&latency, &slower, &steady), "worse");
        assert_eq!(verdict(&latency, &steady, &slower), "ok");
        // Set-up time is judged on medians even when it is noisy.
        let setup = MetricSpec {
            name: "setup_s",
            unit: "s",
            higher_is_better: false,
            bound: 0.10,
        };
        assert_eq!(verdict(&setup, &noisy, &noisy), "ok");
    }
}

//! `bench_gate` — fail CI when the throughput trajectory regresses.
//!
//! Reads `BENCH_throughput.json` (or the path given as the first
//! argument), takes the newest per-commit history entry as "current"
//! and the most recent *earlier* entry at the same scale (`quick` flag)
//! as the baseline, and compares every cell's `msgs_per_sec` keyed by
//! `(workload, wire_integrity, lanes, nodes)`. Any cell more than the
//! tolerance (default 10 %, override with `GRAVEL_GATE_TOLERANCE`)
//! below its baseline fails the gate with exit code 1.
//!
//! Zero is not a rate: a cell whose `msgs_per_sec` is 0 on either side
//! is a measurement that didn't happen, so both-zero pairs are skipped
//! and a 0 ↔ nonzero flip is reported as a schema change (the cell's
//! meaning moved between commits) instead of being fed into a division.
//!
//! With no comparable baseline (first run, or a scale change) the gate
//! passes vacuously — it polices the trajectory, it cannot invent one.

use serde::Value;

/// Per-cell identity within one report.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct CellKey {
    workload: String,
    wire_integrity: String,
    lanes: u64,
    nodes: u64,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn cells(entry: &Value) -> Vec<(CellKey, f64)> {
    let Some(Value::Array(cells)) = entry.get("cells") else {
        return Vec::new();
    };
    cells
        .iter()
        .filter_map(|c| {
            Some((
                CellKey {
                    workload: c.get("workload")?.as_str()?.to_string(),
                    wire_integrity: c.get("wire_integrity")?.as_str()?.to_string(),
                    lanes: num(c.get("lanes")?)? as u64,
                    nodes: num(c.get("nodes")?)? as u64,
                },
                num(c.get("msgs_per_sec")?)?,
            ))
        })
        .collect()
}

fn is_quick(entry: &Value) -> bool {
    matches!(entry.get("quick"), Some(Value::Bool(true)))
}

fn sha(entry: &Value) -> &str {
    entry.get("git_sha").and_then(Value::as_str).unwrap_or("?")
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());
    let tolerance: f64 = std::env::var("GRAVEL_GATE_TOLERANCE")
        .ok()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.10);

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc: Value = match serde_json::from_str(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_gate: {path} is not valid JSON: {e:?}");
            std::process::exit(1);
        }
    };
    let history = match doc.get("history") {
        Some(Value::Array(h)) if !h.is_empty() => h,
        _ => {
            println!("bench_gate: no history in {path}; gate passes vacuously");
            return;
        }
    };
    let current = history.last().expect("nonempty");
    let cur_cells = cells(current);
    let mut failures = Vec::new();

    let baseline = history
        .iter()
        .rev()
        .skip(1)
        .find(|e| sha(e) != sha(current) && is_quick(e) == is_quick(current));
    match baseline {
        None => println!(
            "bench_gate: no earlier {} entry to compare {} against; gate passes vacuously",
            if is_quick(current) { "quick-scale" } else { "full-scale" },
            sha(current),
        ),
        Some(baseline) => {
            let base_cells = cells(baseline);
            let mut schema_changes = Vec::new();
            let mut compared = 0usize;
            for (key, rate) in &cur_cells {
                let Some((_, base_rate)) = base_cells.iter().find(|(k, _)| k == key) else {
                    continue; // new cell this commit: nothing to regress against
                };
                match (*base_rate > 0.0, *rate > 0.0) {
                    (false, false) => continue, // never measured on either side
                    (false, true) | (true, false) => {
                        schema_changes.push(format!(
                            "{}/{} lanes={} nodes={}: {:.0} -> {:.0} msgs/s (cell changed meaning)",
                            key.workload,
                            key.wire_integrity,
                            key.lanes,
                            key.nodes,
                            base_rate,
                            rate,
                        ));
                        continue;
                    }
                    (true, true) => {}
                }
                compared += 1;
                let delta = rate / base_rate - 1.0;
                if delta < -tolerance {
                    failures.push(format!(
                        "{}/{} lanes={} nodes={}: {:.0} -> {:.0} msgs/s ({:+.1}%)",
                        key.workload,
                        key.wire_integrity,
                        key.lanes,
                        key.nodes,
                        base_rate,
                        rate,
                        delta * 100.0
                    ));
                }
            }
            if !schema_changes.is_empty() {
                println!(
                    "bench_gate: {} cell(s) flipped between zero and nonzero vs {} \
                     (schema change, not compared):",
                    schema_changes.len(),
                    sha(baseline),
                );
                for s in &schema_changes {
                    println!("  {s}");
                }
            }
            println!(
                "bench_gate: {compared} cells compared against baseline {} (current {})",
                sha(baseline),
                sha(current),
            );
        }
    }

    if failures.is_empty() {
        println!("bench_gate: pass (tolerance {:.0}%)", tolerance * 100.0);
    } else {
        eprintln!("bench_gate: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

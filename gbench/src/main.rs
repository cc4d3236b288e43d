//! `gbench` — the repository's benchmark.
//!
//! ```text
//! gbench --workload NAME --seed N --seconds S --trace 0|1   one workload; last stdout line is the result object
//! gbench [--seed N] [--seconds S] [--trace] [--smoke]        every workload, every metric by name
//! gbench --compare A.json B.json [--out FILE]                two sets of runs, per workload and metric
//! ```
//!
//! See `README.md` beside this package for the workloads, the metric
//! glossary and how the layers are expected to move the end-to-end numbers.

mod cluster;
mod compare;
mod measure;
mod replay;
mod spec;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Value;

use measure::{percentile, tail, Spans};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Outcome, Params};

const USAGE: &str = "usage: gbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] \
                     [--out FILE] [--trace-out FILE]\n       gbench --compare A.json B.json [--out FILE]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = val("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // The driver passes `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(val("--out")?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(val("--trace-out")?)),
            "--compare" => {
                a.compare = Some((
                    PathBuf::from(val("--compare")?),
                    PathBuf::from(val("--compare")?),
                ))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// One finished run of one workload: what goes on the result line and
/// into `--out`.
pub struct RunRecord {
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

fn run_workload(name: &str, p: &Params) -> Outcome {
    match name {
        "put_dense" => workloads::put_stream(p, false),
        "put_lossy" => workloads::put_stream(p, true),
        "gups_simt" => workloads::gups_simt(p),
        "pagerank" => workloads::pagerank(p),
        "latency_idle" => workloads::latency_idle(p),
        "get_under_put" => workloads::get_under_put(p),
        "cluster_gups" => cluster::cluster_gups(p),
        other => unreachable!("workload names are checked at parse time: {other}"),
    }
}

/// Run one workload and sort its latency samples. A workload that panics
/// is a failed run, not a lost benchmark pass.
fn run_guarded(name: &str, p: &Params) -> Outcome {
    measure::reset_peak_rss();
    let run = std::panic::AssertUnwindSafe(|| run_workload(name, p));
    let mut o = std::panic::catch_unwind(run).unwrap_or_else(|_| Outcome {
        attempted: 1,
        failed: 1,
        notes: vec![format!("{name} panicked")],
        ..Outcome::default()
    });
    o.op_ns.sort_unstable();
    o.put_visible_ns.sort_unstable();
    o
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn print_outcome(name: &str, o: &Outcome) {
    let ops = &o.op_ns;
    let (tail_p, tail_v) = tail(ops);
    println!(
        "  {name}: {} (median of {} segments; host speed {:.3}, steal {:.3}): {:.4e} msgs/s; \
         cpu {:.1} ns/msg; op p50 {:.1} us",
        if o.timer_paced {
            "timer-paced, not scaled"
        } else {
            "at reference host speed"
        },
        o.segments.len(),
        o.host_speed(),
        o.steal_frac(),
        o.msgs_per_s(),
        o.cpu_ns_per_msg(),
        o.op_p50_us(),
    );
    println!(
        "  {name}: as measured: {} msgs in {:.3} s = {:.4e} msgs/s; cpu {:.1} ns/msg; op p50 {:.1} us, \
         p{:.1} {:.1} us (n = {}); setup {:.4} s; peak rss {:.1} MB; failed {}/{}",
        o.msgs(),
        o.wall_s(),
        o.raw_msgs_per_s(),
        o.raw_cpu_ns_per_msg(),
        us(percentile(ops, 0.5)),
        tail_p * 100.0,
        us(tail_v),
        ops.len(),
        o.setup_s,
        o.peak_rss_mb,
        o.failed,
        o.attempted
    );
    if !o.put_visible_ns.is_empty() {
        let pv = &o.put_visible_ns;
        let (p, v) = tail(pv);
        println!(
            "  {name}: put-visible p50 {:.1} us, p{:.1} {:.1} us (n = {})",
            us(percentile(pv, 0.5)),
            p * 100.0,
            us(v),
            pv.len()
        );
    }
    for note in &o.notes {
        println!("  {name}: note: {note}");
    }
}

/// The untraced run: every end-to-end metric.
fn end_to_end_record(name: &str, p: &Params) -> RunRecord {
    let o = run_guarded(name, p);
    print_outcome(name, &o);
    let value = |metric: &str| match metric {
        "setup_s" => o.setup_s,
        "msgs_per_s" => o.msgs_per_s(),
        "cpu_ns_per_msg" => o.cpu_ns_per_msg(),
        "op_p50_us" => o.op_p50_us(),
        other => unreachable!("undeclared end-to-end metric {other}"),
    };
    RunRecord {
        workload: name.to_string(),
        trace: false,
        attempted: o.attempted.max(1),
        failed: o.failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect(),
    }
}

/// The traced run: half the time untraced, half with the program's
/// tracing on (their rates give the tracing overhead, the second gives
/// the per-layer counts), then the stage replay.
fn per_layer_record(name: &str, p: &Params, spans: &mut Spans) -> RunRecord {
    let half = Params {
        seconds: p.seconds / 2.0,
        ..*p
    };
    let root = spans.begin(format!("workload {name}"), None);
    let (plain, _) = spans.call("run untraced", Some(root), || run_guarded(name, &half));
    print_outcome(name, &plain);
    let (mut traced, _) = spans.call("run traced", Some(root), || {
        run_guarded(
            name,
            &Params {
                traced: true,
                ..half
            },
        )
    });
    print_outcome(name, &traced);
    let mut values: Vec<(&'static str, f64)> = std::mem::take(&mut traced.counts);
    let overhead = if plain.msgs_per_s() > 0.0 {
        1.0 - traced.msgs_per_s() / plain.msgs_per_s()
    } else {
        0.0
    };
    values.push(("trace.overhead_frac", overhead));
    let (tail_p, tail_v) = tail(&traced.op_ns);
    values.push(("e2e.op_tail_us", us(tail_v)));
    values.push(("e2e.op_tail_pct", tail_p * 100.0));
    values.push(("e2e.op_samples", traced.op_ns.len() as f64));
    let pv = &traced.put_visible_ns;
    values.push(("e2e.put_visible_p50_us", us(percentile(pv, 0.5))));
    values.push(("e2e.put_visible_tail_us", us(tail(pv).1)));
    values.push(("e2e.put_visible_samples", pv.len() as f64));
    values.push(("e2e.peak_rss_mb", plain.peak_rss_mb.max(traced.peak_rss_mb)));
    values.push(("e2e.raw_msgs_per_s", plain.raw_msgs_per_s()));
    values.push(("e2e.raw_cpu_ns_per_msg", plain.raw_cpu_ns_per_msg()));
    values.push(("e2e.raw_op_p50_us", us(percentile(&plain.op_ns, 0.5))));
    values.push(("e2e.segments", plain.segments.len() as f64));
    values.push(("host.speed", plain.host_speed()));
    values.push(("host.steal_frac", plain.steal_frac()));

    let replay_span = spans.begin("stage replay", Some(root));
    let replay = replay::run(p.seed, p.smoke, spans, replay_span);
    spans.end(replay_span);
    spans.end(root);
    // Both sides as measured: the replay is not scaled to the reference host.
    values.push((
        "replay.handoff_gap_ns_per_msg",
        plain.raw_cpu_ns_per_msg() - replay.work_ns_per_msg,
    ));
    values.extend(replay.metrics);

    // Metrics no source produced on this workload (cluster counts on an
    // in-process run and the reverse) read 0.
    let lookup = |metric: &str| {
        values
            .iter()
            .find(|(n, _)| *n == metric)
            .map_or(0.0, |(_, v)| *v)
    };
    RunRecord {
        workload: name.to_string(),
        trace: true,
        attempted: (plain.attempted + traced.attempted + replay.attempted).max(1),
        failed: plain.failed + traced.failed + replay.failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, lookup(m.name), m.unit))
            .collect(),
    }
}

fn metrics_value(metrics: &[(&'static str, f64, &'static str)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let cell = vec![
                    ("value".to_string(), Value::F64(*value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.to_string(), Value::Object(cell))
            })
            .collect(),
    )
}

/// The result object the driver reads from the last line of stdout.
fn result_line(r: &RunRecord) -> String {
    let obj = Value::Object(vec![
        ("correct".to_string(), Value::Bool(r.failed == 0)),
        ("attempted".to_string(), Value::U64(r.attempted)),
        ("failed".to_string(), Value::U64(r.failed)),
        ("metrics".to_string(), metrics_value(&r.metrics)),
    ]);
    serde_json::to_string(&obj).expect("a value tree serializes")
}

/// Append `records` to the run set in `path` (created if absent).
fn append_runs(path: &Path, args: &Args, records: &[RunRecord]) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => compare::parse_runs(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    for r in records {
        runs.push(Value::Object(vec![
            ("workload".to_string(), Value::Str(r.workload.clone())),
            ("seed".to_string(), Value::U64(args.seed)),
            ("seconds".to_string(), Value::F64(args.seconds)),
            ("trace".to_string(), Value::Bool(r.trace)),
            ("smoke".to_string(), Value::Bool(args.smoke)),
            ("correct".to_string(), Value::Bool(r.failed == 0)),
            ("attempted".to_string(), Value::U64(r.attempted)),
            ("failed".to_string(), Value::U64(r.failed)),
            ("metrics".to_string(), metrics_value(&r.metrics)),
        ]));
    }
    let doc = Value::Object(vec![
        (
            "schema".to_string(),
            Value::Str(compare::SCHEMA.to_string()),
        ),
        ("runs".to_string(), Value::Array(runs)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("a value tree serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn print_record(r: &RunRecord) {
    println!(
        "{} ({}):",
        r.workload,
        if r.trace {
            "per-layer, traced"
        } else {
            "end to end, untraced"
        }
    );
    for (name, value, unit) in &r.metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    println!(
        "  {:<40} {:>16.6} (failed {} of {})",
        "failed_frac",
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = measure::nproc();
    let seconds = if args.smoke {
        args.seconds / 50.0
    } else {
        args.seconds
    };
    println!(
        "gbench: seed {} | {:.2} s per timed region{} | nproc {nproc}; 2 generator threads (one per node), \
         {nproc} compute units on the SIMT workloads | transports are in-memory channels and Unix sockets on \
         this host's loopback: no real link",
        args.seed,
        seconds,
        if args.smoke { " (smoke, 1/50 scale)" } else { "" },
    );
    let params = Params {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        traced: false,
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut spans = Spans::new();
    let mut records = Vec::new();
    for name in &names {
        let record = if args.trace {
            per_layer_record(name, &params, &mut spans)
        } else {
            end_to_end_record(name, &params)
        };
        print_record(&record);
        records.push(record);
    }
    if args.trace {
        let path = match &args.trace_out {
            Some(p) => p.clone(),
            None => std::env::current_exe()
                .map_err(|e| e.to_string())?
                .with_file_name(format!(
                    "gbench-trace-{}.json",
                    args.workload.as_deref().unwrap_or("all")
                )),
        };
        std::fs::write(&path, spans.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "chrome trace: {} spans written to {}",
            spans.len(),
            path.display()
        );
    }
    if let Some(path) = &args.out {
        append_runs(path, args, &records)?;
    }
    let ok = records.iter().all(|r| r.failed == 0);
    // The driver's contract: with one workload selected, the last line of
    // stdout is its result object.
    if args.workload.is_some() {
        println!("{}", result_line(&records[0]));
    } else {
        println!(
            "gbench: {}",
            if ok {
                "every output verified"
            } else {
                "FAILED checks, see above"
            }
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gbench: {e}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    let outcome = match &args.compare {
        Some((a, b)) => compare::run(a, b, args.out.as_deref()),
        None => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "1", "--smoke"]).unwrap().trace);
        let a = args(&["--trace", "0", "--seed", "7"]).unwrap();
        assert!(!a.trace && a.seed == 7);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The declared names of `BENCHMARK.json` under `key`, with units.
    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks {key}")
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_names_equal_the_sets_benchmark_json_declares() {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let ours = |specs: &[spec::MetricSpec]| -> Vec<(String, String)> {
            specs
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in &all {
            assert!(name_ok(name), "bad name {name:?}");
        }
        let unique: std::collections::BTreeSet<&&str> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        // Bounds and directions agree too.
        let Some(Value::Array(items)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (item, m) in items.iter().zip(END_TO_END) {
            let better = item.get("better").and_then(Value::as_str);
            assert_eq!(
                better,
                Some(if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }),
                "{}",
                m.name
            );
            assert_eq!(item.get("bound"), Some(&Value::F64(m.bound)), "{}", m.name);
        }
    }

    /// A 1/50-scale pass of all seven workloads, end to end and traced:
    /// every check passes, every declared metric is emitted, the run set
    /// is stamped as a smoke run and `--compare` refuses it.
    #[test]
    fn smoke_pass_of_every_workload_verifies_and_is_refused_by_compare() {
        assert!(
            cluster::node_binary().is_some(),
            "build the cluster member first: cargo build --release -p gbench -p gravel-node"
        );
        let dir = cluster::RunDir::create("selftest").unwrap();
        let out = dir.0.join("smoke.json");
        for trace in [false, true] {
            let mut a = args(&["--smoke", "--seconds", "10"]).unwrap();
            a.trace = trace;
            a.out = Some(out.clone());
            a.trace_out = Some(dir.0.join("trace.json"));
            assert_eq!(run(&a), Ok(true), "trace={trace}");
        }
        let text = std::fs::read_to_string(&out).unwrap();
        let runs = compare::parse_runs(&text).unwrap();
        assert_eq!(runs.len(), 2 * WORKLOADS.len());
        for r in &runs {
            assert_eq!(r.get("smoke"), Some(&Value::Bool(true)));
            assert_eq!(r.get("failed"), Some(&Value::U64(0)));
            let traced = r.get("trace") == Some(&Value::Bool(true));
            let want = if traced { PER_LAYER } else { END_TO_END };
            let names: Vec<&str> = r
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(names, want.iter().map(|m| m.name).collect::<Vec<_>>());
        }
        let err = compare::run(&out, &out, None).unwrap_err();
        assert!(err.contains("smoke"), "{err}");
    }
}

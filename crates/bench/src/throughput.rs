//! Hot-path throughput measurement: messages/second through the
//! aggregate → deliver → apply pipeline.
//!
//! Two workloads, both at fixed sizes so successive runs are comparable
//! (`BENCH_throughput.json` is the repo's persistent perf trajectory):
//!
//! * **GUPS (pipeline-injected)** — the gated metric. Each node's update
//!   stream is precomputed and injected from a host producer thread in
//!   slot-sized batches, so the measured interval is dominated by the
//!   CPU-side hot path this bench exists to track (ring drain →
//!   aggregation → acknowledged delivery → zero-copy apply), not by the
//!   interpreted SIMT frontend.
//! * **PageRank (end-to-end)** — `run_live` over a fixed generated
//!   graph: it includes kernel dispatch and per-iteration barriers, the
//!   way applications actually experience the runtime.
//!
//! The report carries messages/sec plus the p50/p99 aggregate→apply
//! latency from the per-node `net.packet_latency_ns` histograms, so a
//! throughput win that costs tail latency is visible in the same file.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gravel_apps::graph::gen;
use gravel_apps::{gups, pagerank};
use gravel_core::{GravelConfig, GravelRuntime, WireIntegrity};
use gravel_gq::Message;
use gravel_telemetry::HistogramSnapshot;

/// One measured configuration cell.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ThroughputCell {
    /// Workload name (`"gups"`, `"gups_nocrc"`, `"pagerank"` or
    /// `"get_rpc"`).
    pub workload: String,
    /// Wire-integrity mode the cell ran under (`"crc32c"` or `"off"`).
    pub wire_integrity: String,
    /// Aggregator lanes per node: always 1. Part of the cell's key in
    /// `BENCH_throughput.json`, whose history has lanes=2 and lanes=4
    /// cells up to PR 17.
    pub lanes: usize,
    /// Cluster size.
    pub nodes: usize,
    /// Messages offloaded through the pipeline.
    pub messages: u64,
    /// Wall seconds from first injection to quiescence.
    pub elapsed_s: f64,
    /// `messages / elapsed_s`.
    pub msgs_per_sec: f64,
    /// Median aggregate→apply latency (ns) over all applied packets.
    pub p50_agg_apply_ns: u64,
    /// Tail aggregate→apply latency (ns).
    pub p99_agg_apply_ns: u64,
    /// Average flushed packet size in bytes.
    pub avg_packet_bytes: f64,
    /// Packets retransmitted (should stay 0 on the reliable fabric).
    pub retransmits: u64,
    /// Median foreground GET round-trip latency (ns). Zero for
    /// workloads that issue no GETs.
    pub p50_get_ns: u64,
    /// Tail foreground GET round-trip latency (ns). Zero for workloads
    /// that issue no GETs.
    pub p99_get_ns: u64,
    /// The same round trips as the requesting node itself recorded them
    /// (`node0.rpc.rtt_ns`, issue → completion; 1/8-octave buckets).
    pub p50_rtt_ns: u64,
    /// Tail of the node's own round-trip histogram (ns).
    pub p99_rtt_ns: u64,
    /// Express-band packets the cluster's aggregators sent, and frames
    /// its network threads received with the express stamp: nonzero
    /// when requests and replies took the express path.
    pub express_packets: u64,
    /// See `express_packets`.
    pub express_frames: u64,
}

/// The full report written to `BENCH_throughput.json`.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ThroughputReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// True when run with `--quick` (CI smoke scale — not comparable to
    /// full-size runs).
    pub quick: bool,
    /// GUPS updates per run.
    pub gups_updates: usize,
    /// PageRank graph vertices.
    pub pagerank_vertices: usize,
    /// All measured cells.
    pub cells: Vec<ThroughputCell>,
    /// Fractional throughput cost of wire integrity: the
    /// median over trial pairs of `1 - gups_rate / gups_nocrc_rate`,
    /// where each pair ran back to back (paired so machine drift
    /// cancels). The acceptance bar is < 0.03 at full scale; negative
    /// values mean the CRC was free in this run (within noise).
    pub integrity_tax: f64,
}

impl ThroughputReport {
    /// The cell of `workload`, if measured.
    pub fn cell(&self, workload: &str) -> Option<&ThroughputCell> {
        self.cells.iter().find(|c| c.workload == workload)
    }
}

/// Benchmark scale.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Total GUPS updates.
    pub gups_updates: usize,
    /// GUPS table length.
    pub gups_table: usize,
    /// PageRank vertex count.
    pub pr_vertices: usize,
    /// PageRank iterations.
    pub pr_iters: usize,
    /// Foreground GET probes per request-reply latency cell.
    pub get_probes: usize,
    /// Best-of trials per cell.
    pub trials: u32,
}

impl Scale {
    /// Full scale: long enough that the pipeline reaches steady state.
    pub fn full() -> Self {
        Scale {
            gups_updates: 1_500_000,
            gups_table: 1 << 14,
            pr_vertices: 4_000,
            pr_iters: 3,
            get_probes: 1_500,
            trials: 3,
        }
    }

    /// CI smoke scale.
    pub fn quick() -> Self {
        Scale {
            gups_updates: 40_000,
            gups_table: 1 << 10,
            pr_vertices: 1_600,
            pr_iters: 3,
            get_probes: 150,
            trials: 1,
        }
    }
}

/// Merge every node's aggregate→apply latency histogram.
fn merged_latency(rt: &GravelRuntime) -> HistogramSnapshot {
    let snap = rt.telemetry_snapshot();
    let mut merged = HistogramSnapshot::default();
    for n in 0..rt.nodes() {
        if let Some(h) = snap.histogram(&format!("node{n}.net.packet_latency_ns")) {
            merged.merge(h);
        }
    }
    merged
}

fn cell_from_run(
    workload: &str,
    integrity: WireIntegrity,
    nodes: usize,
    messages: u64,
    elapsed_s: f64,
    rt: &GravelRuntime,
) -> ThroughputCell {
    let lat = merged_latency(rt);
    let stats = rt.stats();
    ThroughputCell {
        workload: workload.to_string(),
        wire_integrity: match integrity {
            WireIntegrity::Crc32c => "crc32c".to_string(),
            WireIntegrity::Off => "off".to_string(),
        },
        lanes: 1,
        nodes,
        messages,
        elapsed_s,
        msgs_per_sec: messages as f64 / elapsed_s,
        p50_agg_apply_ns: lat.p50(),
        p99_agg_apply_ns: lat.p99(),
        avg_packet_bytes: stats.avg_packet_bytes(),
        retransmits: stats.total_retransmits(),
        p50_get_ns: 0,
        p99_get_ns: 0,
        p50_rtt_ns: stats.nodes[0].rpc.rtt_p50_ns,
        p99_rtt_ns: stats.nodes[0].rpc.rtt_p99_ns,
        express_packets: stats.nodes.iter().map(|n| n.agg_express_packets).sum(),
        express_frames: stats.nodes.iter().map(|n| n.net.express_frames).sum(),
    }
}

/// One GUPS trial: inject every node's precomputed update stream from a
/// host producer thread, then time to quiescence. `integrity` selects
/// the wire-integrity mode — the `Off` ablation prices the CRC32C
/// seal/verify work against an otherwise identical run.
fn gups_trial(scale: &Scale, nodes: usize, integrity: WireIntegrity) -> ThroughputCell {
    let input = gups::GupsInput {
        updates: scale.gups_updates,
        table_len: scale.gups_table,
        seed: 7,
    };
    let part = gups::partition(&input, nodes);
    // Precompute each node's message stream outside the timed region.
    let streams: Vec<Vec<Message>> = (0..nodes)
        .map(|node| {
            gups::node_updates(&input, nodes, node)
                .into_iter()
                .map(|g| Message::inc(part.owner(g) as u32, part.local_offset(g), 1))
                .collect()
        })
        .collect();
    let heap_len = (0..nodes).map(|n| part.local_len(n)).max().unwrap();
    let messages: u64 = streams.iter().map(|s| s.len() as u64).sum();

    let mut cfg = GravelConfig::paper(nodes, heap_len);
    cfg.wire_integrity = integrity;
    let workload = match integrity {
        WireIntegrity::Crc32c => "gups",
        WireIntegrity::Off => "gups_nocrc",
    };
    let rt = GravelRuntime::new(cfg);
    let start = Instant::now();
    std::thread::scope(|s| {
        for (node, stream) in streams.iter().enumerate() {
            let node = rt.node(node).clone();
            s.spawn(move || node.host_send_batch(stream));
        }
    });
    rt.quiesce();
    let elapsed = start.elapsed().as_secs_f64();
    let cell = cell_from_run(workload, integrity, nodes, messages, elapsed, &rt);
    rt.shutdown().expect("throughput GUPS run must be clean");
    cell
}

/// One PageRank trial: `run_live` end to end.
fn pagerank_trial(scale: &Scale, nodes: usize) -> ThroughputCell {
    let g = gen::hugebubbles_like(scale.pr_vertices, 11);
    let part = pagerank::partition(&g, nodes);
    let heap_len = (0..nodes).map(|n| part.local_len(n)).max().unwrap();
    let rt = GravelRuntime::new(GravelConfig::paper(nodes, heap_len));
    let start = Instant::now();
    pagerank::run_live(&rt, &g, scale.pr_iters, pagerank::default_damping());
    rt.quiesce();
    let elapsed = start.elapsed().as_secs_f64();
    let messages = rt.stats().total_offloaded();
    let cell = cell_from_run(
        "pagerank",
        WireIntegrity::Crc32c,
        nodes,
        messages,
        elapsed,
        &rt,
    );
    rt.shutdown()
        .expect("throughput PageRank run must be clean");
    cell
}

/// `p`-th percentile of an ascending-sorted latency sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[((n - 1) as f64 * p).round() as usize],
    }
}

/// One request-reply latency trial: a continuous background PUT storm
/// keeps every node's bulk class saturated while the foreground issues
/// sequential GET probes from node 0 and times each round trip: GETs
/// and their replies take the express path (own ring, own flow,
/// priority ingress) past the queued bulk. `msgs_per_sec` is the
/// foreground GET op rate; the headline fields are
/// `p50_get_ns`/`p99_get_ns`, and the node's own `rpc.rtt_ns`
/// histogram is printed beside them.
fn get_rpc_trial(scale: &Scale, nodes: usize) -> ThroughputCell {
    let heap_len: usize = 1 << 10;
    let mut cfg = GravelConfig::paper(nodes, heap_len);
    // Probes must complete, not race the deadline: the cell measures
    // scheduling latency, and a timeout would poison the percentiles.
    cfg.rpc.timeout = Duration::from_secs(10);
    // 4 kB bulk packets (the fault-sweep size): a probe waits for at
    // most the one bulk packet its receiver has in hand, ~128 messages
    // of apply work here.
    cfg.node_queue_bytes = 4096;
    let rt = GravelRuntime::new(cfg);
    for node in 0..nodes {
        for addr in 0..heap_len as u64 {
            rt.heap(node).store(addr, addr ^ ((node as u64) << 32));
        }
    }
    // Per-node background chunk: bulk INCs at the right neighbour,
    // resent in a loop until the foreground probes finish.
    let chunks: Vec<Vec<Message>> = (0..nodes)
        .map(|node| {
            let dest = ((node + 1) % nodes) as u32;
            (0..2048u64)
                .map(|i| Message::inc(dest, i % heap_len as u64, 1))
                .collect()
        })
        .collect();
    let stop = AtomicBool::new(false);
    let mut lat: Vec<u64> = Vec::with_capacity(scale.get_probes);
    // Keep ~64k bulk messages in flight cluster-wide: enough beyond the
    // delivery windows that every ring, sender and ingress holds a
    // bulk backlog (what the express path has to get past), bounded so
    // the run measures that rather than unbounded-overload queueing.
    const BULK_IN_FLIGHT: u64 = 64 * 1024;
    let shared: Vec<_> = (0..nodes).map(|n| rt.node(n).clone()).collect();
    let start = Instant::now();
    let fg_elapsed = std::thread::scope(|s| {
        for (id, chunk) in chunks.iter().enumerate() {
            let node = rt.node(id).clone();
            let stop = &stop;
            let shared = &shared;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let applied: u64 = shared.iter().map(|n| n.applied.get()).sum();
                    let offloaded: u64 = shared.iter().map(|n| n.offloaded.get()).sum();
                    if offloaded.saturating_sub(applied) < BULK_IN_FLIGHT {
                        node.host_send_batch(chunk);
                    } else {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            });
        }
        for i in 0..scale.get_probes {
            let dest = if nodes > 1 { (1 + i % (nodes - 1)) as u32 } else { 0 };
            let addr = (i % heap_len) as u64;
            let t0 = Instant::now();
            let got = rt.host_get(0, dest, addr);
            assert!(got.is_ok(), "GET probe failed mid-bench: {got:?}");
            lat.push(t0.elapsed().as_nanos() as u64);
        }
        let fg = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        fg
    });
    rt.quiesce();
    lat.sort_unstable();
    let mut cell = cell_from_run(
        "get_rpc",
        WireIntegrity::Crc32c,
        nodes,
        scale.get_probes as u64,
        fg_elapsed,
        &rt,
    );
    cell.p50_get_ns = percentile(&lat, 0.50);
    cell.p99_get_ns = percentile(&lat, 0.99);
    rt.shutdown().expect("throughput GET run must be clean");
    cell
}

/// Keep whichever of `best`/`c` has the higher messages/sec.
fn faster_of(best: Option<ThroughputCell>, c: ThroughputCell) -> Option<ThroughputCell> {
    match best {
        Some(b) if b.msgs_per_sec >= c.msgs_per_sec => Some(b),
        _ => Some(c),
    }
}

/// Best-of-`trials` (highest messages/sec) for one cell.
fn best_of(trials: u32, mut run: impl FnMut() -> ThroughputCell) -> ThroughputCell {
    let mut best = run();
    for _ in 1..trials {
        let c = run();
        if c.msgs_per_sec > best.msgs_per_sec {
            best = c;
        }
    }
    best
}

/// Run every cell: GUPS with and without wire integrity, PageRank, and
/// GETs under a PUT storm.
pub fn measure(scale: &Scale, nodes: usize, quick: bool) -> ThroughputReport {
    let mut cells = Vec::new();
    // Integrity ablation: the same GUPS run with framing CRCs
    // disabled, pricing the per-frame seal/verify work. The two sides'
    // trials are interleaved so warmup and clock drift cancel instead of
    // systematically favoring whichever cell runs later.
    eprintln!("[throughput] gups nodes={nodes} (+ interleaved wire_integrity=off ablation)");
    let mut on1: Option<ThroughputCell> = None;
    let mut off1: Option<ThroughputCell> = None;
    let mut pair_ratios = Vec::new();
    // At least nine pairs (when not a smoke run): the tax is a small
    // difference between noisy rates, so it needs more samples than the
    // headline cells. Order alternates within pairs so short-scale
    // drift biases half the ratios each way and the median discards it;
    // one discarded warmup trial keeps process start-up cost (page
    // faults, lazy init) out of the first pair.
    let pairs = if scale.trials > 1 { scale.trials.max(9) } else { 1 };
    if scale.trials > 1 {
        let _ = gups_trial(scale, nodes, WireIntegrity::Crc32c);
    }
    for p in 0..pairs {
        let (first, second) = if p % 2 == 0 {
            (WireIntegrity::Crc32c, WireIntegrity::Off)
        } else {
            (WireIntegrity::Off, WireIntegrity::Crc32c)
        };
        let a = gups_trial(scale, nodes, first);
        let b = gups_trial(scale, nodes, second);
        let (on, off) = if p % 2 == 0 { (a, b) } else { (b, a) };
        pair_ratios.push(on.msgs_per_sec / off.msgs_per_sec);
        on1 = faster_of(on1, on);
        off1 = faster_of(off1, off);
    }
    cells.push(on1.expect("trials >= 1"));
    cells.push(off1.expect("trials >= 1"));
    // At least best-of-5: a PageRank cell is single-digit milliseconds,
    // so one scheduler hiccup on a small CI box swings a single trial
    // by tens of percent.
    eprintln!("[throughput] pagerank nodes={nodes}");
    cells.push(best_of(scale.trials.max(5), || pagerank_trial(scale, nodes)));
    // Request-reply latency under bulk pressure.
    eprintln!("[throughput] get_rpc nodes={nodes} (foreground GETs vs PUT storm)");
    cells.push(best_of(scale.trials, || get_rpc_trial(scale, nodes)));
    // Median of the per-pair on/off rate ratios: each ratio compares
    // two back-to-back runs, so slow machine drift (noisy neighbors,
    // frequency changes) cancels where a best-vs-best comparison would
    // absorb it.
    pair_ratios.sort_by(f64::total_cmp);
    let integrity_tax = match pair_ratios.get(pair_ratios.len() / 2) {
        Some(r) => 1.0 - r,
        None => f64::NAN,
    };
    ThroughputReport {
        schema: "gravel.throughput.v4".to_string(),
        quick,
        gups_updates: scale.gups_updates,
        pagerank_vertices: scale.pr_vertices,
        cells,
        integrity_tax,
    }
}

/// Write the report to `path` (pretty JSON), appending to the per-commit
/// history instead of overwriting it.
///
/// The document keeps the latest report's fields at the top level (the
/// CI smoke assert and ad-hoc readers consume those) and accumulates a
/// `history` array with one entry per commit, keyed by `git_sha`.
/// Re-running on the same commit replaces that commit's entry, so the
/// file tracks the perf trajectory across PRs without duplicate points.
pub fn save(report: &ThroughputReport, path: &str) -> std::io::Result<()> {
    use serde::{Serialize as _, Value};

    let sha = git_head_sha();
    let mut history: Vec<Value> = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| serde_json::from_str::<Value>(&t).ok())
        .and_then(|old| match old.get("history") {
            Some(Value::Array(h)) => Some(h.clone()),
            _ => None,
        })
        .unwrap_or_default();
    history.retain(|e| e.get("git_sha").and_then(Value::as_str) != Some(sha.as_str()));
    let mut entry = match report.serialize() {
        Value::Object(fields) => fields,
        _ => unreachable!("a struct serializes to an object"),
    };
    entry.retain(|(k, _)| k != "schema"); // entry shape is the document's
    entry.insert(0, ("git_sha".to_string(), Value::Str(sha.clone())));
    history.push(Value::Object(entry));
    let mut doc = match report.serialize() {
        Value::Object(fields) => fields,
        _ => unreachable!("a struct serializes to an object"),
    };
    doc.push(("git_sha".to_string(), Value::Str(sha)));
    doc.push(("history".to_string(), Value::Array(history)));
    let mut f = std::fs::File::create(path)?;
    f.write_all(
        serde_json::to_string_pretty(&Value::Object(doc))
            .map_err(|e| std::io::Error::other(e.to_string()))?
            .as_bytes(),
    )?;
    eprintln!("[saved {path}]");
    Ok(())
}

/// The current commit's SHA, or `"unknown"` outside a git checkout.
fn git_head_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod save_tests {
    use super::*;
    use serde::Value;

    fn tiny_report() -> ThroughputReport {
        ThroughputReport {
            schema: "gravel.throughput.v4".to_string(),
            quick: true,
            gups_updates: 1,
            pagerank_vertices: 1,
            cells: Vec::new(),
            integrity_tax: 0.0,
        }
    }

    fn read_doc(path: &str) -> Value {
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn history(doc: &Value) -> Vec<Value> {
        match doc.get("history") {
            Some(Value::Array(h)) => h.clone(),
            other => panic!("history missing: {other:?}"),
        }
    }

    #[test]
    fn save_appends_history_and_replaces_same_commit() {
        let path = std::env::temp_dir()
            .join(format!("gravel_bench_hist_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        std::fs::remove_file(&path).ok();
        save(&tiny_report(), &path).unwrap();
        // Same commit again: the history entry is replaced, not duplicated.
        save(&tiny_report(), &path).unwrap();
        let doc = read_doc(&path);
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("gravel.throughput.v4"));
        assert!(
            matches!(doc.get("cells"), Some(Value::Array(_))),
            "latest cells stay at the top level"
        );
        let hist = history(&doc);
        assert_eq!(hist.len(), 1, "same-SHA entries are replaced");
        assert!(hist[0].get("git_sha").and_then(Value::as_str).is_some());
        // An entry for a *different* commit survives the next save.
        let mut other_fields = match &hist[0] {
            Value::Object(f) => f.clone(),
            other => panic!("entry not an object: {other:?}"),
        };
        for (k, v) in &mut other_fields {
            if k == "git_sha" {
                *v = Value::Str("0".repeat(40));
            }
        }
        let mut doc_fields = match doc {
            Value::Object(f) => f,
            _ => unreachable!(),
        };
        for (k, v) in &mut doc_fields {
            if k == "history" {
                if let Value::Array(h) = v {
                    h.push(Value::Object(other_fields.clone()));
                }
            }
        }
        std::fs::write(&path, serde_json::to_string(&Value::Object(doc_fields)).unwrap())
            .unwrap();
        save(&tiny_report(), &path).unwrap();
        assert_eq!(history(&read_doc(&path)).len(), 2, "other commits kept");
        std::fs::remove_file(&path).ok();
    }
}

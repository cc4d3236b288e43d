//! `throughput` — the repo's persistent hot-path benchmark.
//!
//! Runs GUPS (pipeline-injected), PageRank (end-to-end) and GETs under
//! a PUT storm at fixed sizes and writes `BENCH_throughput.json` in the
//! working directory, so the perf trajectory of the aggregate→apply
//! path survives between PRs.
//! `--quick` shrinks everything to CI smoke scale.

use gravel_bench::report::{f2, Table};
use gravel_bench::throughput::{self, Scale};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let report = throughput::measure(&scale, 4, quick);

    let mut t = Table::new(
        "throughput",
        "hot-path throughput",
        &[
            "workload",
            "messages",
            "Mmsg/s",
            "p50 µs",
            "p99 µs",
            "avg pkt B",
            "rtx",
            "p50 GET µs",
            "p99 GET µs",
        ],
    );
    for c in &report.cells {
        t.row(vec![
            c.workload.clone(),
            c.messages.to_string(),
            f2(c.msgs_per_sec / 1e6),
            f2(c.p50_agg_apply_ns as f64 / 1e3),
            f2(c.p99_agg_apply_ns as f64 / 1e3),
            f2(c.avg_packet_bytes),
            c.retransmits.to_string(),
            f2(c.p50_get_ns as f64 / 1e3),
            f2(c.p99_get_ns as f64 / 1e3),
        ]);
    }
    t.emit();
    println!(
        "\nWire-integrity tax (crc32c vs off): {:.2}%",
        report.integrity_tax * 100.0
    );
    if let Some(get) = report.cell("get_rpc") {
        println!(
            "GET under PUT storm: p50 {:.1} µs, p99 {:.1} µs \
             (node0.rpc.rtt_ns: p50 {:.1} µs, p99 {:.1} µs; \
             {} express packets sent, {} express frames received)",
            get.p50_get_ns as f64 / 1e3,
            get.p99_get_ns as f64 / 1e3,
            get.p50_rtt_ns as f64 / 1e3,
            get.p99_rtt_ns as f64 / 1e3,
            get.express_packets,
            get.express_frames,
        );
    }

    throughput::save(&report, "BENCH_throughput.json").expect("write BENCH_throughput.json");
}

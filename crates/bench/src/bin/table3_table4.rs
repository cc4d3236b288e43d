//! Tables 3 and 4 — the evaluated configuration and the workload inputs,
//! paper vs. this reproduction. These tables are descriptive (no
//! measurement), but printing them side by side makes every substitution
//! and scale factor explicit and machine-readable.

use gravel_bench::report::Table;
use gravel_cluster::Calibration;
use gravel_core::GravelConfig;

fn main() {
    let cal = Calibration::paper();
    let cfg = GravelConfig::paper(8, 1);

    let mut t3 = Table::new(
        "table3",
        "Node architecture: paper (AMD A10-7850K cluster) vs this reproduction",
        &["component", "paper", "this repo"],
    );
    t3.row(vec![
        "GPU".into(),
        "8 CUs, 720 MHz, 64-wide wavefronts".into(),
        format!("software SIMT engine: {} CUs, {}-wide wavefronts", cfg.num_cus, cfg.wf_width),
    ]);
    t3.row(vec![
        "CPU".into(),
        "2 cores / 4 threads, 3.7 GHz".into(),
        "host threads; modelled as one saturated CPU per node".into(),
    ]);
    t3.row(vec![
        "NIC".into(),
        "56 Gb/s InfiniBand".into(),
        format!(
            "modelled link: {} GB/s, {} µs wire + 2×{} µs CPU per packet",
            cal.link_bw / 1_000_000_000,
            cal.msg_overhead_ns / 1000,
            cal.cpu_per_packet_ns / 1000
        ),
    ]);
    t3.row(vec![
        "per-node queues".into(),
        "24 × 64 kB, 125 µs timeout".into(),
        format!(
            "{} kB, {} µs timeout (live runtime + model)",
            cfg.node_queue_bytes / 1024,
            cfg.flush_timeout.as_micros()
        ),
    ]);
    t3.row(vec![
        "producer/consumer queue".into(),
        "1 MB".into(),
        format!("{} MB ({} slots × {} lanes × 32 B)", cfg.queue.capacity_bytes() / (1 << 20), cfg.queue.slots, cfg.queue.lane_width),
    ]);
    t3.row(vec![
        "aggregator".into(),
        "1 CPU thread".into(),
        "1 thread per node".into(),
    ]);
    t3.emit();

    let mut t4 = Table::new(
        "table4",
        "Application inputs: paper vs bench scale",
        &["benchmark", "paper input", "this repo (bench scale)"],
    );
    t4.row(vec![
        "GUPS".into(),
        "~180 M updates".into(),
        "180 M updates (full scale)".into(),
    ]);
    t4.row(vec![
        "PR-1 / SSSP-1 / color-1".into(),
        "hugebubbles-00020: 21 M v, 64 M e".into(),
        "synthetic mesh: 16 M v, 48 M e (label-shuffle fitted to 37.7% remote)".into(),
    ]);
    t4.row(vec![
        "PR-2 / SSSP-2 / color-2".into(),
        "cage15: 5.2 M v, 99 M e".into(),
        "synthetic banded: 4 M v, 76 M e (band fitted to 16.5% remote)".into(),
    ]);
    t4.row(vec![
        "kmeans".into(),
        "8 clusters, 16 M points".into(),
        "8 clusters, 4 M points".into(),
    ]);
    t4.row(vec![
        "mer".into(),
        "human-chr14, 3.6 GB reads".into(),
        "synthetic genome: 1 M reads × 100 bp → 80 M k-mers".into(),
    ]);
    t4.emit();
}

//! Future-work extensions from the paper, evaluated with the calibrated
//! model:
//!
//! * **§10 — hierarchical aggregation beyond 8 nodes.** Flat per-node
//!   aggregation starves as the destination count grows; a two-level
//!   hierarchy (16-node groups) keeps packets large at 128-256 nodes for
//!   one extra hop.
//! * **§8.1 — a hardware aggregator.** The CPU spends 65 % of its time
//!   polling and the repack + MPI software path eats the rest; dedicated
//!   hardware (a control processor on the GPU or NIC) removes that load
//!   from the node's CPU.

use gravel_bench::report::{bytes_h, f2, Table};
use gravel_cluster::hierarchy::group_size;
use gravel_cluster::{hierarchical_trace, simulate, Calibration, Style, WorkloadTrace};

/// A GUPS-shaped uniform scatter of `total` updates over `nodes` nodes.
fn uniform(nodes: usize, total: u64) -> WorkloadTrace {
    WorkloadTrace::uniform("GUPS", nodes, 1, 0, total / (nodes as u64 * nodes as u64))
}

fn main() {
    let cal = Calibration::paper();
    let params = Style::Gravel.params(&cal);
    let total: u64 = 1 << 26; // ~67 M updates, constant across sizes

    // --- §10: flat vs two-level aggregation, 8..256 nodes --------------
    let mut t = Table::new(
        "ext_hierarchy",
        "Flat vs two-level (16-node groups) aggregation — GUPS updates/s (M) and avg packet",
        &["nodes", "flat rate", "flat packet", "2-level rate", "2-level packet"],
    );
    for nodes in [8usize, 16, 32, 64, 128, 256] {
        let flat_tr = uniform(nodes, total);
        let flat = simulate(&flat_tr, &cal, &params);
        let hier_tr = hierarchical_trace(&flat_tr, group_size(nodes));
        let hier = simulate(&hier_tr, &cal, &params);
        t.row(vec![
            nodes.to_string(),
            format!("{:.1}", flat.ops_per_sec(total) / 1e6),
            bytes_h(flat.avg_packet_bytes()),
            format!("{:.1}", hier.ops_per_sec(total) / 1e6),
            bytes_h(hier.avg_packet_bytes()),
        ]);
    }
    t.emit();
    println!(
        "\npaper §10: one indirect hop of 16-node aggregation should carry \
         Gravel to 256 nodes — the crossover above is that claim priced out."
    );

    // --- §8.1: software vs hardware aggregator -------------------------
    let hw = cal.hardware_aggregator();
    let mut t2 = Table::new(
        "ext_hw_aggregator",
        "CPU-side vs hardware aggregator at 8 nodes (speedup of hw over sw)",
        &["workload shape", "sw time (ms)", "hw time (ms)", "speedup"],
    );
    for (name, trace) in [
        ("uniform scatter (GUPS-like)", uniform(8, total)),
        (
            "sparse supersteps (SSSP-like)",
            WorkloadTrace::uniform("sparse", 8, 512, 100, 200),
        ),
    ] {
        let sw = simulate(&trace, &cal, &Style::Gravel.params(&cal));
        let hwr = simulate(&trace, &hw, &Style::Gravel.params(&hw));
        t2.row(vec![
            name.to_string(),
            format!("{:.2}", sw.total_ns as f64 / 1e6),
            format!("{:.2}", hwr.total_ns as f64 / 1e6),
            f2(sw.total_ns as f64 / hwr.total_ns as f64),
        ]);
    }
    t2.emit();
    println!(
        "\npaper §8.1: dedicated hardware frees the CPU the aggregator \
         monopolizes (65% of it spent polling on the APU)."
    );
}

//! Hierarchical aggregation (paper §10, future work).
//!
//! The paper's evaluation stops at eight nodes and sketches the path to
//! larger systems: "Larger systems could be organized in a logical
//! hierarchy …, with multiple levels of aggregation. For example, a two
//! level hierarchy with each level doing a 16-node aggregation supports
//! 256 nodes with one indirect hop."
//!
//! Flat aggregation degrades as the cluster grows because each node
//! splits its traffic over `n-1` destination queues: per-queue fill rate
//! drops, the 125 µs timeout flushes ever-smaller packets, and per-packet
//! CPU cost swamps the node. A two-level hierarchy keeps the fan-out at
//! each level to `√n`-ish: messages are first aggregated per destination
//! *group* and shipped to a gateway inside that group, which re-aggregates
//! per final node. One extra hop buys packets that stay large.
//!
//! [`hierarchical_trace`] rewrites a trace into its two-phase equivalent
//! so the standard [`simulate`](crate::simulate) model prices it — both
//! phases pay real aggregation, packetization, wire, and CPU costs.

use crate::trace::{NodeStep, StepTrace, WorkloadTrace};

/// Group size of a two-level hierarchy over `nodes` nodes: the paper's
/// 16-node groups, or half the cluster below 32 nodes.
pub fn group_size(nodes: usize) -> usize {
    16.min(nodes / 2).max(2)
}

/// The gateway node that carries traffic from `src` into `dest_group`:
/// spread across the group by the sender's index so gateway load
/// balances.
pub fn gateway(src: usize, dest_group: usize, group_size: usize, nodes: usize) -> usize {
    (dest_group * group_size + src % group_size).min(nodes - 1)
}

/// Rewrite `trace` for two-level aggregation with groups of
/// `group_size`. Each original superstep becomes two: source →
/// destination-group gateway, then gateway → final node. Intra-group
/// messages skip the gateway.
pub fn hierarchical_trace(trace: &WorkloadTrace, group_size: usize) -> WorkloadTrace {
    assert!(group_size >= 2, "degenerate group");
    let n = trace.nodes;
    let mut out = WorkloadTrace::new(format!("{}+hier{}", trace.name, group_size), n);
    for step in &trace.steps {
        // Phase A: per-group aggregation at the source; intra-group
        // traffic goes straight to its destination.
        let mut phase_a: Vec<NodeStep> = step
            .per_node
            .iter()
            .map(|ns| NodeStep {
                gpu_ops: ns.gpu_ops,
                routed: vec![0; n],
                class: ns.class,
                local_pgas: ns.local_pgas,
            })
            .collect();
        // Phase B: gateways forward to final destinations.
        let mut phase_b: Vec<NodeStep> = (0..n)
            .map(|_| NodeStep { gpu_ops: 0, routed: vec![0; n], class: step.per_node[0].class, local_pgas: 0 })
            .collect();
        for (src, ns) in step.per_node.iter().enumerate() {
            let src_group = src / group_size;
            for (dest, &m) in ns.routed.iter().enumerate() {
                if m == 0 {
                    continue;
                }
                let dest_group = dest / group_size;
                if dest_group == src_group {
                    // One hop, as in the flat scheme.
                    phase_a[src].routed[dest] += m;
                } else {
                    let gw = gateway(src, dest_group, group_size, n);
                    phase_a[src].routed[gw] += m;
                    phase_b[gw].routed[dest] += m;
                    phase_b[gw].class = ns.class;
                }
            }
        }
        out.push_step(StepTrace { per_node: phase_a });
        out.push_step(StepTrace { per_node: phase_b });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::model::simulate;
    use crate::styles::Style;

    fn uniform(nodes: usize, total: u64) -> WorkloadTrace {
        WorkloadTrace::uniform("u", nodes, 1, 0, total / (nodes as u64 * nodes as u64))
    }

    #[test]
    fn rewrite_conserves_end_to_end_messages() {
        let t = uniform(32, 1 << 16);
        let h = hierarchical_trace(&t, 8);
        assert_eq!(h.steps.len(), 2);
        // Phase A carries everything once; phase B carries only the
        // inter-group share once more.
        let inter: u64 = (0..32)
            .flat_map(|s| (0..32).map(move |d| (s, d)))
            .filter(|(s, d)| s / 8 != d / 8)
            .map(|_| (1u64 << 16) / (32 * 32))
            .sum();
        let a: u64 = h.steps[0].per_node.iter().map(|n| n.routed_total()).sum();
        let b: u64 = h.steps[1].per_node.iter().map(|n| n.routed_total()).sum();
        assert_eq!(a, t.total_routed());
        assert_eq!(b, inter);
    }

    #[test]
    fn gateways_stay_inside_destination_group() {
        for src in 0..32 {
            for dg in 0..4 {
                let gw = gateway(src, dg, 8, 32);
                assert_eq!(gw / 8, dg, "gateway {gw} outside group {dg}");
            }
        }
    }

    #[test]
    fn hierarchy_wins_at_large_scale_loses_at_small() {
        let cal = Calibration::paper();
        let params = Style::Gravel.params(&cal);
        // At 8 nodes the extra hop is pure overhead.
        let t8 = uniform(8, 1 << 22);
        let flat8 = simulate(&t8, &cal, &params).total_ns;
        let hier8 = simulate(&hierarchical_trace(&t8, 4), &cal, &params).total_ns;
        assert!(hier8 >= flat8, "hier {hier8} vs flat {flat8} at 8 nodes");
        // At 128 nodes flat aggregation starves per-destination queues;
        // two-level wins.
        let t128 = uniform(128, 1 << 24);
        let flat128 = simulate(&t128, &cal, &params).total_ns;
        let hier128 = simulate(&hierarchical_trace(&t128, 16), &cal, &params).total_ns;
        assert!(
            hier128 < flat128,
            "hierarchy should win at 128 nodes: {hier128} vs {flat128}"
        );
    }
}

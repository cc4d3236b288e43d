//! Communication traces.
//!
//! The cluster model is *trace-driven*: an application is characterised
//! per superstep, per node, by how much data-parallel compute it does,
//! how many operations stay local, and how many messages it routes to
//! each destination (with which operation class). The `gravel-apps` crate
//! generates these traces by running the real (partitioned) algorithms;
//! the models in this crate replay them under each GPU networking style.

use serde::{Deserialize, Serialize};

/// Class of a routed operation — applied-cost differs (a PUT is a plain
/// store at the destination; atomics are serialized RMWs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpClass {
    /// PGAS store.
    #[default]
    Put,
    /// Atomic increment or active message (serialized at the network
    /// thread).
    Atomic,
}

/// One node's activity within one superstep.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NodeStep {
    /// Effective data-parallel operations executed locally on the GPU
    /// (local PUTs, per-edge compute, per-point distance math, ...).
    pub gpu_ops: u64,
    /// Messages routed through the aggregator, per destination node.
    /// `routed[self]` is legal and common: serialized local atomics.
    pub routed: Vec<u64>,
    /// Class of the routed operations this step (apps use one class per
    /// phase; mixed phases split into two steps).
    pub class: OpClass,
    /// How many of `gpu_ops` are *local PGAS accesses* (e.g. GPU-direct
    /// local PUTs) rather than pure compute. Only Table 5's
    /// remote-access-frequency accounting uses this; timing uses
    /// `gpu_ops`.
    pub local_pgas: u64,
}

impl NodeStep {
    /// A step with no routed traffic.
    pub fn compute_only(gpu_ops: u64, nodes: usize) -> Self {
        NodeStep { gpu_ops, routed: vec![0; nodes], class: OpClass::Put, local_pgas: 0 }
    }

    /// Total routed messages.
    pub fn routed_total(&self) -> u64 {
        self.routed.iter().sum()
    }
}

/// One superstep: all nodes run, then a global barrier.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StepTrace {
    /// Per-node activity, indexed by node id.
    pub per_node: Vec<NodeStep>,
}

/// A whole application run, characterised for `nodes` nodes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadTrace {
    /// Workload name (for reports).
    pub name: String,
    /// Cluster size the trace was generated for.
    pub nodes: usize,
    /// Supersteps in order.
    pub steps: Vec<StepTrace>,
}

impl WorkloadTrace {
    /// An empty trace.
    pub fn new(name: impl Into<String>, nodes: usize) -> Self {
        WorkloadTrace { name: name.into(), nodes, steps: Vec::new() }
    }

    /// `steps` identical supersteps in which every node computes
    /// `gpu_ops` local operations and sends `per_dest` atomics to every
    /// node, itself included: one step of `total / nodes²` is a GUPS-like
    /// firehose, many small ones an SSSP-like sparse superstep loop.
    pub fn uniform(
        name: impl Into<String>,
        nodes: usize,
        steps: usize,
        gpu_ops: u64,
        per_dest: u64,
    ) -> Self {
        let mut t = WorkloadTrace::new(name, nodes);
        for _ in 0..steps {
            t.push_step(StepTrace {
                per_node: (0..nodes)
                    .map(|_| NodeStep {
                        gpu_ops,
                        routed: vec![per_dest; nodes],
                        class: OpClass::Atomic,
                        local_pgas: 0,
                    })
                    .collect(),
            });
        }
        t
    }

    /// Append a superstep; panics if its width disagrees with `nodes`.
    pub fn push_step(&mut self, step: StepTrace) {
        assert_eq!(step.per_node.len(), self.nodes, "step width mismatch");
        for ns in &step.per_node {
            assert_eq!(ns.routed.len(), self.nodes, "routed vector width mismatch");
        }
        self.steps.push(step);
    }

    /// Total messages routed (all steps, all nodes).
    pub fn total_routed(&self) -> u64 {
        self.steps.iter().flat_map(|s| &s.per_node).map(|n| n.routed_total()).sum()
    }

    /// Total local GPU operations.
    pub fn total_gpu_ops(&self) -> u64 {
        self.steps.iter().flat_map(|s| &s.per_node).map(|n| n.gpu_ops).sum()
    }

    /// Fraction of PGAS operations that target a remote node — Table 5's
    /// "remote access frequency". Local operations are `local_pgas`
    /// (GPU-direct accesses) plus `routed[self]` (serialized local
    /// atomics); pure compute in `gpu_ops` does not count.
    pub fn remote_fraction(&self) -> f64 {
        let mut remote = 0u64;
        let mut total = 0u64;
        for step in &self.steps {
            for (src, ns) in step.per_node.iter().enumerate() {
                total += ns.local_pgas;
                for (dest, &m) in ns.routed.iter().enumerate() {
                    total += m;
                    if dest != src {
                        remote += m;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step2(a_routed: Vec<u64>, b_routed: Vec<u64>) -> StepTrace {
        StepTrace {
            per_node: vec![
                NodeStep { gpu_ops: 10, routed: a_routed, class: OpClass::Atomic, local_pgas: 10 },
                NodeStep { gpu_ops: 10, routed: b_routed, class: OpClass::Atomic, local_pgas: 10 },
            ],
        }
    }

    #[test]
    fn totals() {
        let mut t = WorkloadTrace::new("x", 2);
        t.push_step(step2(vec![1, 3], vec![2, 0]));
        t.push_step(step2(vec![0, 0], vec![0, 4]));
        assert_eq!(t.total_routed(), 10);
        assert_eq!(t.total_gpu_ops(), 40);
    }

    #[test]
    fn remote_fraction_counts_self_routed_as_local() {
        let mut t = WorkloadTrace::new("x", 2);
        // Node 0 routes 1 local (self) + 3 remote; node 1 routes 2 remote.
        // gpu_ops 20 local. total = 20 + 6 = 26, remote = 5.
        t.push_step(step2(vec![1, 3], vec![2, 0]));
        assert!((t.remote_fraction() - 5.0 / 26.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_zero_remote_fraction() {
        assert_eq!(WorkloadTrace::new("x", 4).remote_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "step width mismatch")]
    fn width_mismatch_rejected() {
        let mut t = WorkloadTrace::new("x", 3);
        t.push_step(step2(vec![1, 3], vec![2, 0]));
    }

    #[test]
    fn compute_only_step() {
        let ns = NodeStep::compute_only(100, 4);
        assert_eq!(ns.routed_total(), 0);
        assert_eq!(ns.gpu_ops, 100);
        assert_eq!(ns.routed.len(), 4);
    }
}

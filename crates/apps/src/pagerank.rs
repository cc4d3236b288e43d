//! PageRank (paper §6: PR-1 on hugebubbles-00020, PR-2 on cage15).
//!
//! Vertex-centric, derived from GasCL: each iteration scatters every
//! vertex's rank share along its out-edges into the destination vertices'
//! accumulators, then a local apply step computes the next rank. In the
//! paper PR uses PUT operations exclusively (per-edge slots); our live
//! implementation accumulates with atomic increments in fixed-point
//! arithmetic — same communication volume, and exact (u64 adds commute),
//! so the distributed result equals the sequential reference bit-for-bit.
//! The *trace* classifies the scatter as [`OpClass::Put`] to match the
//! paper's cost characteristics.

use gravel_cluster::{NodeStep, OpClass, StepTrace, WorkloadTrace};
use gravel_core::{Checkpoint, GravelRuntime};
use gravel_pgas::{Directory, Layout, Partition};
use gravel_simt::{LaneVec, Mask};

use crate::graph::{reference, Csr};

/// Default damping factor in fixed point (0.85).
pub fn default_damping() -> u64 {
    (0.85 * reference::FIXED_ONE as f64) as u64
}

/// The vertex partition PageRank uses (block: generator locality).
pub fn partition(g: &Csr, nodes: usize) -> Partition {
    Partition::new(g.num_vertices(), nodes, Layout::Block)
}

/// The address directory PageRank routes through (see
/// [`gups::directory`](crate::gups::directory) for the rationale).
pub fn directory(g: &Csr, nodes: usize) -> Directory {
    Directory::fixed(partition(g, nodes))
}

/// Run `iters` PageRank iterations on the live runtime. Each node's heap
/// holds its local vertices' accumulators. Returns the final global rank
/// vector (gathered).
pub fn run_live(rt: &GravelRuntime, g: &Csr, iters: usize, damping: u64) -> Vec<u64> {
    let n = g.num_vertices();
    let nodes = rt.nodes();
    let part = partition(g, nodes);
    for node in 0..nodes {
        assert!(rt.config().heap_len >= part.local_len(node), "heap too small");
    }
    let base = (reference::FIXED_ONE - damping) / n as u64;
    let dir = directory(g, nodes);
    let node_edges = edge_partition(g, &dir, nodes);
    let mut rank = vec![reference::FIXED_ONE / n as u64; n];
    for _ in 0..iters {
        iterate_once(rt, g, &dir, &node_edges, base, damping, &mut rank);
    }
    rank
}

/// Each node's scatter work list: for every edge `u → v` owned by the
/// node (it owns `u`), `(u, v's node, v's heap offset)`. It depends on the
/// graph and the partition only, so a run builds it once.
fn edge_partition(g: &Csr, dir: &Directory, nodes: usize) -> Vec<Vec<(u32, u32, u64)>> {
    let mut node_edges = vec![Vec::new(); nodes];
    for (u, v, _) in g.iter_edges() {
        let rv = dir.route(v as usize);
        node_edges[dir.route(u as usize).dest as usize].push((u, rv.dest, rv.offset));
    }
    node_edges
}

/// Application progress of a checkpointed PageRank run: the iteration
/// counter plus the full fixed-point rank vector (the accumulator heaps
/// are zero between iterations, so this is the *entire* app state).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PageRankProgress {
    /// Iterations fully applied (and covered by an epoch cut).
    pub iteration: u64,
    /// Rank vector after `iteration` iterations (empty ⇒ fresh run).
    pub rank: Vec<u64>,
}

impl Checkpoint for PageRankProgress {
    fn save(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(self.rank.len() + 2);
        words.push(self.iteration);
        words.push(self.rank.len() as u64);
        words.extend_from_slice(&self.rank);
        words
    }

    fn restore(&mut self, words: &[u64]) {
        if words.len() < 2 {
            *self = Self::default();
            return;
        }
        self.iteration = words[0];
        let n = (words[1] as usize).min(words.len() - 2);
        self.rank = words[2..2 + n].to_vec();
    }
}

/// Run PageRank with an epoch cut after every iteration's apply step.
/// Requires `cfg.ha.checkpoint = true`. Resumes from
/// `progress.iteration`/`progress.rank` (a default-constructed progress
/// starts fresh); returns the rank vector after `iters` total iterations.
pub fn run_live_checkpointed(
    rt: &GravelRuntime,
    g: &Csr,
    iters: usize,
    damping: u64,
    progress: &mut PageRankProgress,
) -> Vec<u64> {
    let n = g.num_vertices();
    let nodes = rt.nodes();
    let dir = directory(g, nodes);
    let node_edges = edge_partition(g, &dir, nodes);
    let base = (reference::FIXED_ONE - damping) / n as u64;
    let mut rank = if progress.rank.len() == n {
        progress.rank.clone()
    } else {
        vec![reference::FIXED_ONE / n as u64; n]
    };
    for _ in (progress.iteration as usize)..iters {
        iterate_once(rt, g, &dir, &node_edges, base, damping, &mut rank);
        progress.iteration += 1;
        progress.rank = rank.clone();
        rt.cut_epoch_with(Some(progress));
    }
    rank
}

/// One scatter + apply iteration over `rank`, in place.
fn iterate_once(
    rt: &GravelRuntime,
    g: &Csr,
    dir: &Directory,
    node_edges: &[Vec<(u32, u32, u64)>],
    base: u64,
    damping: u64,
    rank: &mut [u64],
) {
    let n = g.num_vertices();
    let nodes = rt.nodes();
    let _span = rt.tracer().span("pagerank.iter", "app", 0);
    let shares: Vec<u64> = (0..n as u32)
        .map(|u| rank[u as usize].checked_div(g.out_degree(u) as u64).unwrap_or(0))
        .collect();
    for (node, edges) in node_edges.iter().enumerate() {
        if edges.is_empty() {
            continue;
        }
        let wg_size = rt.config().wg_size;
        let wgs = edges.len().div_ceil(wg_size);
        rt.dispatch(node, wgs, |ctx| {
            let gids = ctx.wg.global_ids();
            let w = ctx.wg.wg_size();
            let in_range = Mask::from_fn(w, |l| gids.get(l) < edges.len());
            ctx.masked(&in_range, |ctx| {
                let e = |l: usize| edges[gids.get(l).min(edges.len() - 1)];
                let dests = LaneVec::from_fn(w, |l| e(l).1);
                let addrs = LaneVec::from_fn(w, |l| e(l).2);
                let vals = LaneVec::from_fn(w, |l| shares[e(l).0 as usize]);
                ctx.shmem_inc(&dests, &addrs, &vals);
            });
        });
    }
    rt.quiesce();
    for (v, r) in rank.iter_mut().enumerate() {
        let rv = dir.route(v);
        let acc = rt.heap(rv.dest as usize).load(rv.offset);
        *r = base + ((acc as u128 * damping as u128) >> 32) as u64;
    }
    for node in 0..nodes {
        rt.heap(node).reset(0);
    }
}

/// [`run_live`] plus a distilled telemetry summary of the run.
/// Span-instrumented: every iteration records a `pagerank.iter` span
/// when the runtime's tracer is enabled.
pub fn run_live_instrumented(
    rt: &GravelRuntime,
    g: &Csr,
    iters: usize,
    damping: u64,
) -> (Vec<u64>, crate::AppTelemetry) {
    let ranks = run_live(rt, g, iters, damping);
    (ranks, crate::AppTelemetry::collect("PageRank", rt))
}

/// Communication trace: `iters` iterations, each a scatter step (remote
/// contributions as PUT-class messages, local edges as GPU ops) followed
/// by a local apply step.
pub fn trace(name: &str, g: &Csr, nodes: usize, iters: usize) -> WorkloadTrace {
    let part = partition(g, nodes);
    // The edge cut is iteration-invariant: count once.
    let mut cut = vec![vec![0u64; nodes]; nodes];
    let mut local_edges = vec![0u64; nodes];
    for (u, v, _) in g.iter_edges() {
        let su = part.owner(u as usize);
        let sv = part.owner(v as usize);
        if su == sv {
            local_edges[su] += 1;
        } else {
            cut[su][sv] += 1;
        }
    }
    let mut t = WorkloadTrace::new(name, nodes);
    for _ in 0..iters {
        // Scatter.
        t.push_step(StepTrace {
            per_node: (0..nodes)
                .map(|s| NodeStep {
                    gpu_ops: local_edges[s],
                    routed: cut[s].clone(),
                    class: OpClass::Put,
                    local_pgas: local_edges[s], // GPU-direct local PUTs
                })
                .collect(),
        });
        // Apply (compute-only): ~4 ops per local vertex.
        t.push_step(StepTrace {
            per_node: (0..nodes)
                .map(|s| NodeStep::compute_only(4 * part.local_len(s) as u64, nodes))
                .collect(),
        });
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::gen;
    use gravel_core::GravelConfig;

    #[test]
    fn live_pagerank_equals_sequential_reference_exactly() {
        let g = gen::cage15_like(96, 5);
        let damping = default_damping();
        let rt = GravelRuntime::new(GravelConfig::small(3, 64));
        let live = run_live(&rt, &g, 3, damping);
        rt.shutdown().expect("clean shutdown");
        let seq = reference::pagerank(&g, 3, damping);
        assert_eq!(live, seq, "fixed-point PageRank must match bit-for-bit");
    }

    #[test]
    fn instrumented_pagerank_reports_telemetry_and_spans() {
        let g = gen::cage15_like(96, 5);
        let damping = default_damping();
        let mut cfg = GravelConfig::small(3, 64);
        cfg.telemetry = gravel_core::TelemetryConfig::CountersAndTrace;
        let rt = GravelRuntime::new(cfg);
        let (live, telem) = run_live_instrumented(&rt, &g, 3, damping);
        assert_eq!(live, reference::pagerank(&g, 3, damping));
        assert_eq!(telem.offloaded, telem.applied, "quiesced run");
        assert!(telem.offloaded > 0);
        assert!(telem.avg_packet_bytes > 0.0);
        let trace = rt.export_chrome_trace().expect("tracing enabled");
        assert!(trace.contains("pagerank.iter"), "app span recorded");
        rt.shutdown().expect("clean shutdown");
    }

    #[test]
    fn checkpointed_pagerank_split_run_matches_reference() {
        let g = gen::cage15_like(96, 5);
        let damping = default_damping();
        let mut cfg = GravelConfig::small(3, 64);
        cfg.ha.checkpoint = true;
        let rt = GravelRuntime::new(cfg);
        // Run one iteration, "crash", rebuild progress from its saved
        // words, then finish — the result must equal an uninterrupted run.
        let mut progress = PageRankProgress::default();
        run_live_checkpointed(&rt, &g, 1, damping, &mut progress);
        assert_eq!(progress.iteration, 1);
        let words = progress.save();
        let mut resumed = PageRankProgress::default();
        resumed.restore(&words);
        assert_eq!(resumed, progress);
        let live = run_live_checkpointed(&rt, &g, 3, damping, &mut resumed);
        assert_eq!(live, reference::pagerank(&g, 3, damping));
        let stats = rt.shutdown().expect("clean shutdown");
        assert_eq!(stats.ha.epochs, 3, "one cut per iteration");
    }

    #[test]
    fn pagerank_progress_roundtrips_and_rejects_garbage() {
        let p = PageRankProgress { iteration: 7, rank: vec![3, 1, 4, 1, 5] };
        let mut q = PageRankProgress::default();
        q.restore(&p.save());
        assert_eq!(q, p);
        q.restore(&[]);
        assert_eq!(q, PageRankProgress::default());
        // A truncated word stream must not panic.
        q.restore(&[9, 100, 1, 2]);
        assert_eq!(q.iteration, 9);
        assert_eq!(q.rank, vec![1, 2]);
    }

    #[test]
    fn trace_volume_matches_edge_cut_per_iteration() {
        let g = gen::hugebubbles_like(2_500, 9);
        let iters = 4;
        let t = trace("PR-1", &g, 4, iters);
        assert_eq!(t.steps.len(), 2 * iters);
        let per_iter = t.total_routed() / iters as u64;
        let cut: u64 = {
            let part = partition(&g, 4);
            g.iter_edges()
                .filter(|&(u, v, _)| part.owner(u as usize) != part.owner(v as usize))
                .count() as u64
        };
        assert_eq!(per_iter, cut);
    }

    #[test]
    fn pr1_remote_fraction_near_table5() {
        let g = gen::hugebubbles_like(40_000, 2);
        let t = trace("PR-1", &g, 8, 1);
        let f = t.remote_fraction();
        // Table 5: 37.7 % — our trace counts apply-step gpu_ops as local
        // ops too, diluting slightly; accept a band.
        assert!(f > 0.25 && f < 0.45, "remote fraction {f}");
    }

    #[test]
    fn pr2_remote_fraction_near_table5() {
        let g = gen::cage15_like(40_000, 2);
        let t = trace("PR-2", &g, 8, 1);
        let f = t.remote_fraction();
        // Table 5: 16.5 %.
        assert!(f > 0.08 && f < 0.25, "remote fraction {f}");
    }
}

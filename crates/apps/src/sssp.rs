//! Single-source shortest paths (paper §6: SSSP-1 on hugebubbles,
//! SSSP-2 on cage15).
//!
//! Bellman-Ford by supersteps: vertices whose distance improved last
//! round relax their out-edges with a `relax-min` active message
//! (paper §7.1: SSSP uses atomic operations — active messages — and PUT
//! operations). The mesh input's long diameter gives SSSP-1 *many* sparse
//! supersteps — the reason its packets average only ~1.6 kB (Table 5) and
//! its scaling is the paper's worst; cage15's short diameter gives
//! SSSP-2 few dense supersteps and ~58 kB packets.

use gravel_cluster::{NodeStep, OpClass, StepTrace, WorkloadTrace};
use gravel_core::{Checkpoint, GravelRuntime};
use gravel_pgas::{Directory, Layout, Partition};
use gravel_simt::{LaneVec, Mask};

use crate::graph::Csr;

/// Distance value for unreached vertices (fits the heap's u64 cells).
pub const INF: u64 = u64::MAX;

/// The vertex partition SSSP uses.
pub fn partition(g: &Csr, nodes: usize) -> Partition {
    Partition::new(g.num_vertices(), nodes, Layout::Block)
}

/// The address directory SSSP routes through (see
/// [`gups::directory`](crate::gups::directory) for the rationale).
pub fn directory(g: &Csr, nodes: usize) -> Directory {
    Directory::fixed(partition(g, nodes))
}

/// Register SSSP's relax handler; returns its id. Must be called in the
/// runtime's handler-registration hook.
pub fn register(reg: &mut gravel_pgas::AmRegistry) -> u32 {
    reg.register(gravel_pgas::relax_min_handler())
}

/// Run SSSP from `source` on the live runtime (whose registry must hold
/// the relax handler at id `relax_id`). Returns the global distance
/// vector.
pub fn run_live(rt: &GravelRuntime, g: &Csr, source: u32, relax_id: u32) -> Vec<u64> {
    let n = g.num_vertices();
    let nodes = rt.nodes();
    let part = partition(g, nodes);
    for node in 0..nodes {
        assert!(rt.config().heap_len >= part.local_len(node), "heap too small");
        rt.heap(node).reset(INF);
    }
    let dir = directory(g, nodes);
    let src = dir.route(source as usize);
    rt.heap(src.dest as usize).store(src.offset, 0);

    let mut prev = vec![INF; n];
    prev[source as usize] = 0;
    let mut frontier: Vec<u32> = vec![source];

    while !frontier.is_empty() {
        frontier = superstep(rt, g, &dir, relax_id, &mut prev, &frontier);
    }
    prev
}

/// One Bellman-Ford superstep: relax every frontier edge (active
/// messages grouped by issuing node), quiesce, and return the next
/// frontier — the vertices whose distance improved. Updates `prev` in
/// place.
fn superstep(
    rt: &GravelRuntime,
    g: &Csr,
    dir: &Directory,
    relax_id: u32,
    prev: &mut [u64],
    frontier: &[u32],
) -> Vec<u32> {
    let nodes = rt.nodes();
    // Group the frontier's edges by owning node.
    let mut node_work: Vec<Vec<(u64, u32, u64, u32)>> = vec![Vec::new(); nodes];
    for &u in frontier {
        let du = prev[u as usize];
        let owner = dir.route(u as usize).dest as usize;
        for (&v, &w) in g.neighbors(u).iter().zip(g.weights(u)) {
            let rv = dir.route(v as usize);
            node_work[owner].push((du + w as u64, rv.dest, rv.offset, v));
        }
    }
    for (node, work) in node_work.iter().enumerate() {
        if work.is_empty() {
            continue;
        }
        let wg_size = rt.config().wg_size;
        let wgs = work.len().div_ceil(wg_size);
        rt.dispatch(node, wgs, |ctx| {
            let gids = ctx.wg.global_ids();
            let w = ctx.wg.wg_size();
            let in_range = Mask::from_fn(w, |l| gids.get(l) < work.len());
            ctx.masked(&in_range, |ctx| {
                let e = |l: usize| work[gids.get(l).min(work.len() - 1)];
                let dests = LaneVec::from_fn(w, |l| e(l).1);
                let addrs = LaneVec::from_fn(w, |l| e(l).2);
                let vals = LaneVec::from_fn(w, |l| e(l).0);
                ctx.shmem_am(relax_id, &dests, &addrs, &vals);
            });
        });
    }
    rt.quiesce();
    // New frontier: vertices whose distance improved.
    let mut next = Vec::new();
    for (v, pv) in prev.iter_mut().enumerate() {
        let r = dir.route(v);
        let d = rt.heap(r.dest as usize).load(r.offset);
        if d < *pv {
            *pv = d;
            next.push(v as u32);
        }
    }
    next
}

/// Application progress of a checkpointed SSSP run: the superstep
/// counter, the distance vector as of the last cut, and the frontier
/// still to relax. Like [`PageRankProgress`](crate::pagerank::PageRankProgress)
/// this is the *entire* app state — a resumed run re-seeds the heaps
/// from `dist` and continues from `frontier`, so a crash between cuts
/// costs at most one superstep of rework and never a wrong distance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SsspProgress {
    /// Supersteps fully applied (and covered by an epoch cut).
    pub round: u64,
    /// Distance vector after `round` supersteps (empty ⇒ fresh run).
    pub dist: Vec<u64>,
    /// Vertices still to relax next superstep.
    pub frontier: Vec<u32>,
}

impl Checkpoint for SsspProgress {
    fn save(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(3 + self.dist.len() + self.frontier.len());
        words.push(self.round);
        words.push(self.dist.len() as u64);
        words.extend_from_slice(&self.dist);
        words.push(self.frontier.len() as u64);
        words.extend(self.frontier.iter().map(|&v| v as u64));
        words
    }

    fn restore(&mut self, words: &[u64]) {
        if words.len() < 2 {
            *self = Self::default();
            return;
        }
        self.round = words[0];
        let n = (words[1] as usize).min(words.len().saturating_sub(2));
        self.dist = words[2..2 + n].to_vec();
        let at = 2 + n;
        let nf = words
            .get(at)
            .map_or(0, |&f| (f as usize).min(words.len().saturating_sub(at + 1)));
        self.frontier = words
            .get(at + 1..at + 1 + nf)
            .unwrap_or(&[])
            .iter()
            .map(|&v| v as u32)
            .collect();
    }
}

/// Run SSSP with an epoch cut after every superstep. Requires
/// `cfg.checkpoint = true`. Resumes from `progress` (a
/// default-constructed progress starts fresh); returns the distance
/// vector as of the last superstep run. `max_rounds` bounds how many
/// supersteps *this call* runs (None = to convergence) — the
/// crash-resume seam tests cut on.
pub fn run_live_checkpointed(
    rt: &GravelRuntime,
    g: &Csr,
    source: u32,
    relax_id: u32,
    progress: &mut SsspProgress,
    max_rounds: Option<usize>,
) -> Vec<u64> {
    let n = g.num_vertices();
    let nodes = rt.nodes();
    let part = partition(g, nodes);
    for node in 0..nodes {
        assert!(rt.config().heap_len >= part.local_len(node), "heap too small");
    }
    let dir = directory(g, nodes);
    let (mut prev, mut frontier) = if progress.dist.len() == n {
        // Resume: the progress words are the authoritative state; the
        // heaps may be mid-superstep garbage after a crash, so re-seed
        // them from the checkpointed distances.
        for node in 0..nodes {
            rt.heap(node).reset(INF);
        }
        for (v, &d) in progress.dist.iter().enumerate() {
            if d != INF {
                let r = dir.route(v);
                rt.heap(r.dest as usize).store(r.offset, d);
            }
        }
        (progress.dist.clone(), progress.frontier.clone())
    } else {
        for node in 0..nodes {
            rt.heap(node).reset(INF);
        }
        let src = dir.route(source as usize);
        rt.heap(src.dest as usize).store(src.offset, 0);
        let mut prev = vec![INF; n];
        prev[source as usize] = 0;
        *progress = SsspProgress { round: 0, dist: prev.clone(), frontier: vec![source] };
        (prev, vec![source])
    };
    let mut done = 0usize;
    while !frontier.is_empty() && max_rounds.is_none_or(|m| done < m) {
        frontier = superstep(rt, g, &dir, relax_id, &mut prev, &frontier);
        done += 1;
        progress.round += 1;
        progress.dist = prev.clone();
        progress.frontier = frontier.clone();
        rt.cut_epoch_with(Some(progress));
    }
    prev
}

/// Communication trace: replay Bellman-Ford rounds sequentially,
/// recording each round's relaxations as one superstep.
///
/// Relaxations apply in place (messages land as they arrive in the real
/// system too) and the next frontier is collected incrementally, so trace
/// generation is `O(total relaxations)` — paper-scale meshes with
/// thousands of rounds stay tractable.
pub fn trace(name: &str, g: &Csr, nodes: usize, source: u32) -> WorkloadTrace {
    // Traversal uses the directed edge set. (The UF matrices are
    // symmetric, but chaotic in-place relaxation on the symmetrized mesh
    // lets improvements cascade backwards for O(V·E) worst-case work;
    // the directed mesh converges in O(diameter) rounds with the same
    // communication shape — many sparse supersteps, edge-cut remote
    // fraction — which is what the model consumes.)
    let n = g.num_vertices();
    let part = partition(g, nodes);
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    // Round stamp per vertex: avoids duplicate frontier entries without a
    // per-round clear.
    let mut stamped = vec![0u32; n];
    let mut round = 0u32;
    let mut t = WorkloadTrace::new(name, nodes);
    while !frontier.is_empty() {
        round += 1;
        let mut routed = vec![vec![0u64; nodes]; nodes];
        let mut gpu_ops = vec![0u64; nodes];
        let mut next = Vec::new();
        for &u in &frontier {
            let su = part.owner(u as usize);
            gpu_ops[su] += 1; // frontier scan + edge fetch
            let du = dist[u as usize];
            for (&v, &w) in g.neighbors(u).iter().zip(g.weights(u)) {
                routed[su][part.owner(v as usize)] += 1;
                let nd = du + w as u64;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    if stamped[v as usize] != round {
                        stamped[v as usize] = round;
                        next.push(v);
                    }
                }
            }
        }
        t.push_step(StepTrace {
            per_node: (0..nodes)
                .map(|s| NodeStep {
                    gpu_ops: gpu_ops[s],
                    routed: routed[s].clone(),
                    class: OpClass::Atomic,
                    local_pgas: 0, // relaxations are routed active messages
                })
                .collect(),
        });
        frontier = next;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{gen, reference};
    use gravel_core::GravelConfig;

    #[test]
    fn live_sssp_matches_dijkstra() {
        let g = gen::hugebubbles_like(144, 11);
        let mut relax_id = 0;
        let rt = GravelRuntime::with_handlers(GravelConfig::small(3, 64), |reg| {
            relax_id = register(reg);
        });
        let live = run_live(&rt, &g, 0, relax_id);
        rt.shutdown().expect("clean shutdown");
        assert_eq!(live, reference::sssp(&g, 0));
    }

    #[test]
    fn live_sssp_on_dense_graph() {
        let g = gen::cage15_like(100, 13);
        let mut relax_id = 0;
        let rt = GravelRuntime::with_handlers(GravelConfig::small(2, 64), |reg| {
            relax_id = register(reg);
        });
        let live = run_live(&rt, &g, 5, relax_id);
        rt.shutdown().expect("clean shutdown");
        assert_eq!(live, reference::sssp(&g, 5));
    }

    #[test]
    fn checkpointed_sssp_split_run_matches_dijkstra() {
        let g = gen::hugebubbles_like(144, 11);
        let mut relax_id = 0;
        let mut cfg = GravelConfig::small(3, 64);
        cfg.checkpoint = true;
        let rt = GravelRuntime::with_handlers(cfg, |reg| {
            relax_id = register(reg);
        });
        let mut progress = SsspProgress::default();
        run_live_checkpointed(&rt, &g, 0, relax_id, &mut progress, Some(2));
        assert_eq!(progress.round, 2);
        // "Crash": rebuild progress from its checkpoint words and wreck
        // the heaps — resume must re-seed them from the progress state.
        let words = progress.save();
        let mut resumed = SsspProgress::default();
        resumed.restore(&words);
        assert_eq!(resumed, progress);
        for node in 0..3 {
            rt.heap(node).reset(0);
        }
        let live = run_live_checkpointed(&rt, &g, 0, relax_id, &mut resumed, None);
        assert_eq!(live, reference::sssp(&g, 0));
        // A second resume with converged progress is a no-op.
        assert_eq!(run_live_checkpointed(&rt, &g, 0, relax_id, &mut resumed, None), live);
        let stats = rt.shutdown().expect("clean shutdown");
        assert_eq!(stats.ha.epochs, resumed.round, "one cut per superstep");
    }

    #[test]
    fn sssp_progress_roundtrips_and_rejects_garbage() {
        let p = SsspProgress { round: 3, dist: vec![0, 5, INF], frontier: vec![1, 2] };
        let mut q = SsspProgress::default();
        q.restore(&p.save());
        assert_eq!(q, p);
        q.restore(&[]);
        assert_eq!(q, SsspProgress::default());
        // A truncated word stream must not panic.
        q.restore(&[7, 100, 1, 2]);
        assert_eq!(q.round, 7);
        assert_eq!(q.dist, vec![1, 2]);
        assert!(q.frontier.is_empty());
    }

    #[test]
    fn mesh_needs_many_more_supersteps_than_banded_graph() {
        // The SSSP-1 vs SSSP-2 contrast: diameter drives superstep count.
        let mesh = gen::hugebubbles_like(4_900, 3); // 70×70 grid
        let banded = gen::cage15_like(4_900, 3);
        let t_mesh = trace("SSSP-1", &mesh, 8, 0);
        let t_banded = trace("SSSP-2", &banded, 8, 0);
        assert!(
            t_mesh.steps.len() > 3 * t_banded.steps.len(),
            "mesh {} vs banded {}",
            t_mesh.steps.len(),
            t_banded.steps.len()
        );
    }

    #[test]
    fn trace_relaxation_count_bounds() {
        // Every traced message is a relaxation along an edge out of a
        // frontier vertex; each vertex enters the frontier at least once
        // if reachable, so total messages ≥ reachable edges once and is
        // finite (termination).
        let g = gen::hugebubbles_like(400, 5);
        let t = trace("SSSP", &g, 4, 0);
        assert!(t.total_routed() >= g.num_edges() as u64 / 2);
        assert!(t.steps.len() < 10 * g.num_vertices());
    }
}

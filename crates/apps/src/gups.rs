//! GUPS — giga-updates per second (paper §3, Table 4: ~180 M updates).
//!
//! A distributed table `A` is incremented at random offsets read from a
//! local index array (HPCC RandomAccess). Under Gravel this is the
//! one-line kernel of Fig. 4b: every work-item issues one `shmem_inc`.
//! With a cyclic partition and uniform random offsets, `(n-1)/n` of
//! updates are remote — 87.5 % at eight nodes (Table 5).

use gravel_cluster::{NodeStep, OpClass, StepTrace, WorkloadTrace};
use gravel_core::{Checkpoint, GravelRuntime};
use gravel_pgas::{Directory, Layout, Partition};
use gravel_simt::{LaneVec, Mask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// GUPS problem description.
#[derive(Clone, Copy, Debug)]
pub struct GupsInput {
    /// Total updates across the cluster (Table 4: ~180 M; scale down for
    /// tests).
    pub updates: usize,
    /// Global table length.
    pub table_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GupsInput {
    /// A small deterministic instance for tests/examples.
    pub fn small() -> Self {
        GupsInput { updates: 4096, table_len: 512, seed: 42 }
    }
}

/// The random global indices node `node` updates (deterministic in the
/// seed, disjoint streams per node).
pub fn node_updates(input: &GupsInput, nodes: usize, node: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(input.seed ^ (node as u64).wrapping_mul(0x9E37_79B9));
    let count = input.updates / nodes + usize::from(node < input.updates % nodes);
    (0..count).map(|_| rng.gen_range(0..input.table_len)).collect()
}

/// [`node_updates`] generated on demand, for callers that route or
/// count a stream without keeping it (asserted equal by a unit test).
pub fn update_stream(
    input: &GupsInput,
    nodes: usize,
    node: usize,
) -> impl ExactSizeIterator<Item = usize> {
    let mut rng = StdRng::seed_from_u64(input.seed ^ (node as u64).wrapping_mul(0x9E37_79B9));
    let count = input.updates / nodes + usize::from(node < input.updates % nodes);
    let table_len = input.table_len;
    (0..count).map(move |_| rng.gen_range(0..table_len))
}

/// The table partition GUPS uses (cyclic: uniform scatter).
pub fn partition(input: &GupsInput, nodes: usize) -> Partition {
    Partition::new(input.table_len, nodes, Layout::Cyclic)
}

/// The address directory GUPS routes through — the *only* place a
/// global table index becomes a `(dest node, local offset)` pair.
/// Static runs get a fixed view over [`partition`]; an elastic cluster
/// substitutes a live [`Directory::elastic`] with the same call shape.
pub fn directory(input: &GupsInput, nodes: usize) -> Directory {
    Directory::fixed(partition(input, nodes))
}

/// Run GUPS on the live runtime. The runtime must have `heap_len ≥`
/// the local table slice on every node. Returns the number of updates
/// issued.
pub fn run_live(rt: &GravelRuntime, input: &GupsInput) -> u64 {
    let nodes = rt.nodes();
    let part = partition(input, nodes);
    for node in 0..nodes {
        assert!(
            rt.config().heap_len >= part.local_len(node),
            "heap too small for table slice"
        );
    }
    let dir = directory(input, nodes);
    let mut issued = 0u64;
    for node in 0..nodes {
        issued += dispatch_node(rt, &dir, input, node);
    }
    rt.quiesce();
    issued
}

/// Dispatch node `node`'s full update stream (one GUPS superstep).
fn dispatch_node(rt: &GravelRuntime, dir: &Directory, input: &GupsInput, node: usize) -> u64 {
    let _span = rt.tracer().span("gups.dispatch", "app", node as u32);
    let updates = node_updates(input, rt.nodes(), node);
    let issued = updates.len() as u64;
    let wg_size = rt.config().wg_size;
    let wgs = updates.len().div_ceil(wg_size).max(1);
    rt.dispatch(node, wgs, |ctx| {
        let gids = ctx.wg.global_ids();
        let n = ctx.wg.wg_size();
        let in_range = Mask::from_fn(n, |l| gids.get(l) < updates.len());
        ctx.masked(&in_range, |ctx| {
            // Fig. 4b line 15: shmem_inc(A + B[GRID_ID], C[GRID_ID]).
            let (dests, addrs) = LaneVec::pair_from_fn(n, |l| {
                let r = dir.route(updates[gids.get(l).min(updates.len() - 1)]);
                (r.dest, r.offset)
            });
            let vals = LaneVec::splat(n, 1u64);
            ctx.shmem_inc(&dests, &addrs, &vals);
        });
    });
    issued
}

/// Application progress of a checkpointed GUPS run: which nodes' update
/// streams are already dispatched *and durable* (covered by an epoch
/// cut). Saved into every epoch snapshot via [`Checkpoint`], so a
/// recovering run resumes at the first un-checkpointed stream instead of
/// re-issuing (and double-counting) updates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GupsProgress {
    /// Number of nodes whose update stream is fully dispatched, quiesced,
    /// and captured by an epoch cut.
    pub nodes_dispatched: u64,
}

impl Checkpoint for GupsProgress {
    fn save(&self) -> Vec<u64> {
        vec![self.nodes_dispatched]
    }

    fn restore(&mut self, words: &[u64]) {
        self.nodes_dispatched = words.first().copied().unwrap_or(0);
    }
}

/// Run GUPS as a sequence of per-node supersteps with an epoch cut after
/// each: dispatch node `k`'s stream, quiesce, snapshot heaps + progress.
/// Requires `cfg.ha.checkpoint = true`. Resumes from
/// `progress.nodes_dispatched` (pass a default-constructed progress for a
/// fresh run); returns the number of updates issued *by this call*.
pub fn run_live_checkpointed(
    rt: &GravelRuntime,
    input: &GupsInput,
    progress: &mut GupsProgress,
) -> u64 {
    let nodes = rt.nodes();
    let part = partition(input, nodes);
    for node in 0..nodes {
        assert!(rt.config().heap_len >= part.local_len(node), "heap too small for table slice");
    }
    let dir = directory(input, nodes);
    let mut issued = 0u64;
    for node in (progress.nodes_dispatched as usize)..nodes {
        issued += dispatch_node(rt, &dir, input, node);
        progress.nodes_dispatched = node as u64 + 1;
        rt.cut_epoch_with(Some(progress));
    }
    issued
}

/// [`run_live`] plus a distilled telemetry summary of the run (message
/// totals, remote fraction, packet sizes, packet-latency quantiles).
/// Span-instrumented: each node's dispatch records a `gups.dispatch`
/// span when the runtime's tracer is enabled.
pub fn run_live_instrumented(
    rt: &GravelRuntime,
    input: &GupsInput,
) -> (u64, crate::AppTelemetry) {
    let issued = run_live(rt, input);
    (issued, crate::AppTelemetry::collect("GUPS", rt))
}

/// Verify a finished live run: the distributed histogram must equal the
/// sequential count of the same update streams.
pub fn verify_live(rt: &GravelRuntime, input: &GupsInput) -> bool {
    let nodes = rt.nodes();
    let dir = directory(input, nodes);
    let mut expect = vec![0u64; input.table_len];
    for node in 0..nodes {
        for g in node_updates(input, nodes, node) {
            expect[g] += 1;
        }
    }
    (0..input.table_len).all(|g| {
        let r = dir.route(g);
        rt.heap(r.dest as usize).load(r.offset) == expect[g]
    })
}

/// Communication trace for the cluster model: one superstep of uniform
/// scatter with exact per-destination counts.
pub fn trace(input: &GupsInput, nodes: usize) -> WorkloadTrace {
    let dir = directory(input, nodes);
    let mut t = WorkloadTrace::new("GUPS", nodes);
    let mut step = StepTrace::default();
    for node in 0..nodes {
        let mut routed = vec![0u64; nodes];
        let updates = node_updates(input, nodes, node);
        for &g in &updates {
            routed[dir.route(g).dest as usize] += 1;
        }
        step.per_node.push(NodeStep {
            gpu_ops: updates.len() as u64, // B/C reads + index math
            routed,
            class: OpClass::Atomic,
            local_pgas: 0, // every update is routed (serialized atomics)
        });
    }
    t.push_step(step);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_core::GravelConfig;

    #[test]
    fn update_stream_is_node_updates_without_the_vector() {
        let input = GupsInput { updates: 1003, table_len: 97, seed: 5 };
        for node in 0..4 {
            let stream = update_stream(&input, 4, node);
            assert_eq!(stream.len(), node_updates(&input, 4, node).len());
            assert_eq!(stream.collect::<Vec<_>>(), node_updates(&input, 4, node));
        }
    }

    #[test]
    fn live_gups_matches_sequential_histogram() {
        let input = GupsInput::small();
        let rt = GravelRuntime::new(GravelConfig::small(2, input.table_len));
        let issued = run_live(&rt, &input);
        assert_eq!(issued, input.updates as u64);
        assert!(verify_live(&rt, &input));
        let stats = rt.shutdown().expect("clean shutdown");
        assert_eq!(stats.total_offloaded(), input.updates as u64);
        // Cyclic partition + uniform updates ⇒ ~half remote at 2 nodes.
        assert!((stats.remote_fraction() - 0.5).abs() < 0.05, "{}", stats.remote_fraction());
    }

    #[test]
    fn instrumented_gups_reports_telemetry_and_spans() {
        let input = GupsInput::small();
        let mut cfg = GravelConfig::small(2, input.table_len);
        cfg.telemetry = gravel_core::TelemetryConfig::CountersAndTrace;
        let rt = GravelRuntime::new(cfg);
        let (issued, telem) = run_live_instrumented(&rt, &input);
        assert_eq!(issued, input.updates as u64);
        assert_eq!(telem.offloaded, issued);
        assert_eq!(telem.applied, issued);
        assert!((telem.remote_fraction - 0.5).abs() < 0.05, "{}", telem.remote_fraction);
        assert!(telem.packet_latency_p50_ns > 0);
        let trace = rt.export_chrome_trace().expect("tracing enabled");
        assert!(trace.contains("gups.dispatch"), "app span recorded");
        rt.shutdown().expect("clean shutdown");
    }

    #[test]
    fn checkpointed_gups_cuts_one_epoch_per_superstep() {
        let input = GupsInput::small();
        let mut cfg = GravelConfig::small(2, input.table_len);
        cfg.ha.checkpoint = true;
        let rt = GravelRuntime::new(cfg);
        let mut progress = GupsProgress::default();
        let issued = run_live_checkpointed(&rt, &input, &mut progress);
        assert_eq!(issued, input.updates as u64);
        assert_eq!(progress.nodes_dispatched, 2);
        assert!(verify_live(&rt, &input));
        // A resumed run (same progress, e.g. after restart) is a no-op.
        assert_eq!(run_live_checkpointed(&rt, &input, &mut progress), 0);
        assert!(verify_live(&rt, &input), "resume issued no duplicate updates");
        let stats = rt.shutdown().expect("clean shutdown");
        assert_eq!(stats.ha.epochs, 2, "one cut per node superstep");
    }

    #[test]
    fn gups_progress_roundtrips_through_checkpoint_words() {
        use gravel_core::Checkpoint;
        let p = GupsProgress { nodes_dispatched: 5 };
        let mut q = GupsProgress::default();
        q.restore(&p.save());
        assert_eq!(p, q);
        q.restore(&[]);
        assert_eq!(q, GupsProgress::default());
    }

    #[test]
    fn update_streams_are_disjoint_and_cover() {
        let input = GupsInput { updates: 1000, table_len: 64, seed: 7 };
        let a: usize = (0..3).map(|n| node_updates(&input, 3, n).len()).sum();
        assert_eq!(a, 1000);
        assert_ne!(node_updates(&input, 3, 0), node_updates(&input, 3, 1));
        // Deterministic.
        assert_eq!(node_updates(&input, 3, 2), node_updates(&input, 3, 2));
    }

    #[test]
    fn trace_remote_fraction_is_seven_eighths_at_8_nodes() {
        let input = GupsInput { updates: 100_000, table_len: 1 << 16, seed: 1 };
        let t = trace(&input, 8);
        // Table 5: 87.5 %. gpu_ops are counted as local ops, so compute
        // the routed-only fraction here.
        let mut remote = 0u64;
        let mut total = 0u64;
        for (src, ns) in t.steps[0].per_node.iter().enumerate() {
            for (dest, &m) in ns.routed.iter().enumerate() {
                total += m;
                if dest != src {
                    remote += m;
                }
            }
        }
        let f = remote as f64 / total as f64;
        assert!((f - 0.875).abs() < 0.01, "remote fraction {f}");
    }

    #[test]
    fn trace_totals_match_input() {
        let input = GupsInput { updates: 999, table_len: 128, seed: 3 };
        let t = trace(&input, 4);
        assert_eq!(t.total_routed(), 999);
        assert_eq!(t.steps.len(), 1);
    }
}

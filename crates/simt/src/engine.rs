//! Kernel dispatch engine.
//!
//! [`SimtEngine`] plays the role of the GPU's command processor plus its
//! compute units: a dispatch distributes the grid's work-groups across
//! `num_cus` worker threads (one thread per compute unit), each of which
//! interprets its work-groups in lockstep on a private [`WgCtx`] that it
//! re-arms between work-groups. Kernels therefore run *concurrently* with
//! host CPU threads and can synchronize with them through real atomics —
//! the fine-grain shared-virtual-memory property (paper §2.3) that
//! Gravel's producer/consumer queue relies on. (A dispatch that has one
//! unit to run — a one-unit engine or a one-work-group grid — runs it on
//! the dispatching thread, which would otherwise only wait for it.)

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::counters::Counters;
use crate::grid::Grid;
use crate::workgroup::WgCtx;

/// Number of compute units on the paper's APU (Table 3).
pub const DEFAULT_NUM_CUS: usize = 8;

/// The dispatch engine. Cheap to construct; holds only configuration.
#[derive(Clone, Debug)]
pub struct SimtEngine {
    num_cus: usize,
}

/// Aggregate result of one kernel dispatch.
#[derive(Clone, Copy, Debug, Default)]
pub struct DispatchResult {
    /// Counters merged across all work-groups.
    pub counters: Counters,
    /// Work-groups executed.
    pub wgs_run: usize,
}

impl SimtEngine {
    /// Engine with the default 8 compute units.
    pub fn new() -> Self {
        Self::with_cus(DEFAULT_NUM_CUS)
    }

    /// Engine with `num_cus` worker threads.
    pub fn with_cus(num_cus: usize) -> Self {
        assert!(num_cus > 0, "need at least one compute unit");
        SimtEngine { num_cus }
    }

    /// Number of compute units.
    pub fn num_cus(&self) -> usize {
        self.num_cus
    }

    /// Dispatch `kernel` over `grid`, one invocation per work-group, using
    /// up to `num_cus` threads. Returns merged counters.
    pub fn dispatch(&self, grid: Grid, kernel: impl Fn(&mut WgCtx) + Sync) -> DispatchResult {
        let (_, result) = self.run(grid, || (), |(), ctx| kernel(ctx));
        result
    }

    /// Dispatch and collect one `R` per work-group, in work-group order.
    pub fn dispatch_map<R: Send>(
        &self,
        grid: Grid,
        kernel: impl Fn(&mut WgCtx) -> R + Sync,
    ) -> (Vec<R>, DispatchResult) {
        let (per_cu, result) =
            self.run(grid, Vec::new, |outs, ctx| outs.push((ctx.wg_id(), kernel(ctx))));
        let mut slots: Vec<Option<R>> = (0..grid.wg_count).map(|_| None).collect();
        for (wg_id, out) in per_cu.into_iter().flatten() {
            slots[wg_id] = Some(out);
        }
        let outs = slots
            .into_iter()
            .map(|o| o.expect("every work-group produced output"))
            .collect();
        (outs, result)
    }

    /// The compute units: `num_cus` (at most one per work-group) threads
    /// pull work-group ids off a shared counter, each interpreting its
    /// work-groups on one reused [`WgCtx`] and folding them into a private
    /// accumulator from `init`. Accumulators and counters come back
    /// through the threads' join handles, so the only shared write in a
    /// dispatch is the work-group counter.
    fn run<A: Send>(
        &self,
        grid: Grid,
        init: impl Fn() -> A + Sync,
        step: impl Fn(&mut A, &mut WgCtx) + Sync,
    ) -> (Vec<A>, DispatchResult) {
        assert!(grid.wg_count > 0, "empty grid");
        let next_wg = AtomicUsize::new(0);
        let workers = self.num_cus.min(grid.wg_count);
        let compute_unit = || {
            let mut acc = init();
            let mut counters = Counters::default();
            let mut ctx: Option<WgCtx> = None;
            loop {
                let wg_id = next_wg.fetch_add(1, Ordering::Relaxed);
                if wg_id >= grid.wg_count {
                    return (acc, counters);
                }
                let ctx = ctx.get_or_insert_with(|| WgCtx::new(grid, wg_id));
                ctx.reset(wg_id);
                step(&mut acc, ctx);
                counters.merge(&ctx.counters);
            }
        };
        if workers == 1 {
            // One unit has nothing to run beside: the dispatching thread,
            // which would only block in `join`, is that unit.
            let (acc, counters) = compute_unit();
            return (vec![acc], DispatchResult { counters, wgs_run: grid.wg_count });
        }
        let mut counters = Counters::default();
        let accs = std::thread::scope(|scope| {
            let units: Vec<_> = (0..workers).map(|_| scope.spawn(compute_unit)).collect();
            units
                .into_iter()
                .map(|unit| {
                    // A kernel panic surfaces on the dispatching thread.
                    let (acc, local) = unit.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                    counters.merge(&local);
                    acc
                })
                .collect()
        });
        (accs, DispatchResult { counters, wgs_run: grid.wg_count })
    }

    /// Deterministic single-threaded dispatch in work-group-id order.
    /// Useful for reproducible tests and trace generation.
    pub fn dispatch_seq<R>(
        &self,
        grid: Grid,
        mut kernel: impl FnMut(&mut WgCtx) -> R,
    ) -> (Vec<R>, DispatchResult) {
        assert!(grid.wg_count > 0, "empty grid");
        let mut outs = Vec::with_capacity(grid.wg_count);
        let mut counters = Counters::default();
        let mut ctx = WgCtx::new(grid, 0);
        for wg_id in 0..grid.wg_count {
            ctx.reset(wg_id);
            outs.push(kernel(&mut ctx));
            counters.merge(&ctx.counters);
        }
        (outs, DispatchResult { counters, wgs_run: grid.wg_count })
    }
}

impl Default for SimtEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn dispatch_runs_every_work_group_once() {
        let engine = SimtEngine::with_cus(4);
        let grid = Grid { wg_count: 37, wg_size: 8, wf_width: 4 };
        let hits = AtomicU64::new(0);
        let res = engine.dispatch(grid, |ctx| {
            hits.fetch_add(1, Ordering::Relaxed);
            ctx.charge(1, crate::workgroup::ExecScope::WholeWorkGroup);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 37);
        assert_eq!(res.wgs_run, 37);
        // 37 WGs × 2 WFs × 1 instruction.
        assert_eq!(res.counters.wf_issue_slots, 74);
    }

    #[test]
    fn dispatch_map_preserves_wg_order() {
        let engine = SimtEngine::with_cus(3);
        let grid = Grid { wg_count: 10, wg_size: 4, wf_width: 4 };
        let (outs, _) = engine.dispatch_map(grid, |ctx| ctx.wg_id() * 100);
        assert_eq!(outs, (0..10).map(|i| i * 100).collect::<Vec<_>>());
    }

    #[test]
    fn kernels_share_memory_with_host_via_atomics() {
        // Every work-item increments one shared counter: the total must be
        // exact — real atomics, real concurrency.
        let engine = SimtEngine::with_cus(4);
        let grid = Grid { wg_count: 16, wg_size: 64, wf_width: 64 };
        let shared = AtomicU64::new(0);
        engine.dispatch(grid, |ctx| {
            for _lane in ctx.active().clone().iter() {
                shared.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(shared.load(Ordering::Relaxed), 16 * 64);
    }

    #[test]
    fn seq_dispatch_is_deterministic() {
        let engine = SimtEngine::new();
        let grid = Grid { wg_count: 5, wg_size: 4, wf_width: 4 };
        let (a, ra) = engine.dispatch_seq(grid, |ctx| ctx.wg_id());
        let (b, rb) = engine.dispatch_seq(grid, |ctx| ctx.wg_id());
        assert_eq!(a, b);
        assert_eq!(ra.counters, rb.counters);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn empty_grid_panics() {
        SimtEngine::new().dispatch(Grid { wg_count: 0, wg_size: 4, wf_width: 4 }, |_| {});
    }
}

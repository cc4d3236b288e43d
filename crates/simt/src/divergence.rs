//! Diverged work-group-level loop execution (paper §5, §8.2).
//!
//! Irregular kernels loop over per-lane work lists of different lengths
//! (e.g. a vertex's edge list). Work-group-level operations inside such a
//! loop require *every* lane of the work-group to participate, so the loop
//! must be transformed. The paper evaluates three ways to run it:
//!
//! * [`DivergedMode::SoftwarePredication`] (Fig. 10b) — what Gravel ships
//!   on current GPUs. The trip count is `reduce_max` of the per-lane
//!   counts, inactive lanes keep executing with their work-group, and
//!   explicit predicate arithmetic selects active lanes each iteration.
//! * [`DivergedMode::WgReconvergence`] (§5.3) — a future GPU that tracks
//!   control flow at work-group granularity (thread-block-compaction-style
//!   reconvergence stack). No predication arithmetic, but fully-inactive
//!   wavefronts still execute (Fig. 11c).
//! * [`DivergedMode::FineGrainBarrier`] (Fig. 10c) — HSA-style `fbar`
//!   extended to arbitrary lane sets. Wavefronts whose lanes have all left
//!   stop executing (Fig. 11d), at the price of per-iteration barrier
//!   management.
//!
//! The executors do the *same* per-lane work (the body runs under the
//! iteration's active mask in every mode) but charge mode-specific
//! overhead, so both results and relative costs are comparable — this is
//! the §8.2 experiment's engine.

use crate::fbar::FBar;
use crate::lanes::LaneVec;
use crate::workgroup::{ExecScope, WgCtx};

/// How a diverged loop reaches work-group-level semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DivergedMode {
    /// Explicit software predication (current hardware; Gravel's default).
    SoftwarePredication,
    /// Work-group-granularity reconvergence (future hardware).
    WgReconvergence,
    /// Per-lane fine-grain barriers (future hardware; software-emulated
    /// cost by default, see [`DivergedCosts::fbar_emulated`]).
    FineGrainBarrier,
}

/// Per-iteration overhead charges for each mode, in wavefront instructions.
///
/// Defaults are calibrated to the paper's observations (§5.1, §8.2): the
/// software-predication transform adds predicate computation, zeroing of
/// operands, and a select per loop iteration; WG-granularity reconvergence
/// costs only the loop branch; an fbar costs the branch plus barrier
/// management, which is cheap in hardware but expensive when emulated in
/// software (the paper's 1.06× "lower bound").
#[derive(Clone, Copy, Debug)]
pub struct DivergedCosts {
    /// Extra instructions per iteration for software predication
    /// (predicate compute + operand select, Fig. 10b lines 7-11).
    pub predication_overhead: u64,
    /// Loop-control instructions per iteration common to every mode.
    pub loop_overhead: u64,
    /// Barrier-management instructions per iteration in fbar mode.
    pub fbar_overhead: u64,
}

impl DivergedCosts {
    /// Costs for software-emulated fbar (what the paper measured: high
    /// per-iteration overhead, 1.06× over predication on GUPS-mod).
    ///
    /// The constants are fitted once against §8.2's published speedups:
    /// the Fig. 10b predication transform issues ~8 extra instructions
    /// per loop iteration (trip-count compare, operand zeroing, selects,
    /// and plumbing the active flag through the network API), which
    /// reproduces the 1.28× gain of hardware WG-granularity control
    /// flow; emulating an fbar in software costs about the same per
    /// iteration (membership bookkeeping + arrive sequence), which is
    /// why the paper's measured fbar gain is only 1.06× and called a
    /// lower bound.
    pub fn fbar_emulated() -> Self {
        DivergedCosts { predication_overhead: 8, loop_overhead: 1, fbar_overhead: 8 }
    }

    /// Costs for native hardware fbar (the paper's argument for future
    /// GPUs: management folds into the barrier network).
    pub fn fbar_hardware() -> Self {
        DivergedCosts { predication_overhead: 8, loop_overhead: 1, fbar_overhead: 0 }
    }
}

impl Default for DivergedCosts {
    fn default() -> Self {
        Self::fbar_emulated()
    }
}

/// Execute `body` once per loop iteration with the iteration's active mask
/// pushed on `ctx`. `trip_counts[lane]` is the number of iterations lane
/// `lane` executes; lanes inactive in the enclosing mask execute none.
///
/// Returns the number of loop iterations the work-group executed.
///
/// ```
/// use gravel_simt::*;
///
/// let grid = Grid { wg_count: 1, wg_size: 8, wf_width: 4 };
/// let mut ctx = WgCtx::new(grid, 0);
/// let trips = LaneVec::from_vec(vec![3, 0, 1, 0, 0, 0, 0, 2]);
/// let mut per_lane = vec![0u64; 8];
/// let iters = diverged_for(
///     &mut ctx,
///     &trips,
///     DivergedMode::FineGrainBarrier,
///     DivergedCosts::default(),
///     |ctx, _i| {
///         for lane in ctx.active().clone().iter() {
///             per_lane[lane] += 1;
///         }
///     },
/// );
/// assert_eq!(iters, 3); // reduce-max of the trip counts
/// assert_eq!(per_lane, vec![3, 0, 1, 0, 0, 0, 0, 2]);
/// ```
pub fn diverged_for(
    ctx: &mut WgCtx,
    trip_counts: &LaneVec<u64>,
    mode: DivergedMode,
    costs: DivergedCosts,
    mut body: impl FnMut(&mut WgCtx, u64),
) -> u64 {
    assert_eq!(trip_counts.lanes(), ctx.wg_size(), "trip-count register width mismatch");
    let enclosing = ctx.active().clone();
    match mode {
        DivergedMode::SoftwarePredication | DivergedMode::WgReconvergence => {
            // Fig. 10b line 5: all lanes agree on the trip count.
            let loop_cnt = ctx.reduce_max(trip_counts, 0);
            for i in 0..loop_cnt {
                let overhead = match mode {
                    DivergedMode::SoftwarePredication => {
                        costs.loop_overhead + costs.predication_overhead
                    }
                    _ => costs.loop_overhead,
                };
                // Inactive lanes keep executing with their work-group:
                // charge the whole work-group (Fig. 11c).
                ctx.charge(overhead, ExecScope::WholeWorkGroup);
                let iter_mask = enclosing.filter(|l| i < trip_counts.get(l));
                ctx.with_mask(iter_mask, |ctx| body(ctx, i));
            }
            loop_cnt
        }
        DivergedMode::FineGrainBarrier => {
            // Fig. 10c: all lanes join; a lane leaves after its last
            // iteration; drained wavefronts stop executing.
            let mut fb = FBar::init(ctx.wg_size());
            fb.join_mask(&enclosing).expect("initial fbar join");
            // Lanes with zero trips leave immediately (they never enter
            // the loop body).
            for lane in enclosing.iter() {
                if trip_counts.get(lane) == 0 {
                    fb.leave(lane).expect("zero-trip leave");
                }
            }
            let mut i = 0u64;
            while !fb.drained() {
                let participants = fb.arrive();
                // Only live wavefronts execute this iteration.
                ctx.with_mask(participants.clone(), |ctx| {
                    ctx.charge(costs.loop_overhead + costs.fbar_overhead, ExecScope::ActiveWavefronts);
                    body(ctx, i);
                });
                for lane in participants.iter() {
                    if i + 1 >= trip_counts.get(lane) {
                        fb.leave(lane).expect("post-iteration leave");
                    }
                }
                i += 1;
            }
            ctx.counters.fbar_ops += fb.ops();
            i
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::mask::Mask;

    fn ctx() -> WgCtx {
        // 8 lanes, 4-wide wavefronts → 2 wavefronts.
        WgCtx::new(Grid { wg_count: 1, wg_size: 8, wf_width: 4 }, 0)
    }

    /// Sum per-lane contributions: every mode must produce identical
    /// results — only the cost differs.
    fn run_sum(mode: DivergedMode) -> (Vec<u64>, u64, crate::counters::Counters) {
        let mut c = ctx();
        let trips = LaneVec::from_vec(vec![2, 3, 3, 2, 0, 0, 0, 0]);
        let mut acc = vec![0u64; 8];
        let iters = diverged_for(&mut c, &trips, mode, DivergedCosts::default(), |ctx, _i| {
            let mask = ctx.active().clone();
            for lane in mask.iter() {
                acc[lane] += 1;
            }
        });
        (acc, iters, c.counters)
    }

    #[test]
    fn all_modes_produce_identical_results() {
        let (pred, i1, _) = run_sum(DivergedMode::SoftwarePredication);
        let (wg, i2, _) = run_sum(DivergedMode::WgReconvergence);
        let (fbar, i3, _) = run_sum(DivergedMode::FineGrainBarrier);
        assert_eq!(pred, vec![2, 3, 3, 2, 0, 0, 0, 0]);
        assert_eq!(pred, wg);
        assert_eq!(pred, fbar);
        assert_eq!(i1, 3);
        assert_eq!(i2, 3);
        assert_eq!(i3, 3);
    }

    #[test]
    fn predication_charges_more_than_wg_reconvergence() {
        let (_, _, pred) = run_sum(DivergedMode::SoftwarePredication);
        let (_, _, wg) = run_sum(DivergedMode::WgReconvergence);
        assert!(
            pred.wf_issue_slots > wg.wf_issue_slots,
            "predication {} should exceed wg-reconvergence {}",
            pred.wf_issue_slots,
            wg.wf_issue_slots
        );
    }

    #[test]
    fn fbar_skips_drained_wavefronts() {
        // Wavefront 1 (lanes 4-7) has zero trips: under fbar it never
        // executes the loop; under WG reconvergence it executes every
        // iteration.
        let (_, _, wg) = run_sum(DivergedMode::WgReconvergence);
        let (_, _, fbar) = run_sum(DivergedMode::FineGrainBarrier);
        // WG mode charges loop overhead to 2 wavefronts × 3 iters; fbar to
        // 1 wavefront × 3 iters (plus fbar overhead on that wavefront).
        let wg_loop_slots = wg.wf_issue_slots;
        let fbar_loop_slots = fbar.wf_issue_slots;
        assert!(
            fbar.fbar_ops > 0,
            "fbar ops must be accounted: {fbar:?}"
        );
        // fbar executes half the wavefront-iterations for loop control.
        assert!(fbar_loop_slots < wg_loop_slots + fbar.fbar_ops);
    }

    #[test]
    fn zero_trip_loop_executes_nothing() {
        let mut c = ctx();
        let trips = LaneVec::splat(8, 0u64);
        let mut ran = false;
        for mode in [
            DivergedMode::SoftwarePredication,
            DivergedMode::WgReconvergence,
            DivergedMode::FineGrainBarrier,
        ] {
            let iters =
                diverged_for(&mut c, &trips, mode, DivergedCosts::default(), |_, _| ran = true);
            assert_eq!(iters, 0);
        }
        assert!(!ran);
    }

    #[test]
    fn respects_enclosing_mask() {
        let mut c = ctx();
        let trips = LaneVec::splat(8, 2u64);
        let enclosing = Mask::from_fn(8, |l| l < 2);
        let mut acc = vec![0u64; 8];
        c.with_mask(enclosing, |c| {
            diverged_for(
                c,
                &trips,
                DivergedMode::FineGrainBarrier,
                DivergedCosts::default(),
                |ctx, _| {
                    for lane in ctx.active().clone().iter() {
                        acc[lane] += 1;
                    }
                },
            );
        });
        assert_eq!(acc, vec![2, 2, 0, 0, 0, 0, 0, 0]);
    }
}

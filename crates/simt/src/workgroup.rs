//! Work-group execution context.
//!
//! A [`WgCtx`] is what a kernel sees: lane ids, the active mask (with a
//! reconvergence stack for nested branches), cost counters, a scratchpad,
//! and the work-group-level collectives of §2.1/§4.1. Kernels are written
//! in an explicitly SIMT style — per-lane values live in
//! `LaneVec` registers and control flow is
//! expressed through mask-manipulating combinators — which makes the
//! engine's semantics identical to hardware predication.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::coalesce;
use crate::collectives::{self, CountingSort};
use crate::counters::Counters;
use crate::grid::Grid;
use crate::lanes::LaneVec;
use crate::mask::Mask;
use crate::scratchpad::Scratchpad;

/// Which wavefronts an instruction is charged to.
///
/// Hardware executing at wavefront granularity skips wavefronts whose lanes
/// are all inactive; software predication and work-group-granularity
/// reconvergence force every wavefront of the work-group to keep executing
/// (paper §5.3, Fig. 11c); fine-grain barriers let fully-drained wavefronts
/// leave (Fig. 11d).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecScope {
    /// Charge only wavefronts that have at least one active lane.
    ActiveWavefronts,
    /// Charge every wavefront of the work-group.
    WholeWorkGroup,
}

/// Execution context handed to kernels, one per work-group.
///
/// The engine keeps one context per compute unit and [`reset`](Self::reset)s
/// it between work-groups, so the mask stack and the lent word buffers keep
/// their capacity: a steady-state work-group allocates only what its kernel
/// allocates.
pub struct WgCtx {
    grid: Grid,
    wg_id: usize,
    mask_stack: Vec<Mask>,
    /// Dynamic event counters for this work-group.
    pub counters: Counters,
    /// Programmer-managed local data share.
    pub scratchpad: Scratchpad,
    /// Word buffers lent out by [`take_words`](Self::take_words).
    spare_words: Vec<Vec<u64>>,
}

impl WgCtx {
    /// Context for work-group `wg_id` of `grid`, all lanes active.
    pub fn new(grid: Grid, wg_id: usize) -> Self {
        assert!(wg_id < grid.wg_count, "work-group id out of range");
        let mut mask_stack = Vec::with_capacity(4);
        mask_stack.push(Mask::all(grid.wg_size));
        WgCtx {
            grid,
            wg_id,
            mask_stack,
            counters: Counters::default(),
            scratchpad: Scratchpad::new(),
            spare_words: Vec::new(),
        }
    }

    /// Re-arm the context for work-group `wg_id` of the same grid: all
    /// lanes active, counters and scratchpad cleared. What a kernel can
    /// observe is exactly what [`new`](Self::new) would give it.
    pub fn reset(&mut self, wg_id: usize) {
        assert!(wg_id < self.grid.wg_count, "work-group id out of range");
        self.wg_id = wg_id;
        self.mask_stack.truncate(1);
        self.counters = Counters::default();
        self.scratchpad = Scratchpad::new();
    }

    /// Borrow a buffer of `len` words that outlives this work-group.
    /// Runtime code acting for the work-group (the queue's producer, the
    /// RPC offload) stages words in it instead of allocating per call;
    /// hand it back with [`give_words`](Self::give_words) to keep its
    /// capacity. The contents are unspecified (zeros or an earlier
    /// borrower's words): write before you read.
    pub fn take_words(&mut self, len: usize) -> Vec<u64> {
        let mut words = self.spare_words.pop().unwrap_or_default();
        words.resize(len, 0);
        words
    }

    /// Return a buffer taken with [`take_words`](Self::take_words).
    pub fn give_words(&mut self, words: Vec<u64>) {
        self.spare_words.push(words);
    }

    /// This work-group's id within the grid.
    pub fn wg_id(&self) -> usize {
        self.wg_id
    }

    /// Work-items per work-group.
    pub fn wg_size(&self) -> usize {
        self.grid.wg_size
    }

    /// Lanes per wavefront.
    pub fn wf_width(&self) -> usize {
        self.grid.wf_width
    }

    /// Wavefronts in this work-group.
    pub fn wf_count(&self) -> usize {
        self.grid.wfs_per_wg()
    }

    /// The launch geometry.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// `LANE_ID` register: each lane's index within the work-group.
    pub fn lane_ids(&self) -> LaneVec<usize> {
        LaneVec::from_fn(self.wg_size(), |l| l)
    }

    /// `GRID_ID` register: each lane's global work-item id.
    pub fn global_ids(&self) -> LaneVec<usize> {
        let base = self.grid.wg_base(self.wg_id);
        LaneVec::from_fn(self.wg_size(), move |l| base + l)
    }

    /// The current active mask.
    pub fn active(&self) -> &Mask {
        self.mask_stack.last().expect("mask stack never empty")
    }

    /// Number of currently active lanes.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    // ---- cost charging -------------------------------------------------

    /// Charge `instrs` wavefront instructions under `scope`.
    pub fn charge(&mut self, instrs: u64, scope: ExecScope) {
        let active = self.active();
        let wfs = match scope {
            ExecScope::WholeWorkGroup => self.wf_count(),
            ExecScope::ActiveWavefronts => active.active_wavefronts(self.wf_width()),
        };
        let lanes = active.count();
        self.counters.wf_issue_slots += instrs * wfs as u64;
        self.counters.active_lane_slots += instrs * lanes as u64;
    }

    /// Charge one coalesced memory instruction: each active lane accesses
    /// `bytes` at its address in `addrs`. Returns the number of cache-line
    /// transactions the coalescer issued.
    pub fn mem_access(&mut self, addrs: &LaneVec<u64>, bytes: usize) -> usize {
        self.mem_access_by(bytes, |lane| addrs.get(lane))
    }

    /// [`mem_access`](Self::mem_access) for an access whose addresses are
    /// a function of the lane id (a slot column, a table base plus an
    /// index register): same charges, no address register to build.
    /// `addr_of` must be pure; it is called for active lanes only.
    pub fn mem_access_by(&mut self, bytes: usize, addr_of: impl Fn(usize) -> u64) -> usize {
        self.mem_access_rows(bytes, 1, 0, addr_of)
    }

    /// `rows` memory instructions over one address register: instruction
    /// `r` accesses `bytes` at `addr_of(lane) + r * pitch` — a pitched
    /// access such as a structure-of-arrays record. Charged as `rows`
    /// calls of [`mem_access`](Self::mem_access); returns their
    /// transactions summed. A store to the columns of the lanes' ranks
    /// is charged the same without walking the lanes by
    /// [`mem_access_compacted`](Self::mem_access_compacted).
    pub fn mem_access_rows(
        &mut self,
        bytes: usize,
        rows: usize,
        pitch: u64,
        addr_of: impl Fn(usize) -> u64,
    ) -> usize {
        let mut total = 0;
        for row in 0..rows as u64 {
            let tx = coalesce::wg_transactions_by(self.active(), bytes, self.wf_width(), |lane| {
                addr_of(lane) + row * pitch
            });
            self.counters.mem_transactions += tx as u64;
            self.counters.mem_accesses += self.active_count() as u64;
            self.charge(1, ExecScope::ActiveWavefronts);
            total += tx;
        }
        total
    }

    /// `rows` memory instructions of a compacted-column store: the active
    /// lane of rank `r` accesses `bytes` at `base + r * bytes + row *
    /// pitch` in instruction `row` — a queue slot's payload rows written
    /// by a diverged work-group. Charges exactly what
    /// [`mem_access_rows`](Self::mem_access_rows) charges for
    /// `|lane| base + rank(lane) * bytes`, in closed form: a wavefront's
    /// active lanes hold consecutive ranks, so each row of theirs is one
    /// contiguous byte range, one transaction per cache line it touches.
    /// A popcount per wavefront, no walk over the lanes.
    pub fn mem_access_compacted(
        &mut self,
        bytes: usize,
        rows: usize,
        pitch: u64,
        base: u64,
    ) -> usize {
        assert!(bytes > 0, "zero-sized access");
        let (line, bytes_u64) = (coalesce::CACHE_LINE as u64, bytes as u64);
        let (active, wf_width) = (self.active(), self.wf_width());
        // `rank`: active lanes in the wavefronts before this one.
        let (mut tx, mut rank, mut lo) = (0u64, 0u64, 0);
        while lo < active.lanes() {
            let hi = (lo + wf_width).min(active.lanes());
            let live = active.count_range(lo, hi) as u64;
            if live > 0 {
                for row in 0..rows as u64 {
                    let first = base + row * pitch + rank * bytes_u64;
                    let last = first + live * bytes_u64 - 1;
                    tx += last / line - first / line + 1;
                }
            }
            rank += live;
            lo = hi;
        }
        self.counters.mem_transactions += tx;
        self.counters.mem_accesses += rows as u64 * rank;
        self.charge(rows as u64, ExecScope::ActiveWavefronts);
        tx as usize
    }

    /// Execute a work-group barrier (charges every wavefront — all must
    /// arrive).
    pub fn wg_barrier(&mut self) {
        self.counters.barriers += 1;
        self.charge(1, ExecScope::WholeWorkGroup);
    }

    /// Perform a real shared-memory fetch-add, charging one atomic.
    /// This is how kernels synchronize with CPU threads through fine-grain
    /// shared virtual memory (§2.3).
    pub fn atomic_fetch_add(&mut self, target: &AtomicU64, add: u64) -> u64 {
        self.counters.atomics += 1;
        self.charge(1, ExecScope::ActiveWavefronts);
        target.fetch_add(add, Ordering::AcqRel)
    }

    // ---- structured divergence ------------------------------------------

    /// SIMT `if`: run `then_body` with the active mask restricted to lanes
    /// where `cond` holds, then `else_body` with the complement. Either
    /// side is skipped entirely when its mask is empty (wavefront-level
    /// reconvergence would skip per wavefront; skipping per side is the
    /// work-group-synchronous upper bound and is what WG-level code must
    /// assume).
    pub fn if_else(
        &mut self,
        cond: &Mask,
        then_body: impl FnOnce(&mut WgCtx),
        else_body: impl FnOnce(&mut WgCtx),
    ) {
        let parent = self.active();
        let (then_mask, else_mask) = (parent.and(cond), parent.and_not(cond));
        // Charge the branch instruction itself.
        self.charge(1, ExecScope::ActiveWavefronts);
        if !then_mask.is_empty() {
            self.mask_stack.push(then_mask);
            then_body(self);
            self.mask_stack.pop();
        }
        if !else_mask.is_empty() {
            self.mask_stack.push(else_mask);
            else_body(self);
            self.mask_stack.pop();
        }
    }

    /// SIMT `if` with no else side.
    pub fn if_then(&mut self, cond: &Mask, body: impl FnOnce(&mut WgCtx)) {
        self.if_else(cond, body, |_| {});
    }

    /// Run `body` with an explicit mask pushed (used by the diverged-loop
    /// executors, which compute iteration masks themselves).
    pub fn with_mask(&mut self, mask: Mask, body: impl FnOnce(&mut WgCtx)) {
        self.push_mask(mask);
        body(self);
        self.pop_mask();
    }

    /// Push an explicit active mask. Prefer [`with_mask`](Self::with_mask);
    /// the raw push/pop pair exists for wrapper contexts (e.g. the Gravel
    /// runtime's PGAS context) that cannot nest closures over `self`.
    /// Every push must be balanced by [`pop_mask`](Self::pop_mask).
    pub fn push_mask(&mut self, mask: Mask) {
        assert_eq!(mask.lanes(), self.wg_size(), "mask width mismatch");
        self.mask_stack.push(mask);
    }

    /// Pop the mask pushed by [`push_mask`](Self::push_mask).
    pub fn pop_mask(&mut self) {
        assert!(self.mask_stack.len() > 1, "cannot pop the base mask");
        self.mask_stack.pop();
    }

    // ---- work-group-level collectives (§4.1, §5.2) -----------------------

    /// Charge one work-group collective without computing it, for callers
    /// that read the result off the active mask (a prefix sum of ones is
    /// [`Mask::rank`], a broadcast of a value the caller already holds is
    /// that value). The reduce/prefix/elect methods charge exactly this.
    pub fn charge_collective(&mut self) {
        // A log-depth tree network (Fig. 11a): one instruction + barrier
        // per level, executed by the whole work-group.
        let levels = usize::BITS - (self.wg_size().max(2) - 1).leading_zeros();
        self.counters.collectives += 1;
        self.counters.barriers += levels as u64;
        self.charge(levels as u64, ExecScope::WholeWorkGroup);
    }

    /// Reduce-to-max over active lanes; inactive lanes submit `identity`.
    pub fn reduce_max(&mut self, vals: &LaneVec<u64>, identity: u64) -> u64 {
        self.charge_collective();
        collectives::reduce_max(vals, self.active(), identity)
    }

    /// Reduce-to-sum over active lanes.
    pub fn reduce_sum(&mut self, vals: &LaneVec<u64>) -> u64 {
        self.charge_collective();
        collectives::reduce_sum(vals, self.active())
    }

    /// Exclusive prefix sum over active lanes (inactive submit 0).
    pub fn prefix_sum(&mut self, vals: &LaneVec<u64>) -> LaneVec<u64> {
        self.charge_collective();
        collectives::exclusive_prefix_sum(vals, self.active())
    }

    /// Elect the work-group leader: the highest active lane id
    /// (Fig. 5b line 5, `reduce_max(LANE_ID)`).
    pub fn elect_leader(&mut self) -> Option<usize> {
        self.charge_collective();
        self.active().leader()
    }

    /// Work-group counting sort by destination (§3.3). Allocates the
    /// scratchpad footprint the paper describes (ptrs + dests + cnts) and
    /// frees it before returning, so `scratchpad.high_water()` reflects
    /// the cost.
    pub fn counting_sort(
        &mut self,
        dests: &LaneVec<usize>,
        node_count: usize,
    ) -> Result<CountingSort, crate::scratchpad::ScratchpadOverflow> {
        let _ptrs: Vec<i64> = self.scratchpad.alloc(self.wg_size())?;
        let _d: Vec<i32> = self.scratchpad.alloc(node_count)?;
        let _c: Vec<i32> = self.scratchpad.alloc(node_count)?;
        // A counting sort is a few collectives' worth of work.
        self.charge_collective();
        self.charge_collective();
        let out = collectives::counting_sort_by_dest(dests, self.active(), node_count);
        self.scratchpad.free::<i64>(self.wg_size());
        self.scratchpad.free::<i32>(node_count);
        self.scratchpad.free::<i32>(node_count);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx4() -> WgCtx {
        // 1 work-group of 8 lanes, 4-wide wavefronts → 2 wavefronts.
        WgCtx::new(Grid { wg_count: 1, wg_size: 8, wf_width: 4 }, 0)
    }

    #[test]
    fn ids() {
        let g = Grid { wg_count: 3, wg_size: 8, wf_width: 4 };
        let ctx = WgCtx::new(g, 2);
        assert_eq!(ctx.lane_ids().as_slice()[7], 7);
        assert_eq!(ctx.global_ids().as_slice()[0], 16);
        assert_eq!(ctx.wf_count(), 2);
    }

    #[test]
    fn charge_whole_wg_vs_active_wavefronts() {
        let mut ctx = ctx4();
        // Restrict to lanes 0..3 (wavefront 0 only).
        let m = Mask::from_fn(8, |l| l < 4);
        ctx.with_mask(m, |ctx| {
            ctx.charge(1, ExecScope::ActiveWavefronts);
        });
        assert_eq!(ctx.counters.wf_issue_slots, 1); // only WF0 issued
        let mut ctx2 = ctx4();
        let m = Mask::from_fn(8, |l| l < 4);
        ctx2.with_mask(m, |ctx| {
            ctx.charge(1, ExecScope::WholeWorkGroup);
        });
        assert_eq!(ctx2.counters.wf_issue_slots, 2); // both WFs forced
    }

    #[test]
    fn if_else_partitions_lanes_and_restores_mask() {
        let mut ctx = ctx4();
        let cond = Mask::from_fn(8, |l| l % 2 == 0);
        let mut then_lanes = 0;
        let mut else_lanes = 0;
        ctx.if_else(
            &cond,
            |c| then_lanes = c.active_count(),
            |c| else_lanes = c.active_count(),
        );
        assert_eq!(then_lanes, 4);
        assert_eq!(else_lanes, 4);
        assert!(ctx.active().is_full());
    }

    #[test]
    fn empty_branch_side_is_skipped() {
        let mut ctx = ctx4();
        let cond = Mask::all(8);
        let mut else_ran = false;
        ctx.if_else(&cond, |_| {}, |_| else_ran = true);
        assert!(!else_ran);
    }

    #[test]
    fn nested_if_intersects_masks() {
        let mut ctx = ctx4();
        let outer = Mask::from_fn(8, |l| l < 6);
        let inner = Mask::from_fn(8, |l| l >= 4);
        let mut count = usize::MAX;
        ctx.if_then(&outer, |c| {
            c.if_then(&inner, |c2| count = c2.active_count());
        });
        assert_eq!(count, 2); // lanes 4, 5
    }

    #[test]
    fn collectives_charge_tree_cost() {
        let mut ctx = ctx4();
        let vals = LaneVec::splat(8, 1u64);
        assert_eq!(ctx.reduce_sum(&vals), 8);
        assert_eq!(ctx.counters.collectives, 1);
        // 8 lanes → 3 levels, charged to both wavefronts.
        assert_eq!(ctx.counters.barriers, 3);
        assert_eq!(ctx.counters.wf_issue_slots, 6);
    }

    #[test]
    fn leader_is_highest_active() {
        let mut ctx = ctx4();
        let m = Mask::from_fn(8, |l| l < 5);
        let mut leader = None;
        ctx.with_mask(m, |c| leader = c.elect_leader());
        assert_eq!(leader, Some(4));
    }

    #[test]
    fn atomics_are_real_and_counted() {
        let mut ctx = ctx4();
        let target = AtomicU64::new(10);
        assert_eq!(ctx.atomic_fetch_add(&target, 5), 10);
        assert_eq!(target.load(Ordering::Relaxed), 15);
        assert_eq!(ctx.counters.atomics, 1);
    }

    #[test]
    fn mem_access_counts_transactions() {
        let mut ctx = ctx4();
        // All lanes read consecutive u32s: 8 × 4 B = 32 B → 1 line,
        // but split across 2 wavefront ports → 1 line each (same line!).
        let addrs = LaneVec::from_fn(8, |l| (l * 4) as u64);
        let tx = ctx.mem_access(&addrs, 4);
        assert_eq!(tx, 2); // one transaction per wavefront port
        assert_eq!(ctx.counters.mem_accesses, 8);
    }

    #[test]
    fn compacted_store_charges_what_rank_addressed_rows_charge() {
        // Lanes 1, 2 | 6 (ranks 0, 1 | 2) store 8 bytes from byte 60,
        // rows 72 bytes apart: row 0 is lines 0-1 | 1, row 1 line 2 | 2.
        let mask = Mask::from_fn(8, |l| [1, 2, 6].contains(&l));
        let (mut closed, mut walked) = (ctx4(), ctx4());
        closed.with_mask(mask.clone(), |c| assert_eq!(c.mem_access_compacted(8, 2, 72, 60), 5));
        let rank_addr = |l: usize| 60 + mask.rank(l) as u64 * 8;
        walked.with_mask(mask.clone(), |c| assert_eq!(c.mem_access_rows(8, 2, 72, rank_addr), 5));
        assert_eq!(closed.counters, walked.counters);
        assert_eq!(closed.counters.mem_accesses, 6);
    }

    #[test]
    fn counting_sort_frees_scratchpad() {
        let mut ctx = ctx4();
        let dests = LaneVec::from_fn(8, |l| l % 2);
        let cs = ctx.counting_sort(&dests, 2).unwrap();
        assert_eq!(cs.cnts, vec![4, 4]);
        assert_eq!(ctx.scratchpad.allocated(), 0);
        assert!(ctx.scratchpad.high_water() > 0);
    }
}

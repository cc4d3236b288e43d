//! GUPS-mod — the diverged work-group-level operation study (paper §8.2).
//!
//! A modified GUPS where each work-item performs a *random* number of
//! updates and 95 % of work-items perform none, so the offloading
//! `shmem_inc` executes from heavily divergent control flow. The paper
//! compares software predication (current hardware) against two
//! future-GPU alternatives — work-group-granularity control flow (1.28×)
//! and fine-grain barriers (1.06× when emulated in software) — and this
//! module reproduces the experiment on the SIMT engine: the same kernel
//! runs under each [`DivergedMode`], produces identical results, and the
//! engine's issue-slot counters provide the cycle proxy for the speedups.

use std::sync::Arc;

use gravel_gq::{Consumed, GravelQueue, Message, QueueConfig};
use gravel_pgas::SymmetricHeap;
use gravel_simt::{
    diverged_for, Counters, DivergedCosts, DivergedMode, Grid, LaneVec, SimtEngine,
};

/// GUPS-mod problem description.
#[derive(Clone, Copy, Debug)]
pub struct GupsModInput {
    /// Work-items launched.
    pub wis: usize,
    /// Fraction of work-items that perform at least one update (paper:
    /// 5 %).
    pub active_fraction: f64,
    /// Maximum updates per active work-item.
    pub max_updates: u64,
    /// Table length (local; the experiment is single-node).
    pub table_len: usize,
    /// Seed for the per-work-item trip counts and addresses.
    pub seed: u64,
}

impl GupsModInput {
    /// The paper's shape at test scale.
    pub fn small() -> Self {
        GupsModInput { wis: 4096, active_fraction: 0.05, max_updates: 8, table_len: 256, seed: 3 }
    }
}

/// Deterministic per-work-item trip count (95 % zero by default).
pub fn trips(input: &GupsModInput, gid: usize) -> u64 {
    let h = crate::mer::kmer_hash(input.seed ^ gid as u64);
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    if unit < input.active_fraction {
        1 + (h % input.max_updates)
    } else {
        0
    }
}

/// Deterministic update address for work-item `gid`, iteration `i`.
pub fn update_addr(input: &GupsModInput, gid: usize, i: u64) -> u64 {
    crate::mer::kmer_hash(input.seed ^ (gid as u64) << 8 ^ i) % input.table_len as u64
}

/// Result of one GUPS-mod run.
#[derive(Clone, Debug)]
pub struct GupsModResult {
    /// Final table histogram.
    pub table: Vec<u64>,
    /// Messages offloaded.
    pub updates: u64,
    /// Engine counters (issue slots are the cycle proxy of §8.2).
    pub counters: Counters,
}

/// Run GUPS-mod under `mode`; all modes must produce identical tables.
pub fn run(input: &GupsModInput, mode: DivergedMode, costs: DivergedCosts) -> GupsModResult {
    let wg_size = 256usize;
    let grid = Grid { wg_count: input.wis.div_ceil(wg_size).max(1), wg_size, wf_width: 64 };
    let queue = Arc::new(GravelQueue::new(QueueConfig {
        slots: 64,
        lane_width: wg_size,
        rows: gravel_gq::MSG_ROWS,
    }));
    let heap = Arc::new(SymmetricHeap::new(input.table_len));

    // Consumer thread: drains slots and applies increments (the
    // aggregator + network-thread pair collapsed to one hop — §8.2 is a
    // single-node experiment about GPU-side divergence).
    let consumer = {
        let queue = queue.clone();
        let heap = heap.clone();
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            let mut applied = 0u64;
            loop {
                buf.clear();
                match queue.try_consume_into(&mut buf) {
                    Consumed::Batch(_) => {
                        for m in buf.chunks_exact(gravel_gq::MSG_ROWS) {
                            let msg = Message::decode([m[0], m[1], m[2], m[3]])
                                .expect("well-formed message");
                            heap.fetch_add(msg.addr, msg.value);
                            applied += 1;
                        }
                    }
                    Consumed::Empty => std::thread::yield_now(),
                    Consumed::Closed => return applied,
                }
            }
        })
    };

    let engine = SimtEngine::with_cus(2);
    let input_copy = *input;
    let result = engine.dispatch(grid, |ctx| {
        let base = ctx.wg_id() * ctx.wg_size();
        let n = ctx.wg_size();
        let trip_counts =
            LaneVec::from_fn(n, |l| if base + l < input_copy.wis { trips(&input_copy, base + l) } else { 0 });
        diverged_for(ctx, &trip_counts, mode, costs, |ctx, i| {
            queue.wg_produce_with(ctx, |lane, msg| {
                let inc = Message::inc(0, update_addr(&input_copy, base + lane, i), 1);
                msg.copy_from_slice(&inc.encode());
            });
        });
    });
    queue.close();
    let applied = consumer.join().expect("consumer thread");

    GupsModResult { table: heap.snapshot(), updates: applied, counters: result.counters }
}

/// Expected table computed sequentially.
pub fn reference(input: &GupsModInput) -> Vec<u64> {
    let mut table = vec![0u64; input.table_len];
    for gid in 0..input.wis {
        for i in 0..trips(input, gid) {
            table[update_addr(input, gid, i) as usize] += 1;
        }
    }
    table
}

/// §8.2's headline numbers: issue-slot speedups of the two future-GPU
/// modes over software predication.
pub fn speedups(input: &GupsModInput, costs: DivergedCosts) -> (f64, f64) {
    let pred = run(input, DivergedMode::SoftwarePredication, costs);
    let wg = run(input, DivergedMode::WgReconvergence, costs);
    let fbar = run(input, DivergedMode::FineGrainBarrier, costs);
    assert_eq!(pred.table, wg.table, "modes must agree");
    assert_eq!(pred.table, fbar.table, "modes must agree");
    (
        pred.counters.wf_issue_slots as f64 / wg.counters.wf_issue_slots as f64,
        pred.counters.wf_issue_slots as f64 / fbar.counters.wf_issue_slots as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_match_the_reference_table() {
        let input = GupsModInput::small();
        let expect = reference(&input);
        for mode in [
            DivergedMode::SoftwarePredication,
            DivergedMode::WgReconvergence,
            DivergedMode::FineGrainBarrier,
        ] {
            let r = run(&input, mode, DivergedCosts::default());
            assert_eq!(r.table, expect, "{mode:?}");
            assert_eq!(r.updates, expect.iter().sum::<u64>(), "{mode:?}");
        }
    }

    #[test]
    fn about_five_percent_of_work_items_are_active() {
        let input = GupsModInput { wis: 100_000, ..GupsModInput::small() };
        let active = (0..input.wis).filter(|&g| trips(&input, g) > 0).count();
        let f = active as f64 / input.wis as f64;
        assert!((f - 0.05).abs() < 0.01, "active fraction {f}");
    }

    #[test]
    fn speedup_ordering_matches_paper() {
        // §8.2: WG-granularity > fbar-emulated > 1 (software predication).
        let input = GupsModInput::small();
        let (wg, fbar) = speedups(&input, DivergedCosts::default());
        assert!(wg > 1.0, "WG reconvergence speedup {wg}");
        assert!(fbar >= 1.0, "fbar speedup {fbar}");
        assert!(wg > fbar, "WG {wg} should beat emulated fbar {fbar}");
    }

    #[test]
    fn hardware_fbar_beats_emulated_fbar() {
        let input = GupsModInput::small();
        let emu = run(&input, DivergedMode::FineGrainBarrier, DivergedCosts::fbar_emulated());
        let hw = run(&input, DivergedMode::FineGrainBarrier, DivergedCosts::fbar_hardware());
        assert!(
            hw.counters.wf_issue_slots < emu.counters.wf_issue_slots,
            "hw {} vs emu {}",
            hw.counters.wf_issue_slots,
            emu.counters.wf_issue_slots
        );
    }
}

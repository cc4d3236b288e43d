//! Whole-kernel cost-model pins: the `Counters` every SIMT kernel in the
//! repo merges over a dispatch, against values recorded from the
//! step-by-step interpreter (the commit before the bit-parallel frontend:
//! per-lane mask walks, a `LaneVec` per collective, sort-and-dedup
//! coalescing). The per-call differential oracles live beside the code
//! (`crates/simt/tests/proptests.rs`, `gravel_gq::gravel_queue::stepwise`);
//! this file pins what they add up to for GUPS on the runtime, GUPS-mod
//! under all three diverged-loop modes, and the four `gups_styles` kernels,
//! so the model cannot drift without a diff here.
//!
//! `mem_transactions` of a kernel that writes queue slots depends on where
//! the allocator put the slot (a 64-lane row of 8-byte words is 8 lines
//! from a line-aligned base and 9 from any other), so for those kernels it
//! is pinned to that window instead of a value; the per-call oracle checks
//! it exactly against the real slot address.

use gravel_apps::{gups, gups_mod, gups_styles};
use gravel_core::{GravelConfig, GravelRuntime};
use gravel_simt::{Counters, DivergedCosts, DivergedMode, LaneVec, Mask};

/// Every counter but `mem_transactions`, in declaration order.
fn fields(c: &Counters) -> [u64; 8] {
    [
        c.wf_issue_slots,
        c.active_lane_slots,
        c.atomics,
        c.barriers,
        c.mem_accesses,
        c.collectives,
        c.messages,
        c.fbar_ops,
    ]
}

/// How `mem_transactions` is pinned.
enum Tx {
    /// Address-independent: exactly this many.
    Exactly(u64),
    /// Slot writes of 8-byte words by compacted lanes: between the
    /// line-aligned count and one more line per wavefront access.
    SlotWrites,
}

fn check(kernel: &str, got: &Counters, want: [u64; 8], tx: Tx) {
    assert_eq!(
        fields(got),
        want,
        "{kernel}: counters drifted from the step-by-step model"
    );
    match tx {
        Tx::Exactly(n) => assert_eq!(got.mem_transactions, n, "{kernel}: mem_transactions"),
        Tx::SlotWrites => {
            let floor = got.mem_accesses.div_ceil(8);
            // At most one extra line per wavefront access, each of which
            // took an issue slot.
            let ceil = floor + got.wf_issue_slots;
            assert!(
                (floor..=ceil).contains(&got.mem_transactions),
                "{kernel}: mem_transactions {} outside [{floor}, {ceil}]",
                got.mem_transactions
            );
        }
    }
}

/// The GUPS kernel of `gups::run_live` (Fig. 4b) at the paper's geometry
/// (256-lane work-groups of 64-wide wavefronts), last work-group partial.
#[test]
fn gups_on_the_runtime() {
    let input = gups::GupsInput {
        updates: 5_000,
        table_len: 512,
        seed: 11,
    };
    let mut cfg = GravelConfig::small(2, input.table_len);
    cfg.queue = gravel_gq::QueueConfig {
        slots: 32,
        lane_width: 256,
        rows: gravel_gq::MSG_ROWS,
    };
    cfg.wg_size = 256;
    cfg.wf_width = 64;
    let rt = GravelRuntime::new(cfg);
    let dir = gups::directory(&input, rt.nodes());
    let mut total = Counters::default();
    for node in 0..rt.nodes() {
        let updates = gups::node_updates(&input, rt.nodes(), node);
        let wgs = updates.len().div_ceil(256);
        let res = rt.dispatch(node, wgs, |ctx| {
            let gids = ctx.wg.global_ids();
            let n = ctx.wg.wg_size();
            let in_range = Mask::from_fn(n, |l| gids.get(l) < updates.len());
            ctx.masked(&in_range, |ctx| {
                let (dests, addrs) = LaneVec::pair_from_fn(n, |l| {
                    let r = dir.route(updates[gids.get(l).min(updates.len() - 1)]);
                    (r.dest, r.offset)
                });
                ctx.shmem_inc(&dests, &addrs, &LaneVec::splat(n, 1u64));
            });
        });
        total.merge(&res.counters);
    }
    rt.quiesce();
    assert!(gups::verify_live(&rt, &input));
    rt.shutdown().expect("clean shutdown");
    check("gups", &total, GUPS, Tx::SlotWrites);
}

#[test]
fn gups_mod_under_every_diverged_mode() {
    let input = gups_mod::GupsModInput::small();
    for (mode, want) in [
        (DivergedMode::SoftwarePredication, GUPS_MOD_PREDICATION),
        (DivergedMode::WgReconvergence, GUPS_MOD_WG_RECONVERGENCE),
        (DivergedMode::FineGrainBarrier, GUPS_MOD_FBAR),
    ] {
        let r = gups_mod::run(&input, mode, DivergedCosts::default());
        assert_eq!(r.table, gups_mod::reference(&input), "{mode:?}");
        check(
            &format!("gups_mod {mode:?}"),
            &r.counters,
            want,
            Tx::SlotWrites,
        );
    }
}

#[test]
fn the_four_gups_styles() {
    let (nodes, table_len) = (3, 256);
    let updates: Vec<Vec<usize>> = (0..nodes)
        .map(|n| (0..2000).map(|i| (i * 31 + n * 131) % table_len).collect())
        .collect();
    let (_, c) = gups_styles::gravel_style::run_counted(nodes, &updates, table_len);
    check("gravel_style", &c, STYLE_GRAVEL, Tx::SlotWrites);
    let (_, c) = gups_styles::msg_per_lane::run_counted(nodes, &updates, table_len);
    // One aligned 8-byte word per access: one line each, wherever it is.
    check(
        "msg_per_lane",
        &c,
        STYLE_MSG_PER_LANE,
        Tx::Exactly(c.mem_accesses),
    );
    let (_, c) = gups_styles::coprocessor::run_counted(nodes, &updates, table_len);
    check("coprocessor", &c, STYLE_COPROCESSOR, Tx::Exactly(0));
    let (_, c) = gups_styles::coalesced::run_counted(nodes, &updates, table_len);
    check("coalesced", &c, STYLE_COALESCED, Tx::Exactly(0));
}

// Recorded from the step-by-step interpreter; see the module doc.
const GUPS: [u64; 8] = [2320, 145000, 20, 480, 20000, 60, 5000, 0];
const GUPS_MOD_PREDICATION: [u64; 8] = [19269, 353725, 126, 3152, 4228, 394, 1057, 0];
const GUPS_MOD_WG_RECONVERGENCE: [u64; 8] = [15237, 95677, 126, 3152, 4228, 394, 1057, 0];
const GUPS_MOD_FBAR: [u64; 8] = [18046, 40166, 126, 3024, 4228, 378, 1057, 8334];
const STYLE_GRAVEL: [u64; 8] = [4401, 138000, 96, 1728, 24000, 288, 6000, 0];
const STYLE_MSG_PER_LANE: [u64; 8] = [30000, 30000, 6000, 0, 24000, 0, 6000, 0];
const STYLE_COPROCESSOR: [u64; 8] = [7488, 156000, 288, 6912, 0, 1152, 0, 0];
const STYLE_COALESCED: [u64; 8] = [1824, 114000, 0, 384, 0, 48, 6000, 0];

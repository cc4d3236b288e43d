//! Property tests for the SIMT engine's core invariants.

use gravel_simt::{
    coalesce, collectives, diverged_for, Counters, DivergedCosts, DivergedMode, ExecScope, Grid,
    LaneVec, Mask, SimtEngine, WgCtx, CACHE_LINE,
};
use proptest::prelude::*;
use std::sync::atomic::AtomicU64;

/// Arbitrary mask over `lanes` lanes from a bit vector.
fn mask_from_bits(bits: &[bool]) -> Mask {
    Mask::from_fn(bits.len(), |l| bits[l])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reduce over active lanes equals the scalar fold over the same
    /// lanes, for arbitrary masks and values.
    #[test]
    fn reduce_matches_scalar_fold(
        vals in prop::collection::vec(0u64..1_000_000, 1..200),
        bits in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let lanes = vals.len().min(bits.len());
        let vals = LaneVec::from_vec(vals[..lanes].to_vec());
        let mask = mask_from_bits(&bits[..lanes]);
        let sum = collectives::reduce_sum(&vals, &mask);
        let expect: u64 = mask.iter().map(|l| vals.get(l)).sum();
        prop_assert_eq!(sum, expect);
        let max = collectives::reduce_max(&vals, &mask, 0);
        let expect_max = mask.iter().map(|l| vals.get(l)).max().unwrap_or(0);
        prop_assert_eq!(max, expect_max);
    }

    /// Exclusive prefix sum: every lane's value equals the sum of active
    /// predecessors; reconstructing the total from the last active lane
    /// matches the reduction.
    #[test]
    fn prefix_sum_is_exclusive_running_total(
        vals in prop::collection::vec(0u64..1000, 1..200),
        bits in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let lanes = vals.len().min(bits.len());
        let vals = LaneVec::from_vec(vals[..lanes].to_vec());
        let mask = mask_from_bits(&bits[..lanes]);
        let ps = collectives::exclusive_prefix_sum(&vals, &mask);
        let mut running = 0u64;
        for l in 0..lanes {
            prop_assert_eq!(ps.get(l), running, "lane {}", l);
            if mask.get(l) {
                running += vals.get(l);
            }
        }
        prop_assert_eq!(running, collectives::reduce_sum(&vals, &mask));
    }

    /// Counting sort groups every active lane exactly once, in
    /// destination order.
    #[test]
    fn counting_sort_is_a_permutation_of_active_lanes(
        dests in prop::collection::vec(0usize..8, 1..200),
        bits in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let lanes = dests.len().min(bits.len());
        let dv = LaneVec::from_vec(dests[..lanes].to_vec());
        let mask = mask_from_bits(&bits[..lanes]);
        let cs = collectives::counting_sort_by_dest(&dv, &mask, 8);
        // Exactly the active lanes appear.
        let mut sorted = cs.order.clone();
        sorted.sort_unstable();
        let active: Vec<usize> = mask.iter().collect();
        prop_assert_eq!(sorted, active);
        // Counts per destination match.
        let total: usize = cs.cnts.iter().sum();
        prop_assert_eq!(total, mask.count());
        // Order is grouped by destination, ascending.
        let mut off = 0;
        for (d, &cnt) in cs.dests.iter().zip(&cs.cnts) {
            for &lane in &cs.order[off..off + cnt] {
                prop_assert_eq!(dv.get(lane), *d);
            }
            off += cnt;
        }
    }

    /// Mask boolean algebra: and/or/and_not behave like sets.
    #[test]
    fn mask_boolean_algebra(
        a in prop::collection::vec(any::<bool>(), 1..200),
        b in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let lanes = a.len().min(b.len());
        let ma = mask_from_bits(&a[..lanes]);
        let mb = mask_from_bits(&b[..lanes]);
        prop_assert_eq!(ma.and(&mb).count() + ma.and_not(&mb).count(), ma.count());
        prop_assert_eq!(ma.or(&mb).count(), ma.count() + mb.count() - ma.and(&mb).count());
        for l in ma.and(&mb).iter() {
            prop_assert!(ma.get(l) && mb.get(l));
        }
    }

    /// Every diverged mode executes each lane exactly `trips[lane]` times.
    #[test]
    fn diverged_modes_agree_for_arbitrary_trip_counts(
        trips in prop::collection::vec(0u64..6, 8..64),
    ) {
        // Round lanes up to a wavefront multiple.
        let wg = trips.len().next_multiple_of(8);
        let mut trips = trips;
        trips.resize(wg, 0);
        let grid = Grid { wg_count: 1, wg_size: wg, wf_width: 8 };
        let reference: Vec<u64> = trips.clone();
        let mut results = Vec::new();
        for mode in [
            DivergedMode::SoftwarePredication,
            DivergedMode::WgReconvergence,
            DivergedMode::FineGrainBarrier,
        ] {
            let mut ctx = WgCtx::new(grid, 0);
            let tc = LaneVec::from_vec(trips.clone());
            let mut acc = vec![0u64; wg];
            diverged_for(&mut ctx, &tc, mode, DivergedCosts::default(), |ctx, _| {
                for l in ctx.active().clone().iter() {
                    acc[l] += 1;
                }
            });
            results.push(acc);
        }
        for r in &results {
            prop_assert_eq!(r, &reference);
        }
    }

    /// Dispatch with any CU count yields the same per-work-group outputs.
    #[test]
    fn dispatch_output_independent_of_cu_count(
        wgs in 1usize..12,
        cus in 1usize..5,
    ) {
        let grid = Grid { wg_count: wgs, wg_size: 16, wf_width: 8 };
        let (seq, _) = SimtEngine::with_cus(1).dispatch_map(grid, |ctx| ctx.wg_id() * 3 + 1);
        let (par, _) = SimtEngine::with_cus(cus).dispatch_map(grid, |ctx| ctx.wg_id() * 3 + 1);
        prop_assert_eq!(seq, par);
    }
}

// ---- differential oracle for the cost model ---------------------------
//
// The engine's masks are bit-parallel and its coalescer is a single
// sort-free pass; what they must *compute* is the lane-at-a-time model
// below — one `bool` per lane, one issue slot per wavefront with any
// active lane, distinct cache lines by sort-and-dedup per wavefront. The
// properties hold the two equal in value and in every field of
// `Counters`, over work-group sizes that are not wavefront multiples,
// wavefronts that are not word multiples, and masks wider than the
// inline storage.

/// Cases per oracle property: a quick pass in the debug test run, a deep
/// one where CI runs the oracles `--release`.
const ORACLE_CASES: u32 = if cfg!(debug_assertions) { 256 } else { 4096 };

/// Work-group size, wavefront width, and a mask in one of the shapes
/// divergence produces: converged, fully masked off, scattered, or one
/// live wavefront.
fn arb_wg() -> impl Strategy<Value = (usize, usize, Vec<bool>)> {
    (1usize..=300, prop_oneof![Just(4usize), Just(32), Just(64)]).prop_flat_map(|(lanes, wf)| {
        let wf = wf.min(lanes);
        let wfs = lanes.div_ceil(wf);
        let scattered = || prop::collection::vec(any::<bool>(), lanes);
        prop_oneof![
            Just(vec![true; lanes]),
            Just(vec![false; lanes]),
            scattered(),
            (0..wfs, scattered())
                .prop_map(move |(live, b)| (0..b.len()).map(|l| l / wf == live && b[l]).collect()),
        ]
        .prop_map(move |bits| (lanes, wf, bits))
    })
}

/// Per-lane byte addresses in the patterns a coalescer meets.
fn arb_addrs(lanes: usize) -> impl Strategy<Value = Vec<u64>> {
    let base = 0u64..1 << 40;
    prop_oneof![
        // Unit stride, words and doubles.
        (base.clone(), prop_oneof![Just(4u64), Just(8)])
            .prop_map(move |(b, w)| (0..lanes as u64).map(|l| b + l * w).collect()),
        // Strided, from sub-line to page-sized steps.
        (base.clone(), 1u64..5000)
            .prop_map(move |(b, s)| (0..lanes as u64).map(|l| b + l * s).collect()),
        // Descending.
        (base.clone(), 1u64..200)
            .prop_map(move |(b, s)| (0..lanes as u64).rev().map(|l| b + l * s).collect()),
        // Random, with duplicates (a handful of distinct targets).
        (base.clone(), prop::collection::vec(0u64..16, lanes))
            .prop_map(|(b, pick)| pick.into_iter().map(|p| b + p * 40).collect()),
        // Random over a wide range.
        prop::collection::vec(base.clone(), lanes),
        // Every access straddles a line boundary.
        base.prop_map(move |b| {
            (0..lanes as u64).map(|l| (b + l) * CACHE_LINE as u64 - 3).collect()
        }),
    ]
}

/// The lane-at-a-time coalescer: per wavefront, every covered line into
/// a vector, sort, dedup.
fn model_transactions(addrs: &[u64], bits: &[bool], bytes: usize, wf: usize) -> usize {
    let mut total = 0;
    for lo in (0..bits.len()).step_by(wf) {
        let mut lines = Vec::new();
        for lane in lo..(lo + wf).min(bits.len()) {
            if bits[lane] {
                let first = addrs[lane] / CACHE_LINE as u64;
                let last = (addrs[lane] + bytes as u64 - 1) / CACHE_LINE as u64;
                lines.extend(first..=last);
            }
        }
        lines.sort_unstable();
        lines.dedup();
        total += lines.len();
    }
    total
}

/// The lane-at-a-time issue model of `WgCtx::charge`.
fn model_charge(c: &mut Counters, bits: &[bool], wf: usize, instrs: u64, scope: ExecScope) {
    let wfs = match scope {
        ExecScope::WholeWorkGroup => bits.len().div_ceil(wf),
        ExecScope::ActiveWavefronts => bits.chunks(wf).filter(|w| w.iter().any(|&b| b)).count(),
    };
    c.wf_issue_slots += instrs * wfs as u64;
    c.active_lane_slots += instrs * bits.iter().filter(|&&b| b).count() as u64;
}

/// One tree collective: an instruction and a barrier per level, on every
/// wavefront.
fn model_collective(c: &mut Counters, bits: &[bool], wf: usize) {
    let mut levels = 1;
    while 1usize << levels < bits.len() {
        levels += 1;
    }
    c.collectives += 1;
    c.barriers += levels;
    model_charge(c, bits, wf, levels, ExecScope::WholeWorkGroup);
}

fn model_mem_access(c: &mut Counters, addrs: &[u64], bits: &[bool], bytes: usize, wf: usize) {
    c.mem_transactions += model_transactions(addrs, bits, bytes, wf) as u64;
    c.mem_accesses += bits.iter().filter(|&&b| b).count() as u64;
    model_charge(c, bits, wf, 1, ExecScope::ActiveWavefronts);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ORACLE_CASES))]

    /// Every mask query and operator equals its one-bool-per-lane model.
    #[test]
    fn mask_is_the_per_lane_model(
        wg in arb_wg(),
        other in prop::collection::vec(any::<bool>(), 300),
        cut in (0usize..=300, 0usize..=300),
    ) {
        let (lanes, wf, bits) = wg;
        let other = &other[..lanes];
        let m = mask_from_bits(&bits);
        let o = mask_from_bits(other);
        let active: Vec<usize> = (0..lanes).filter(|&l| bits[l]).collect();
        prop_assert_eq!(m.lanes(), lanes);
        prop_assert_eq!(m.iter().collect::<Vec<_>>(), active.clone());
        prop_assert_eq!(m.count(), active.len());
        prop_assert_eq!(m.is_empty(), active.is_empty());
        prop_assert_eq!(m.is_full(), active.len() == lanes);
        prop_assert_eq!(m.leader(), active.last().copied());
        for l in 0..lanes {
            prop_assert_eq!(m.get(l), bits[l]);
            prop_assert_eq!(m.rank(l), bits[..l].iter().filter(|&&b| b).count());
        }
        let model = |f: &dyn Fn(bool, bool) -> bool| {
            Mask::from_fn(lanes, |l| f(bits[l], other[l]))
        };
        prop_assert_eq!(m.and(&o), model(&|a, b| a && b));
        prop_assert_eq!(m.or(&o), model(&|a, b| a || b));
        prop_assert_eq!(m.and_not(&o), model(&|a, b| a && !b));
        prop_assert_eq!(m.filter(|l| other[l]), model(&|a, b| a && b));
        // The complement inside the padding must not leak into counts.
        prop_assert_eq!(Mask::all(lanes).and_not(&m).count(), lanes - active.len());
        prop_assert_eq!(Mask::all(lanes), Mask::from_fn(lanes, |_| true));
        prop_assert_eq!(Mask::none(lanes), Mask::from_fn(lanes, |_| false));
        // Wavefront views, at this and at an odd width.
        for width in [wf, 100] {
            let wavefronts: Vec<&[bool]> = bits.chunks(width).collect();
            for (i, w) in wavefronts.iter().enumerate() {
                let n = w.iter().filter(|&&b| b).count();
                prop_assert_eq!(m.wavefront_count(i, width), n);
                prop_assert_eq!(m.wavefront_any(i, width), n > 0);
            }
            let live = wavefronts.iter().filter(|w| w.iter().any(|&b| b)).count();
            prop_assert_eq!(m.active_wavefronts(width), live);
        }
        let (lo, hi) = (cut.0.min(lanes), cut.1.min(lanes));
        let inside: Vec<usize> = active.iter().copied().filter(|&l| lo <= l && l < hi).collect();
        prop_assert_eq!(m.iter_range(lo, hi).collect::<Vec<_>>(), inside.clone());
        prop_assert_eq!(m.count_range(lo, hi), inside.len());
    }

    /// The single-pass coalescer counts what sort-and-dedup counts, on
    /// ordered and unordered wavefronts alike, through every entry point.
    #[test]
    fn coalescer_counts_what_sort_and_dedup_counts(
        wg in arb_wg(),
        addrs in arb_addrs(300),
        bytes in prop_oneof![Just(1usize), Just(4), Just(8), Just(16), Just(100)],
        rows in 1usize..5,
        pitch in prop_oneof![Just(64u64), Just(2048), Just(8), Just(72), Just(1000)],
    ) {
        let (lanes, wf, bits) = wg;
        let addrs = &addrs[..lanes];
        let mask = mask_from_bits(&bits);
        let want = model_transactions(addrs, &bits, bytes, wf);
        prop_assert_eq!(coalesce::wg_transactions(addrs, &mask, bytes, wf), want);
        prop_assert_eq!(coalesce::wg_transactions_by(&mask, bytes, wf, |l| addrs[l]), want);
        prop_assert_eq!(
            coalesce::transactions(addrs, &mask, bytes),
            model_transactions(addrs, &bits, bytes, lanes)
        );

        // The same access as a charged instruction, three ways.
        let grid = Grid { wg_count: 1, wg_size: lanes, wf_width: wf };
        let mut model = Counters::default();
        model_mem_access(&mut model, addrs, &bits, bytes, wf);
        let reg = LaneVec::from_vec(addrs.to_vec());
        let mut ctx = WgCtx::new(grid, 0);
        ctx.with_mask(mask.clone(), |ctx| prop_assert_eq!(ctx.mem_access(&reg, bytes), want));
        prop_assert_eq!(ctx.counters, model);
        ctx.reset(0);
        ctx.with_mask(mask.clone(), |ctx| {
            prop_assert_eq!(ctx.mem_access_by(bytes, |l| addrs[l]), want)
        });
        prop_assert_eq!(ctx.counters, model);

        // A pitched access is `rows` accesses, whatever the pitch.
        let mut model = Counters::default();
        for row in 0..rows as u64 {
            let shifted: Vec<u64> = addrs.iter().map(|a| a + row * pitch).collect();
            model_mem_access(&mut model, &shifted, &bits, bytes, wf);
        }
        ctx.reset(0);
        ctx.with_mask(mask, |ctx| {
            let tx = ctx.mem_access_rows(bytes, rows, pitch, |l| addrs[l]);
            prop_assert_eq!(tx as u64, model.mem_transactions);
        });
        prop_assert_eq!(ctx.counters, model);
    }

    /// A compacted-column store — the active lane of rank `r` accesses
    /// `bytes` at `base + r·bytes + row·pitch` — charges in closed form
    /// what the coalescer walk over those addresses charges, and what the
    /// per-lane model charges, in every `Counters` field: aligned and
    /// unaligned bases, access sizes that do and do not divide a line,
    /// whole-line and odd pitches.
    #[test]
    fn compacted_store_charges_what_the_rank_addressed_walk_charges(
        wg in arb_wg(),
        bytes in 1usize..=64,
        rows in 0usize..6,
        base in prop_oneof![
            (0u64..1 << 34).prop_map(|line| line * CACHE_LINE as u64),
            0u64..1 << 40,
        ],
        pitch in prop_oneof![
            Just(0u64),
            (1u64..64).prop_map(|lines| lines * CACHE_LINE as u64),
            1u64..5000,
        ],
    ) {
        let (lanes, wf, bits) = wg;
        let mask = mask_from_bits(&bits);
        let addrs: Vec<u64> = (0..lanes).map(|l| base + (mask.rank(l) * bytes) as u64).collect();
        let mut model = Counters::default();
        for row in 0..rows as u64 {
            let shifted: Vec<u64> = addrs.iter().map(|a| a + row * pitch).collect();
            model_mem_access(&mut model, &shifted, &bits, bytes, wf);
        }
        let grid = Grid { wg_count: 1, wg_size: lanes, wf_width: wf };
        let (mut closed, mut walked) = (WgCtx::new(grid, 0), WgCtx::new(grid, 0));
        let (mut closed_tx, mut walked_tx) = (0, 0);
        closed.with_mask(mask.clone(), |c| {
            closed_tx = c.mem_access_compacted(bytes, rows, pitch, base);
        });
        walked.with_mask(mask.clone(), |c| {
            walked_tx = c.mem_access_rows(bytes, rows, pitch, |l| addrs[l]);
        });
        prop_assert_eq!(closed_tx, walked_tx);
        prop_assert_eq!(closed_tx as u64, model.mem_transactions);
        prop_assert_eq!(closed.counters, walked.counters);
        prop_assert_eq!(closed.counters, model);
    }

    /// Instructions, collectives, atomics, barriers and branches charge
    /// what the lane-at-a-time issue model charges, and return the
    /// per-lane values; a reset context is indistinguishable from a new
    /// one.
    #[test]
    fn charges_are_the_per_lane_issue_model(
        wg in arb_wg(),
        vals in prop::collection::vec(0u64..1000, 300),
        cond in prop::collection::vec(any::<bool>(), 300),
        instrs in 1u64..9,
    ) {
        let (lanes, wf, bits) = wg;
        let grid = Grid { wg_count: 3, wg_size: lanes, wf_width: wf };
        let mask = mask_from_bits(&bits);
        let vals = LaneVec::from_vec(vals[..lanes].to_vec());
        let cond_bits = &cond[..lanes];
        let cond = mask_from_bits(cond_bits);
        let target = AtomicU64::new(0);

        let script = |ctx: &mut WgCtx| {
            ctx.push_mask(mask.clone());
            ctx.charge(instrs, ExecScope::ActiveWavefronts);
            ctx.charge(instrs, ExecScope::WholeWorkGroup);
            let prefix = ctx.prefix_sum(&vals);
            let sum = ctx.reduce_sum(&vals);
            let max = ctx.reduce_max(&vals, 0);
            let leader = ctx.elect_leader();
            ctx.charge_collective();
            ctx.wg_barrier();
            ctx.atomic_fetch_add(&target, 1);
            let mut sides = (None, None);
            ctx.if_else(
                &cond,
                |c| {
                    sides.0 = Some(c.active().clone());
                    c.charge(1, ExecScope::ActiveWavefronts);
                },
                |c| {
                    sides.1 = Some(c.active().clone());
                    c.charge(1, ExecScope::ActiveWavefronts);
                },
            );
            ctx.pop_mask();
            (prefix, sum, max, leader, sides)
        };
        let mut ctx = WgCtx::new(grid, 1);
        let (prefix, sum, max, leader, (then_side, else_side)) = script(&mut ctx);

        // Values: the per-lane definitions.
        let active: Vec<usize> = (0..lanes).filter(|&l| bits[l]).collect();
        let mut running = 0;
        for (l, &active) in bits.iter().enumerate() {
            prop_assert_eq!(prefix.get(l), running);
            running += if active { vals.get(l) } else { 0 };
        }
        prop_assert_eq!(sum, running);
        prop_assert_eq!(max, active.iter().map(|&l| vals.get(l)).max().unwrap_or(0));
        prop_assert_eq!(leader, active.last().copied());
        let then_bits: Vec<bool> = (0..lanes).map(|l| bits[l] && cond_bits[l]).collect();
        let else_bits: Vec<bool> = (0..lanes).map(|l| bits[l] && !cond_bits[l]).collect();
        let ran = |side: &[bool]| side.contains(&true).then(|| mask_from_bits(side));
        prop_assert_eq!(then_side, ran(&then_bits));
        prop_assert_eq!(else_side, ran(&else_bits));

        // Charges: the per-lane issue model.
        let mut model = Counters::default();
        model_charge(&mut model, &bits, wf, instrs, ExecScope::ActiveWavefronts);
        model_charge(&mut model, &bits, wf, instrs, ExecScope::WholeWorkGroup);
        for _ in 0..5 {
            model_collective(&mut model, &bits, wf);
        }
        model.barriers += 1;
        model_charge(&mut model, &bits, wf, 1, ExecScope::WholeWorkGroup);
        model.atomics += 1;
        model_charge(&mut model, &bits, wf, 1, ExecScope::ActiveWavefronts);
        model_charge(&mut model, &bits, wf, 1, ExecScope::ActiveWavefronts); // the branch
        for side in [&then_bits, &else_bits] {
            if side.contains(&true) {
                model_charge(&mut model, side, wf, 1, ExecScope::ActiveWavefronts);
            }
        }
        prop_assert_eq!(ctx.counters, model);

        // The same script on the same context, re-armed for another
        // work-group, charges the same again from zero.
        ctx.reset(2);
        prop_assert_eq!(ctx.wg_id(), 2);
        prop_assert!(ctx.active().is_full());
        script(&mut ctx);
        prop_assert_eq!(ctx.counters, model);
    }
}

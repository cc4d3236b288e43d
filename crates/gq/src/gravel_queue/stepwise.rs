//! The step-by-step producers, kept as the differential oracle.
//!
//! [`wg_produce`] and [`wi_produce`] here are the lockstep interpretation
//! of Fig. 5: every collective runs over a materialised per-lane register,
//! every row builds its address register and hands it to the coalescer,
//! and every word is stored through its own index computation. The
//! shipping producers charge the same events without interpreting them;
//! the property tests below hold the two to the same ring contents (message
//! order within a slot included), the same queue statistics and the same
//! `Counters`, field for field — `mem_transactions` too, which is why the
//! oracle lives in this module: both runs must coalesce against the *same*
//! slot's real address, and only a child module can reserve it.
//!
//! [`consume_batch`] is the consumer's counterpart: the batched drain as
//! it stood before the claim API — one compare-exchange, then every word
//! copied out through its own index computation — held against
//! `try_consume_batch` over the claim, the in-place view and the
//! slot-by-slot release.

use std::sync::atomic::Ordering;

use gravel_simt::{Counters, Grid, LaneVec, Mask, WgCtx};
use proptest::prelude::*;

use super::{Consumed, GravelQueue, QueueConfig};

/// Fig. 5b, interpreted lane by lane.
fn wg_produce(q: &GravelQueue, ctx: &mut WgCtx, payload: impl Fn(usize, usize) -> u64) {
    let mask = ctx.active().clone();
    let count = mask.count();
    if count == 0 {
        return;
    }
    let ones = LaneVec::splat(ctx.wg_size(), 1u64);
    let my_off = ctx.prefix_sum(&ones);
    let leader = ctx.elect_leader().expect("non-empty mask has a leader");
    let seq = ctx.atomic_fetch_add(&q.write_idx, 1);
    q.stats.producer_rmws.add(1);
    let slot = q.producer_wait(seq);
    let qoff = LaneVec::from_fn(ctx.wg_size(), |l| if l == leader { seq } else { 0 });
    assert_eq!(ctx.reduce_sum(&qoff), seq);
    let base = slot.payload.as_ptr() as u64;
    for row in 0..q.cfg.rows {
        let row_base = base + (row * q.cfg.lane_width * 8) as u64;
        let addrs = LaneVec::from_fn(ctx.wg_size(), |l| row_base + my_off.get(l) * 8);
        ctx.mem_access(&addrs, 8);
        for lane in (0..mask.lanes()).filter(|&l| mask.get(l)) {
            let col = my_off.get(lane) as usize;
            slot.payload[row * q.cfg.lane_width + col].store(payload(lane, row), Ordering::Relaxed);
        }
    }
    q.publish(slot, count);
    ctx.counters.messages += count as u64;
}

/// Fig. 5a, interpreted lane by lane.
fn wi_produce(q: &GravelQueue, ctx: &mut WgCtx, payload: impl Fn(usize, usize) -> u64) {
    let mask = ctx.active().clone();
    for lane in (0..mask.lanes()).filter(|&l| mask.get(l)) {
        let single = Mask::from_fn(ctx.wg_size(), |l| l == lane);
        ctx.with_mask(single, |ctx| {
            let seq = ctx.atomic_fetch_add(&q.write_idx, 1);
            q.stats.producer_rmws.add(1);
            let slot = q.producer_wait(seq);
            let base = slot.payload.as_ptr() as u64;
            for row in 0..q.cfg.rows {
                let addrs = LaneVec::splat(ctx.wg_size(), base + row as u64 * 8);
                ctx.mem_access(&addrs, 8);
                slot.payload[row].store(payload(lane, row), Ordering::Relaxed);
            }
            q.publish(slot, 1);
            ctx.counters.messages += 1;
        });
    }
}

/// `try_consume_batch`, word by word.
fn consume_batch(q: &GravelQueue, out: &mut Vec<u64>, max_slots: usize) -> Consumed {
    let max = max_slots.max(1) as u64;
    loop {
        let seq = q.read_idx.load(Ordering::Acquire);
        let mut k = 0u64;
        while k < max {
            let (slot, round) = q.slot_ring(seq + k);
            if slot.round.load(Ordering::Acquire) == round && slot.full.load(Ordering::Acquire) {
                k += 1;
            } else {
                break;
            }
        }
        if k == 0 {
            q.stats.consumer_empty_polls.add(1);
            if q.closed.load(Ordering::Acquire) && seq >= q.write_idx.load(Ordering::Acquire) {
                return Consumed::Closed;
            }
            return Consumed::Empty;
        }
        q.stats.consumer_rmws.add(1);
        if q.read_idx
            .compare_exchange(seq, seq + k, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        q.stats.consumer_hits.add(k);
        let mut total = 0usize;
        for i in 0..k {
            let (slot, round) = q.slot_ring(seq + i);
            let count = slot.count.load(Ordering::Relaxed) as usize;
            for m in 0..count {
                for row in 0..q.cfg.rows {
                    out.push(slot.payload[row * q.cfg.lane_width + m].load(Ordering::Relaxed));
                }
            }
            slot.full.store(false, Ordering::Release);
            slot.round.store(round + 1, Ordering::Release);
            total += count;
        }
        q.wake_producers();
        q.stats.messages_consumed.add(total as u64);
        return Consumed::Batch(total);
    }
}

/// Cases per property: a quick pass in the debug test run, a deep one
/// where CI runs the oracle `--release`.
const ORACLE_CASES: u32 = if cfg!(debug_assertions) { 256 } else { 4096 };

/// The mask shapes the issue of a work-group-level operation meets:
/// converged, fully diverged away, scattered, and one live wavefront.
fn arb_mask(lanes: usize, wf_width: usize) -> impl Strategy<Value = Mask> {
    let wfs = lanes.div_ceil(wf_width);
    prop_oneof![
        Just(Mask::all(lanes)),
        Just(Mask::none(lanes)),
        prop::collection::vec(any::<bool>(), lanes)
            .prop_map(move |b| Mask::from_fn(lanes, |l| b[l])),
        (0..wfs, prop::collection::vec(any::<bool>(), lanes))
            .prop_map(move |(wf, b)| { Mask::from_fn(lanes, |l| l / wf_width == wf && b[l]) }),
    ]
}

fn arb_geometry() -> impl Strategy<Value = (Grid, Mask)> {
    (1usize..=300, prop_oneof![Just(4usize), Just(32), Just(64)]).prop_flat_map(|(wg_size, wf)| {
        let grid = Grid {
            wg_count: 1,
            wg_size,
            wf_width: wf.min(wg_size),
        };
        arb_mask(wg_size, grid.wf_width).prop_map(move |mask| (grid, mask))
    })
}

/// Drain every ready slot, one slot per entry.
fn drain(q: &GravelQueue) -> Vec<Vec<u64>> {
    let mut slots = Vec::new();
    loop {
        let mut out = Vec::new();
        match q.try_consume_into(&mut out) {
            Consumed::Batch(_) => slots.push(out),
            _ => return slots,
        }
    }
}

/// Run `produce` under `mask` on a fresh context; return what it charged
/// and what it left in the ring.
fn run(
    q: &GravelQueue,
    grid: Grid,
    mask: &Mask,
    produce: impl FnOnce(&mut WgCtx),
) -> (Counters, Vec<Vec<u64>>) {
    let mut ctx = WgCtx::new(grid, 0);
    ctx.with_mask(mask.clone(), produce);
    (ctx.counters, drain(q))
}

/// Spend reservations until the next one lands on slot 0 again, so the
/// second run writes — and coalesces against — the first run's slots.
fn rewind(q: &GravelQueue) {
    while !q
        .write_idx
        .load(Ordering::Relaxed)
        .is_multiple_of(q.cfg.slots as u64)
    {
        q.produce_batch(&vec![0; q.cfg.rows], 1);
        drain(q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ORACLE_CASES))]

    #[test]
    fn wg_produce_charges_and_writes_what_the_lockstep_version_does(
        geometry in arb_geometry(),
        // Slots wider than the work-group, and widths whose row pitch is
        // not a whole number of cache lines.
        spare_columns in 0usize..9,
        rows in 1usize..6,
        salt in any::<u64>(),
    ) {
        let (grid, mask) = geometry;
        let cfg = QueueConfig { slots: 2, lane_width: grid.wg_size + spare_columns, rows };
        let q = GravelQueue::new(cfg);
        let payload = |lane: usize, row: usize| salt ^ ((lane as u64) << 8 | row as u64);
        let (charged, ring) = run(&q, grid, &mask, |ctx| q.wg_produce(ctx, payload));
        let stats = q.stats.snapshot();
        rewind(&q);
        let (want_charged, want_ring) = run(&q, grid, &mask, |ctx| wg_produce(&q, ctx, payload));
        prop_assert_eq!(charged, want_charged);
        prop_assert_eq!(&ring, &want_ring);
        // Both runs, and nothing else, are in the statistics.
        let reservations = u64::from(!mask.is_empty());
        prop_assert_eq!(stats.producer_rmws, reservations);
        prop_assert_eq!(stats.messages_produced, mask.count() as u64);
        // One slot, the active lanes' messages in lane order.
        let expect: Vec<u64> = (0..mask.lanes())
            .filter(|&l| mask.get(l))
            .flat_map(|l| (0..rows).map(move |r| payload(l, r)))
            .collect();
        prop_assert_eq!(ring.concat(), expect);
        prop_assert_eq!(ring.len() as u64, reservations);
    }

    #[test]
    fn wi_produce_charges_and_writes_what_the_lockstep_version_does(
        geometry in arb_geometry(),
        rows in 1usize..6,
        salt in any::<u64>(),
    ) {
        let (grid, mask) = geometry;
        // A slot per lane, so one thread can produce a whole work-group
        // before anything is consumed.
        let cfg = QueueConfig { slots: grid.wg_size.max(2), lane_width: 1, rows };
        let q = GravelQueue::new(cfg);
        let payload = |lane: usize, row: usize| salt ^ ((lane as u64) << 8 | row as u64);
        let (charged, ring) = run(&q, grid, &mask, |ctx| q.wi_produce(ctx, payload));
        rewind(&q);
        let (want_charged, want_ring) = run(&q, grid, &mask, |ctx| wi_produce(&q, ctx, payload));
        prop_assert_eq!(charged, want_charged);
        prop_assert_eq!(&ring, &want_ring);
        prop_assert_eq!(ring.len(), mask.count());
    }

    #[test]
    fn the_claimed_drain_copies_out_what_the_word_by_word_drain_does(
        shape in (2usize..6, 1usize..9, 1usize..6),
        // Rounds of "produce these slots (message counts), then drain
        // with this claim limit until empty".
        rounds in prop::collection::vec(
            (prop::collection::vec(1usize..9, 1..6), 1usize..8), 1..6),
        salt in any::<u64>(),
    ) {
        let (slots, lane_width, rows) = shape;
        let cfg = QueueConfig { slots, lane_width, rows };
        let (q, want_q) = (GravelQueue::new(cfg), GravelQueue::new(cfg));
        let mut tag = salt;
        for (counts, max_slots) in &rounds {
            for &count in counts.iter().take(slots) {
                let count = count.min(lane_width);
                let words: Vec<u64> = (0..count * rows)
                    .map(|_| { tag = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1); tag })
                    .collect();
                q.produce_batch(&words, count);
                want_q.produce_batch(&words, count);
            }
            loop {
                let (mut out, mut want) = (Vec::new(), Vec::new());
                let got = q.try_consume_batch(&mut out, *max_slots);
                prop_assert_eq!(got, consume_batch(&want_q, &mut want, *max_slots));
                prop_assert_eq!(out, want);
                if got == Consumed::Empty {
                    break;
                }
            }
        }
        q.close();
        want_q.close();
        prop_assert_eq!(q.try_consume_batch(&mut Vec::new(), 1), Consumed::Closed);
        prop_assert_eq!(consume_batch(&want_q, &mut Vec::new(), 1), Consumed::Closed);
        prop_assert_eq!(q.stats.snapshot(), want_q.stats.snapshot());
    }
}

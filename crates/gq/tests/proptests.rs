//! Property-based tests for the queue protocols.
//!
//! The central invariant of every queue variant: **every produced message
//! is consumed exactly once, unmodified**, regardless of batch sizes,
//! geometry, and thread interleavings.

use std::sync::Arc;

use gravel_gq::{Consumed, GravelQueue, MpmcQueue, QueueConfig, SpscQueue};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-threaded: arbitrary batch sizes through an arbitrary ring
    /// geometry come out complete and in order.
    #[test]
    fn gravel_queue_preserves_batches(
        slots in 2usize..9,
        lane_width in 1usize..17,
        rows in 1usize..5,
        batch_sizes in prop::collection::vec(1usize..17, 1..20),
    ) {
        let cfg = QueueConfig { slots, lane_width, rows };
        let q = GravelQueue::new(cfg);
        let mut expected = Vec::new();
        let mut next = 0u64;
        let mut consumed = Vec::new();
        for &raw in &batch_sizes {
            let count = raw.min(lane_width);
            let words: Vec<u64> = (0..count * rows).map(|_| { next += 1; next }).collect();
            expected.extend_from_slice(&words);
            q.produce_batch(&words, count);
            // Drain eagerly so small rings never block the single thread.
            let mut out = Vec::new();
            while let Consumed::Batch(_) = q.try_consume_into(&mut out) {}
            consumed.extend(out);
        }
        prop_assert_eq!(consumed, expected);
    }

    /// Multi-threaded Gravel queue: producers on threads, single consumer;
    /// every tagged message arrives exactly once.
    #[test]
    fn gravel_queue_exactly_once_concurrent(
        producers in 1usize..4,
        batches_per_producer in 1usize..20,
        lane_width in 1usize..9,
    ) {
        let q = Arc::new(GravelQueue::new(QueueConfig { slots: 4, lane_width, rows: 1 }));
        let handles: Vec<_> = (0..producers).map(|p| {
            let q = q.clone();
            std::thread::spawn(move || {
                for b in 0..batches_per_producer {
                    let tag = ((p as u64) << 32) | b as u64;
                    let words = vec![tag; lane_width];
                    q.produce_batch(&words, lane_width);
                }
            })
        }).collect();
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while q.consume_blocking(&mut got).is_some() {}
                got
            })
        };
        for h in handles { h.join().unwrap(); }
        q.close();
        let mut got = consumer.join().unwrap();
        prop_assert_eq!(got.len(), producers * batches_per_producer * lane_width);
        got.sort_unstable();
        got.dedup();
        prop_assert_eq!(got.len(), producers * batches_per_producer);
    }

    /// SPSC queue under concurrency keeps FIFO order and loses nothing.
    #[test]
    fn spsc_fifo_exactly_once(n in 1usize..400, capacity in 2usize..16) {
        let q = Arc::new(SpscQueue::new(capacity, 1));
        let qp = q.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..n as u64 { qp.produce(&[i]); }
            qp.close();
        });
        let mut out = Vec::new();
        while q.consume_blocking(&mut out).is_some() {}
        producer.join().unwrap();
        prop_assert_eq!(out, (0..n as u64).collect::<Vec<_>>());
    }

    /// MPMC queue with 2 producers and 2 consumers delivers exactly once.
    #[test]
    fn mpmc_exactly_once(per_producer in 1usize..200, capacity in 2usize..16) {
        let q = Arc::new(MpmcQueue::new(capacity, 1));
        let producers: Vec<_> = (0..2).map(|p| {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..per_producer as u64 {
                    q.produce(&[(p as u64) << 32 | i]);
                }
            })
        }).collect();
        let consumers: Vec<_> = (0..2).map(|_| {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while q.consume_blocking(&mut got).is_some() {}
                got
            })
        }).collect();
        for p in producers { p.join().unwrap(); }
        q.close();
        let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        prop_assert_eq!(all.len(), 2 * per_producer);
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), 2 * per_producer);
    }

    /// Message codec round-trips for arbitrary fields.
    #[test]
    fn message_codec_roundtrip(dest: u32, addr: u64, value: u64, handler: u32, kind in 0u8..4) {
        use gravel_gq::{Command, Message};
        let m = match kind {
            0 => Message::put(dest, addr, value),
            1 => Message::inc(dest, addr, value),
            2 => Message::active(dest, handler, addr, value),
            _ => Message::shutdown(),
        };
        prop_assert_eq!(Message::decode(m.encode()), Some(m));
        prop_assert_eq!(Command::decode(m.command.encode()), Some(m.command));
    }
}

/// Which lanes of work-group `wg` offload: a seeded scatter, with whole
/// work-groups fully on or fully off mixed in.
fn offloads(seed: u64, wg: usize, lane: usize) -> bool {
    let h = (seed ^ ((wg as u64) << 32 | lane as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match (seed >> 8).wrapping_add(wg as u64) % 4 {
        0 => true,
        1 => false,
        _ => h >> 63 == 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `wg_produce` through the engine, on compute units that reuse one
    /// context across work-groups: every non-empty work-group fills
    /// exactly one slot with its active lanes' messages in lane order
    /// after exactly one reservation, and the dispatch charges what the
    /// same work-groups charge one at a time on fresh contexts (the
    /// step-by-step oracle for a single call is
    /// `gravel_queue::stepwise`, beside the code).
    #[test]
    fn wg_produce_through_the_engine_is_one_slot_and_one_rmw_per_work_group(
        wgs in 1usize..7,
        wg_size in 1usize..301,
        wf in prop_oneof![Just(4usize), Just(32), Just(64)],
        cus in 1usize..4,
        seed in any::<u64>(),
    ) {
        use gravel_simt::{Counters, Grid, Mask, SimtEngine, WgCtx};
        let grid = Grid { wg_count: wgs, wg_size, wf_width: wf.min(wg_size) };
        let cfg = QueueConfig { slots: 8, lane_width: wg_size, rows: 2 };
        let kernel = |q: &GravelQueue, ctx: &mut WgCtx| {
            let wg = ctx.wg_id();
            let mask = Mask::from_fn(ctx.wg_size(), |l| offloads(seed, wg, l));
            ctx.if_then(&mask, |ctx| {
                q.wg_produce(ctx, |lane, row| [wg as u64, lane as u64][row]);
            });
        };

        let q = GravelQueue::new(cfg);
        let res = SimtEngine::with_cus(cus).dispatch(grid, |ctx| kernel(&q, ctx));

        // One slot per non-empty work-group, compacted in lane order.
        let mut seen = vec![false; wgs];
        let mut slot = Vec::new();
        while let Consumed::Batch(n) = q.try_consume_into(&mut slot) {
            let wg = slot[0] as usize;
            prop_assert!(!std::mem::replace(&mut seen[wg], true), "work-group {} twice", wg);
            let lanes: Vec<u64> = (0..wg_size as u64)
                .filter(|&l| offloads(seed, wg, l as usize))
                .collect();
            prop_assert_eq!(n, lanes.len());
            let expect: Vec<u64> = lanes.iter().flat_map(|&l| [wg as u64, l]).collect();
            prop_assert_eq!(&slot, &expect);
            slot.clear();
        }
        let non_empty = (0..wgs).filter(|&wg| (0..wg_size).any(|l| offloads(seed, wg, l))).count();
        prop_assert_eq!(seen.iter().filter(|&&s| s).count(), non_empty);
        let stats = q.stats.snapshot();
        prop_assert_eq!(stats.producer_rmws, non_empty as u64);
        prop_assert_eq!(stats.slots_produced, non_empty as u64);
        prop_assert_eq!(res.counters.atomics, non_empty as u64);
        prop_assert_eq!(res.counters.messages, stats.messages_produced);

        // A reused context charges what fresh ones do. Transactions
        // depend on each slot's address, so they are compared per call
        // by the in-crate oracle, not here.
        let q = GravelQueue::new(cfg);
        let mut fresh = Counters::default();
        for wg in 0..wgs {
            let mut ctx = WgCtx::new(grid, wg);
            kernel(&q, &mut ctx);
            fresh.merge(&ctx.counters);
        }
        let sans_tx = |c: Counters| Counters { mem_transactions: 0, ..c };
        prop_assert_eq!(sans_tx(res.counters), sans_tx(fresh));
    }
}

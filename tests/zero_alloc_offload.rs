//! The runtime's share of a work-group offload allocates nothing.
//!
//! `tests/zero_alloc_pipeline.rs` pins the packet path behind the ring;
//! this file pins the path into it. The lockstep interpreter allocated
//! about a dozen times per 256-lane `wg_produce` (a register per
//! collective, an address register per row, a mask clone per charge).
//! Now the masks are inline, the collectives are read off the mask, and
//! the staging buffer lives in the compute unit's reused `WgCtx`, so the
//! only allocations left in an offloading work-group are the kernel's own
//! registers — and a clone creeping back into `charge` or `mem_access`
//! fails here instead of costing a few ns a message unnoticed.
//!
//! The last test pins the other side of the ring: a warm aggregator lane
//! claims slots, scatters their messages into pooled per-destination
//! buffers, flushes, seals and takes acks without touching the allocator.
//!
//! The allocator counts per thread and only while that thread asks, so
//! the tests in this file cannot see each other or the harness.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gravel_apps::gups;
use gravel_core::net::{Ack, AckFrame, RecvStatus, SendStatus, Transport};
use gravel_core::{aggregator, ErrorSlot, GravelConfig, GravelCtx, NodeShared};
use gravel_gq::{GravelQueue, Message, QueueConfig, MSG_ROWS};
use gravel_pgas::{open_data_frame, AmRegistry, DataFrame, FlushPolicy, WireIntegrity};
use gravel_simt::{Grid, LaneVec, SimtEngine, WgCtx};

std::thread_local! {
    /// `Some(n)` while this thread is counting its own allocations.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
    /// Set once this thread has run one work-group (its `WgCtx` is warm).
    static WARM: Cell<bool> = const { Cell::new(false) };
}

struct ThreadCountingAlloc;

fn note_alloc() {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

/// Run `f`, returning how many times this thread allocated inside it.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let allocs = COUNT.with(|c| c.take()).expect("counting was on");
    (allocs, out)
}

const WG: usize = 256;

#[test]
fn wg_produce_on_a_warm_compute_unit_allocates_nothing() {
    // A slot per work-group: nothing has to drain the ring.
    let q = GravelQueue::new(QueueConfig {
        slots: 96,
        lane_width: WG,
        rows: MSG_ROWS,
    });
    let grid = Grid {
        wg_count: 96,
        wg_size: WG,
        wf_width: 64,
    };
    let (allocs, measured) = (AtomicU64::new(0), AtomicU64::new(0));
    SimtEngine::with_cus(2).dispatch(grid, |ctx| {
        let base = (ctx.wg_id() * WG) as u64;
        let offload =
            |ctx: &mut WgCtx| q.wg_produce(ctx, |lane, row| base + lane as u64 + row as u64);
        // A unit's first work-group sizes its context's buffers.
        if !WARM.with(|w| w.replace(true)) {
            return offload(ctx);
        }
        let (n, ()) = counted(|| offload(ctx));
        allocs.fetch_add(n, Ordering::Relaxed);
        measured.fetch_add(1, Ordering::Relaxed);
    });
    assert!(
        measured.load(Ordering::Relaxed) >= 94,
        "all but each unit's first work-group"
    );
    assert_eq!(
        allocs.load(Ordering::Relaxed),
        0,
        "wg_produce allocated on a warm compute unit"
    );
    assert_eq!(q.stats.snapshot().messages_produced, 96 * WG as u64);
}

#[test]
fn a_shmem_inc_work_group_allocates_only_its_kernels_registers() {
    /// `GRID_ID`, the routed `dests` and `addrs`, and the `vals` splat.
    const KERNEL_REGISTERS: u64 = 4;
    const WGS: usize = 64;
    let cfg = GravelConfig::paper(2, 1 << 10);
    assert!(
        WGS < cfg.queue.slots,
        "a slot per work-group: nothing drains the ring"
    );
    let node = NodeShared::new(0, &cfg, Arc::new(AmRegistry::new()));
    let input = gups::GupsInput {
        updates: 2 * WGS * WG,
        table_len: 2 << 10,
        seed: 3,
    };
    let dir = gups::directory(&input, 2);
    let updates = gups::node_updates(&input, 2, 0);
    let grid = Grid {
        wg_count: WGS,
        wg_size: WG,
        wf_width: cfg.wf_width,
    };
    let mut wg = WgCtx::new(grid, 0);
    for id in 0..WGS {
        wg.reset(id);
        let (allocs, ()) = counted(|| {
            let mut ctx = GravelCtx::new(&mut wg, &node, true);
            let gids = ctx.wg.global_ids();
            let (dests, addrs) = LaneVec::pair_from_fn(WG, |l| {
                let r = dir.route(updates[gids.get(l)]);
                (r.dest, r.offset)
            });
            ctx.shmem_inc(&dests, &addrs, &LaneVec::splat(WG, 1u64));
        });
        // The first work-group also sizes the context's staging buffer.
        if id > 0 {
            assert_eq!(allocs, KERNEL_REGISTERS, "work-group {id}");
        }
    }
    assert_eq!(node.offloaded.get(), (WGS * WG) as u64);
}

/// A fabric that acknowledges every frame at once and, on the lane's own
/// thread, turns that thread's allocation count on after `WARM_PACKETS`
/// frames and reads it after `COUNTED_PACKETS` more. Its own work (the
/// ack mailbox) is not the lane's and is not counted.
struct CountingSink {
    acks: std::sync::Mutex<std::collections::VecDeque<AckFrame>>,
    frames: AtomicU64,
    /// The lane's allocations over the counted window, once it closed.
    counted: std::sync::Mutex<Option<u64>>,
}

const WARM_PACKETS: u64 = 256;
const COUNTED_PACKETS: u64 = 256;

impl Transport for CountingSink {
    fn nodes(&self) -> usize {
        2
    }
    fn lanes(&self) -> usize {
        1
    }
    fn send_data(&self, frame: DataFrame, _timeout: std::time::Duration) -> SendStatus {
        let lane_count = COUNT.with(|c| c.take());
        let head = open_data_frame(&frame.bytes, WireIntegrity::Off).expect("a sealed frame");
        let ack = Ack {
            src: head.dest,
            dest: head.src,
            lane: head.lane,
            cum_seq: head.seq,
        };
        self.acks
            .lock()
            .unwrap()
            .push_back(ack.seal(head.epoch, WireIntegrity::Crc32c));
        drop(frame);
        let lane_count = match self.frames.fetch_add(1, Ordering::Relaxed) + 1 {
            WARM_PACKETS => Some(0),
            n if n == WARM_PACKETS + COUNTED_PACKETS => {
                *self.counted.lock().unwrap() = lane_count;
                None
            }
            _ => lane_count,
        };
        COUNT.with(|c| c.set(lane_count));
        SendStatus::Sent
    }
    fn recv_data(&self, _node: u32, _timeout: std::time::Duration) -> RecvStatus<DataFrame> {
        RecvStatus::TimedOut
    }
    fn send_ack(&self, _ack: AckFrame) {}
    fn try_recv_ack(&self, _node: u32, _lane: u32) -> Option<AckFrame> {
        self.acks.lock().unwrap().pop_front()
    }
    fn close(&self) {}
    fn is_closed(&self) -> bool {
        false
    }
    fn data_depths(&self) -> Vec<usize> {
        vec![0; 2]
    }
    fn ack_depths(&self, _node: u32) -> usize {
        self.acks.lock().unwrap().len()
    }
}

#[test]
fn a_warm_lane_drains_and_flushes_without_allocating() {
    let cfg = GravelConfig::paper(2, 1 << 10);
    // 32 INC records a packet: the counted window is 8192 messages, 32
    // full slots, four claims, 256 size-driven flushes to two
    // destinations.
    let per_packet = 32;
    let queue_bytes = gravel_pgas::RUN_HEADER_BYTES + per_packet as usize * gravel_pgas::PAIR_BYTES;
    let messages = (WARM_PACKETS + COUNTED_PACKETS + 8) * per_packet;
    let node = Arc::new(NodeShared::new(0, &cfg, Arc::new(AmRegistry::new())));
    let sink = Arc::new(CountingSink {
        acks: Default::default(),
        frames: AtomicU64::new(0),
        counted: Default::default(),
    });
    let errors = Arc::new(ErrorSlot::default());
    // The whole stream waits in the ring before the lane starts, so every
    // claim is a full one and the warm-up sees the same frames in flight
    // (hence the same arena and window depth) as the counted window.
    assert!(messages.div_ceil(WG as u64) <= cfg.queue.slots as u64);
    let stream: Vec<Message> = (0..messages)
        .map(|i| Message::inc((i.wrapping_mul(0x9E37_79B9) >> 7) as u32 % 2, i % 1024, 1))
        .collect();
    for chunk in stream.chunks(WG) {
        node.host_send_batch(chunk);
    }
    node.queue.close();
    let policy = FlushPolicy::Fixed(std::time::Duration::from_secs(600));
    aggregator::run(
        node.clone(),
        0,
        sink.clone(),
        queue_bytes,
        policy,
        errors.clone(),
    );
    assert!(!errors.is_set());
    let stats = node.stats().agg;
    assert_eq!(stats.messages, messages);
    assert!(stats.full_flushes >= WARM_PACKETS + COUNTED_PACKETS);
    assert_eq!(
        *sink.counted.lock().unwrap(),
        Some(0),
        "a warm lane allocated while draining and flushing"
    );
    // One pooled buffer per packet — the frame is sealed in the buffer
    // the lane filled — and a fresh one only until as many exist as
    // one claim's packets keep in flight before their acks are read
    // (eight slots of 256 messages, 32 to a packet).
    let pool = &node.pool;
    assert_eq!(pool.hits() + pool.misses(), stats.packets);
    let per_claim = 8 * WG as u64 / per_packet;
    assert!(pool.misses() <= per_claim, "{} of {} buffers were fresh", pool.misses(), stats.packets);
}

//! Proof that the *whole* steady-state packet path — aggregation flush,
//! frame sealing, transport hand-off, and receive-side apply — runs
//! without heap allocation once the buffer arena and the per-lane
//! scratch are warm.
//!
//! `crates/pgas/tests/zero_alloc.rs` pins the single-thread decode loop;
//! this test pins the pipeline. The interesting allocations happen on
//! the *worker* threads (aggregator lanes, network threads), so the
//! counting allocator here is inverted relative to that test: the
//! driving test thread is exempted and every other thread in the
//! process is counted while the measurement window is armed. Worker
//! threads touch the allocator only through the packet path, so a
//! nonzero count is a packet-path regression, not harness noise.
//!
//! Methodology: warm the pipeline (arena buckets, per-destination queue
//! buffers, flow deques, channel capacity) with a few full
//! send/quiesce rounds, then arm the counter for an identically-shaped
//! round. Steady state must allocate nothing per message on either the
//! PUT path (host offload → aggregate → seal → send → apply) or the GET
//! path (request → reply → pending-table completion); the budget below
//! allows a small constant for incidental one-offs but is two orders of
//! magnitude below one allocation per message.
//!
//! The first warm-up round is the worst case a round can reach: both
//! network threads are held in a handler while the lane flushes the
//! whole round, so every packet of it is outstanding at once and the
//! buffer arena ends up owning a buffer for each. Without it the
//! arena's size is whatever peak the warm-up rounds happened to reach,
//! and a measured round whose receiver was descheduled longer (a loaded
//! host) grew the arena inside the window — two allocations per new
//! buffer, about a hundred in a bad round.
//!
//! In the GET window the driving thread is counted too: it runs the
//! express pass that puts its request on the wire, so only its known
//! per-call allocations are budgeted ([`SINK_ALLOCS_PER_CALL`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gravel_apps::gups;
use gravel_core::{GravelConfig, GravelRuntime};
use gravel_gq::Message;

/// Counting is armed globally for the measurement window…
static ARMED: AtomicBool = AtomicBool::new(false);

std::thread_local! {
    /// …and the driving test thread opts out while it stages batches:
    /// host-side call overhead is API surface, not the packet path
    /// under test.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

/// Allocations `host_get` makes on its caller per call: the reply sink
/// (an `Arc`) and its slot vector.
const SINK_ALLOCS_PER_CALL: u64 = 2;

/// While set, handler 0 holds the network thread that runs it.
static HOLD: AtomicBool = AtomicBool::new(false);

struct WorkerCountingAlloc {
    allocs: AtomicU64,
}

impl WorkerCountingAlloc {
    fn count(&self) {
        if ARMED.load(Ordering::Relaxed) && !EXEMPT.try_with(|t| t.get()).unwrap_or(true) {
            self.allocs.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for WorkerCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: WorkerCountingAlloc = WorkerCountingAlloc {
    allocs: AtomicU64::new(0),
};

/// Run `f` with worker-thread allocations counted.
fn counted_workers<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = GLOBAL.allocs.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let r = f();
    ARMED.store(false, Ordering::SeqCst);
    let after = GLOBAL.allocs.load(Ordering::SeqCst);
    (after - before, r)
}

/// `n` increments fanned across both nodes' heaps.
fn put_msgs(rt: &GravelRuntime, input: &gups::GupsInput, n: usize) -> Vec<Message> {
    let dir = gups::directory(input, rt.nodes());
    let updates = gups::node_updates(input, rt.nodes(), 0);
    (0..n)
        .map(|i| {
            let r = dir.route(updates[i % updates.len()]);
            Message::inc(r.dest, r.offset, 1)
        })
        .collect()
}

/// One round of PUT traffic, then a full quiesce so every packet has
/// been applied (and every arena buffer returned) before the round
/// ends.
fn put_round(rt: &GravelRuntime, msgs: &[Message]) {
    rt.node(0).host_send_batch(msgs);
    rt.quiesce();
}

/// [`put_round`] with every network thread held until node 0's lane
/// has flushed the whole round: all of its packets outstanding at once.
fn held_put_round(rt: &GravelRuntime, msgs: &[Message]) {
    HOLD.store(true, Ordering::SeqCst);
    let node = rt.node(0);
    let holds: Vec<Message> = (0..rt.nodes() as u32).map(|d| Message::active(d, 0, 0, 0)).collect();
    let flushed = node.stats().agg.messages + (holds.len() + msgs.len()) as u64;
    node.host_send_batch(&holds);
    node.host_send_batch(msgs);
    let deadline = Instant::now() + Duration::from_secs(30);
    while node.stats().agg.messages < flushed {
        assert!(Instant::now() < deadline, "the lane never flushed the held round");
        std::thread::sleep(Duration::from_micros(200));
    }
    HOLD.store(false, Ordering::SeqCst);
    rt.quiesce();
}

/// Sum of packets flushed by every node's aggregation layer so far.
/// Debug builds deliberately allocate once per *applied* packet (the
/// `apply_packet` reference-decode cross-check under
/// `debug_assertions`); every flushed packet is applied exactly once,
/// so this is also the budget for that debug-only allocation.
fn total_agg_packets(rt: &GravelRuntime) -> u64 {
    (0..rt.nodes()).map(|i| rt.node(i).stats().agg.packets).sum()
}

/// Allocation budget for a window that moved `packets` packets: zero
/// per message in release; in debug builds the known per-packet
/// reference check is budgeted out, nothing else.
fn window_budget(packets: u64, slack: u64) -> u64 {
    if cfg!(debug_assertions) {
        packets + slack
    } else {
        slack
    }
}

#[test]
fn steady_state_packet_path_allocates_zero_per_message() {
    EXEMPT.with(|t| t.set(true));
    let input = gups::GupsInput {
        updates: 4_000,
        table_len: 512,
        seed: 17,
    };
    // Defaults carry the configuration under test: tracing off,
    // checkpointing off, one aggregator lane, reliable in-process
    // transport (the arena is always on).
    let rt = GravelRuntime::with_handlers(GravelConfig::small(2, input.table_len), |reg| {
        reg.register(Box::new(|_heap, _addr, _value| {
            while HOLD.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(50));
            }
        }));
    });

    // ---- PUT path -----------------------------------------------------
    const PUT_MSGS: usize = 8_000;
    let msgs = put_msgs(&rt, &input, PUT_MSGS);
    held_put_round(&rt, &msgs); // the arena at the round's worst case
    for _ in 0..2 {
        put_round(&rt, &msgs); // warm queues, channels, flows
    }
    let hits_before = rt.telemetry_snapshot().counter("node0.pool.hits");
    let packets_before = total_agg_packets(&rt);
    let (put_allocs, _) = counted_workers(|| put_round(&rt, &msgs));
    let snap = rt.telemetry_snapshot();
    assert!(
        snap.counter("node0.pool.hits") > hits_before,
        "measured window must recycle arena buffers (pool.hits grew)"
    );
    let put_budget = window_budget(
        total_agg_packets(&rt) - packets_before,
        (PUT_MSGS / 100) as u64,
    );
    assert!(
        put_allocs <= put_budget,
        "PUT path allocated {put_allocs} times for {PUT_MSGS} messages \
         (budget {put_budget}) — steady state must be allocation-free \
         per message"
    );

    // ---- GET path -----------------------------------------------------
    const GETS: usize = 200;
    for _ in 0..50 {
        rt.host_get(0, 1, 3).expect("warmup GET"); // warm RPC queues
    }
    let packets_before = total_agg_packets(&rt);
    EXEMPT.with(|t| t.set(false));
    let (get_allocs, _) = counted_workers(|| {
        for i in 0..GETS {
            rt.host_get(0, 1, (i % 16) as u64).expect("measured GET");
        }
    });
    EXEMPT.with(|t| t.set(true));
    let get_budget = window_budget(
        total_agg_packets(&rt) - packets_before,
        (GETS / 10) as u64,
    ) + GETS as u64 * SINK_ALLOCS_PER_CALL;
    assert!(
        get_allocs <= get_budget,
        "GET path allocated {get_allocs} times for {GETS} round trips \
         (budget {get_budget}, {SINK_ALLOCS_PER_CALL} per call for the \
         caller's reply sink) — steady state must be allocation-free \
         per message"
    );

    rt.shutdown().expect("clean shutdown");
}

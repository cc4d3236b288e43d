//! Proof that the receive hot path decodes packets without allocating.
//!
//! The network thread used to call `Packet::words()` per packet, which
//! heap-allocates a `Vec<u64>` for every apply. The borrowing
//! `Packet::messages()` iterator replaces it; this test pins the
//! zero-allocation property with a counting global allocator so a
//! regression shows up as a test failure, not a profile artifact.
//!
//! The same allocator pins the resolver the network thread runs over a
//! packet (`apply_stream`): PUT/INC runs, and the general path for the
//! messages between them, allocate nothing.
//!
//! And it pins the send side's packet path: a warm pooled queue fills,
//! flushes and seals a packet in one recycled buffer, allocating
//! nothing.
//!
//! The count is thread-local and on only inside the measured region, so
//! neither the libtest harness nor a test running beside this one can
//! pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    /// This thread's allocation count, while it is being counted.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(&self) {
        // `try_with` so allocations during TLS teardown don't panic.
        let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
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
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with this thread's allocations counted; return how many there
/// were.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNT.with(|c| c.set(Some(0)));
    let r = f();
    let allocs = COUNT.with(|c| c.take()).expect("counting was on");
    (allocs, r)
}

#[test]
fn borrowing_iterator_does_not_allocate() {
    use gravel_gq::Message;
    use gravel_pgas::Packet;

    // Build the packet up front; only the decode loop is measured.
    let mut words = Vec::new();
    for i in 0..512u64 {
        let msg = match i % 7 {
            0 => Message::active(5, 1, i * 8, i),
            _ => Message::inc(5, i * 8, i),
        };
        words.extend_from_slice(&msg.encode());
    }
    // A mix of INC runs and whole messages.
    let pkt = Packet::from_words(3, 5, &words);
    let expect: u64 = words.iter().sum();

    let (allocs, sum) = counted(|| {
        let mut sum = 0u64;
        for _ in 0..100 {
            sum = 0;
            for msg in pkt.messages() {
                for w in msg {
                    sum = sum.wrapping_add(w);
                }
            }
        }
        sum
    });

    assert_eq!(sum, expect, "decode loop read every word");
    assert_eq!(allocs, 0, "messages() iteration must not allocate");

    // Sanity-check the counter actually counts: the allocating decode
    // trips it.
    let (allocs, via_vec) = counted(|| pkt.words().len());
    assert_eq!(via_vec * 8, pkt.len());
    assert!(allocs > 0, "Packet::words() allocates, counter sees it");
}

#[test]
fn the_run_wise_resolver_does_not_allocate() {
    use gravel_gq::Message;
    use gravel_pgas::{
        apply, apply_stream, AmRegistry, Applied, Packet, StreamEnd, SymmetricHeap,
    };

    // Runs of PUTs and INCs broken by everything the general path
    // handles: an active message, a GET (its reply goes to a counter,
    // as the reply ring is not this crate's), an address past the heap
    // and an undecodable command word.
    let mut ams = AmRegistry::new();
    let am = ams.register(Box::new(|h, a, v| {
        h.fetch_add(a, v);
    }));
    let mut words = Vec::new();
    for i in 0..512u64 {
        let msg = match i % 64 {
            13 => Message::active(0, am, i % 32, 1),
            29 => Message::get(0, i % 32, i, 1),
            47 => Message::put(0, 1 << 40, 1),
            _ if i % 2 == 0 => Message::inc(0, i % 32, i),
            _ => Message::put(0, i % 32, i),
        };
        words.extend_from_slice(&msg.encode());
        if i % 64 == 53 {
            words.extend_from_slice(&[u64::MAX, 0, 0, 0]);
        }
    }
    let pkt = Packet::from_words(3, 0, &words);
    let heap = SymmetricHeap::new(32);

    let (allocs, (end, cursor, general, replies)) = counted(|| {
        let payload: &[u8] = &pkt.payload;
        let (mut general, mut replies) = (0u64, 0u64);
        let mut cursor = 0;
        let mut end = StreamEnd::Drained;
        for _ in 0..100 {
            cursor = 0;
            end = apply_stream(
                payload,
                pkt.dest,
                &mut cursor,
                &heap,
                || false,
                |_, w| {
                    general += 1;
                    match Message::decode(w) {
                        Some(msg) => {
                            apply(&msg, pkt.src, &heap, &ams, &mut |_| replies += 1)
                                != Applied::Shutdown
                        }
                        None => true,
                    }
                },
            );
        }
        (end, cursor, general, replies)
    });

    assert_eq!((end, cursor), (StreamEnd::Drained, pkt.msg_count()));
    assert_eq!(
        (general, replies),
        (100 * 4 * 8, 100 * 8),
        "only what a run cannot resolve"
    );
    assert_eq!(allocs, 0, "apply_stream must not allocate");
}

#[test]
fn a_warm_pooled_queue_flushes_and_seals_in_place_without_allocating() {
    use gravel_gq::{BufferPool, Message};
    use gravel_pgas::{NodeQueues, WireIntegrity, FRAME_OVERHEAD, PAIR_BYTES, RUN_HEADER_BYTES};
    use std::time::{Duration, Instant};

    // One run of this many INC records fills a queue.
    const PER_PACKET: u64 = 64;
    let queue_bytes = RUN_HEADER_BYTES + PER_PACKET as usize * PAIR_BYTES;
    let pool = BufferPool::new();
    let mut nq = NodeQueues::with_config(0, 2, queue_bytes, Duration::from_secs(3600))
        .with_pool(pool.clone());
    let now = Instant::now();
    // Fill, flush and seal `packets` packets for each of two
    // destinations, keeping the last few frames alive as a window of
    // unacknowledged ones would; returns the bytes sealed.
    let mut in_flight = std::collections::VecDeque::with_capacity(8);
    let mut run = |packets: u64| {
        let mut sealed = 0;
        for i in 0..packets * PER_PACKET {
            for dest in 0..2 {
                let words = Message::inc(dest, i % 512, 1).encode();
                if let Some(pkt) = nq.push(dest as usize, &words, now) {
                    let frame = pkt.seal_in(0, WireIntegrity::Crc32c, Some(&pool));
                    sealed += frame.len();
                    if in_flight.len() == 4 {
                        in_flight.pop_front();
                    }
                    in_flight.push_back(frame);
                }
            }
        }
        sealed
    };
    run(8);
    let (warm_misses, warm_takes) = (pool.misses(), pool.hits() + pool.misses());
    assert_eq!(warm_takes, 2 * 8, "one buffer per packet, none per seal");

    let (allocs, sealed) = counted(|| run(100));
    assert_eq!(sealed, 2 * 100 * (queue_bytes + FRAME_OVERHEAD));
    assert_eq!(allocs, 0, "flush + in-place seal + warm take must not allocate");
    assert_eq!(pool.misses(), warm_misses, "every buffer was a warm one");
    assert_eq!(pool.hits() + pool.misses(), warm_takes + 2 * 100);
}

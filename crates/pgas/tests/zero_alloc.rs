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
//! Counting is gated on a thread-local flag so only the measured region
//! on the test thread is counted — the libtest harness allocates from
//! other threads concurrently and must not pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

std::thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc {
    allocs: AtomicU64,
}

impl CountingAlloc {
    fn count(&self) {
        // `try_with` so allocations during TLS teardown don't panic.
        if TRACK.try_with(|t| t.get()).unwrap_or(false) {
            self.allocs.fetch_add(1, Ordering::Relaxed);
        }
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
static GLOBAL: CountingAlloc = CountingAlloc {
    allocs: AtomicU64::new(0),
};

/// Run `f` with this thread's allocations counted; return how many there
/// were.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = GLOBAL.allocs.load(Ordering::SeqCst);
    TRACK.with(|t| t.set(true));
    let r = f();
    TRACK.with(|t| t.set(false));
    let after = GLOBAL.allocs.load(Ordering::SeqCst);
    (after - before, r)
}

#[test]
fn borrowing_iterator_does_not_allocate() {
    use gravel_gq::Message;
    use gravel_pgas::Packet;

    // Build the packet up front; only the decode loop is measured.
    let mut words = Vec::new();
    for i in 0..512u64 {
        words.extend_from_slice(&Message::inc((i % 7) as u32, i * 8, i).encode());
    }
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
    let (allocs, via_vec) = counted(|| pkt.words().iter().sum::<u64>());
    assert_eq!(via_vec, expect);
    assert!(allocs > 0, "Packet::words() allocates, counter sees it");
}

#[test]
fn the_run_wise_resolver_does_not_allocate() {
    use gravel_gq::Message;
    use gravel_pgas::{
        apply, apply_stream, msg_words_at, AmRegistry, Applied, Packet, StreamEnd, SymmetricHeap,
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
                pkt.msg_count(),
                |i| msg_words_at(payload, i),
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

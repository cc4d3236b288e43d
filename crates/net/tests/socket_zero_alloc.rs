//! Proof that one frame's trip over a real socket — `send_data` →
//! gather-write → the reader thread's `read` into the decoder's own
//! buffer → pooled delivery buffer → `recv_data` — allocates nothing
//! once the arena and the mailbox are warm.
//!
//! `tests/zero_alloc_pipeline.rs` pins the in-process pipeline the same
//! way; this pins the hop it cannot reach. Every thread in the process
//! is counted while the window is armed (the transport's own accept,
//! dial and reader threads included), so the budget is exactly zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gravel_net::{RecvStatus, SocketAddrSpec, SocketConfig, SocketTransport, Transport};
use gravel_pgas::{DataFrame, Packet, WireIntegrity};

static ARMED: AtomicBool = AtomicBool::new(false);

struct CountingAlloc {
    allocs: AtomicU64,
}

impl CountingAlloc {
    fn count(&self) {
        if ARMED.load(Ordering::Relaxed) {
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
static GLOBAL: CountingAlloc = CountingAlloc { allocs: AtomicU64::new(0) };

/// `rounds` frames, one at a time: write on node 1, receive on node 0,
/// check it is the frame that was sent, drop it (its buffer recycles).
fn round_trips(t0: &SocketTransport, t1: &SocketTransport, frame: &DataFrame, rounds: usize) {
    for _ in 0..rounds {
        t1.send_data(frame.clone(), Duration::from_secs(1));
        let until = Instant::now() + Duration::from_secs(10);
        loop {
            match t0.recv_data(0, Duration::from_millis(100)) {
                RecvStatus::Msg(got) => {
                    assert!(got.bytes == frame.bytes, "frame damaged in transit");
                    break;
                }
                RecvStatus::TimedOut => assert!(Instant::now() < until, "frame lost"),
                RecvStatus::Closed => panic!("transport closed mid-test"),
            }
        }
    }
}

#[test]
fn a_frame_crosses_the_socket_without_allocating() {
    let dir = std::env::temp_dir().join(format!("gravel-sock-za-{}", std::process::id()));
    let addrs: Vec<_> = (0..2)
        .map(|i| SocketAddrSpec::Uds(dir.join(format!("n{i}.sock"))))
        .collect();
    // `SocketConfig::new`'s defaults: the zero is what every endpoint gets.
    let spawn = |node| SocketTransport::spawn(SocketConfig::new(node, addrs.clone())).expect("bind");
    let (t0, t1) = (spawn(0), spawn(1));
    assert!(t0.wait_connected(1, Duration::from_secs(5)));
    assert!(t1.wait_connected(0, Duration::from_secs(5)));

    let words: Vec<u64> = (0..8 * 1024).collect();
    for (name, words) in [("64 kB", &words[..]), ("one message", &words[..4])] {
        let frame = Packet::from_words(1, 0, words).seal(0, WireIntegrity::Crc32c);
        // Warm-up: the decoder's buffer, the arena bucket, the mailbox.
        round_trips(&t0, &t1, &frame, 32);
        let before = GLOBAL.allocs.load(Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        round_trips(&t0, &t1, &frame, 256);
        ARMED.store(false, Ordering::SeqCst);
        let allocs = GLOBAL.allocs.load(Ordering::SeqCst) - before;
        assert_eq!(allocs, 0, "{name} frames: {allocs} allocations over 256 round trips");
    }
    t0.close();
    t1.close();
    std::fs::remove_dir_all(&dir).ok();
}

//! Pooled packet-buffer arena: size-classed stacks of packet buffers
//! recycled across flush / seal / receive instead of allocated per
//! packet.
//!
//! The hot path uses one buffer per packet: the aggregation buffer the
//! lane fills is opened with room for the frame header in front of the
//! messages and the CRC trailer behind them, so the sealed frame is the
//! same buffer (DESIGN.md §17). Only a packet built without that room
//! is copied into a second buffer when it is sealed. Either way the
//! buffer comes with the refcount block that lets retransmissions share
//! the sealed bytes. At millions of packets per second that would be
//! steady allocator traffic — and for small RPC frames the malloc/free
//! pair costs more than the memcpy it wraps. The arena removes *all* of
//! it, refcount block included:
//!
//! * Each class holds `Arc<Slab>` entries, where a `Slab` owns one
//!   `Vec<u8>`. [`BufferPool::take`] hands out the vector (moved out of
//!   the slab, three words) together with a [`BufTicket`] wrapping the
//!   slab — no allocation when a recycled slab is available.
//! * [`BufferPool::seal`] moves the filled vector back into the slab
//!   and lends it out as immutable [`bytes::Bytes`] via
//!   `Bytes::from_owner_arc` — again no allocation, and the pool
//!   retains a clone of the `Arc` on top of the class's stack.
//! * Reclamation is by observation, not by drop hook: a retained slab
//!   whose `Arc::strong_count` has fallen back to 1 has no outstanding
//!   frame views anywhere (acks arrived, retransmit clones dropped),
//!   so the next `take` may reuse it exclusively.
//! * Reuse is **warm-first**: `take` searches its class from the most
//!   recently sealed slab down and returns the first reclaimable one.
//!   A packet is in flight for a few packet times, so what rotates is
//!   about as many slabs as are in flight — a few hundred kB that stay
//!   in cache — rather than every slab a burst ever left behind.
//! * What collects at the cold end is surplus. When a reclaimable slab
//!   has sat below the one `take` chose for `TRIM_AFTER` takes in a
//!   row it is dropped, so the footprint follows the recent peak of
//!   what was in flight back down after a burst. At most one slab goes
//!   per `TRIM_AFTER` takes: if demand swings back, at most that share
//!   of takes is a miss.
//!
//! A class is a power of two plus [`CLASS_SLACK_BYTES`], so a buffer
//! for a power-of-two payload *and* its frame header and trailer fits
//! the payload's own class and a recycled vector can never need a
//! mid-use realloc (which would both defeat the zero-alloc guarantee
//! and strand the pool with odd-sized buffers). Each class is a short
//! mutex-guarded stack. Buffers cross threads — the aggregator seals,
//! the net thread or a remote node's receiver drops — but dropping a
//! view touches only the slab's refcount, so the lock is taken by
//! whoever calls `take` / `seal` / `put` (one lane per node in the
//! runtime) and is all but uncontended.
//!
//! Telemetry: `<prefix>pool.hits`, `<prefix>pool.misses`,
//! `<prefix>pool.trimmed` (counters) and `<prefix>pool.resident_bytes`
//! (gauge — capacity retained in the stacks; recyclable as soon as the
//! frames referencing it drop).
//!
//! # Safety argument
//!
//! A slab's vector is moved, resized or dropped only by a thread
//! holding an `Arc` whose `strong_count` is exactly 1 (take-after-
//! reclaim, or a fresh miss) — no other reference exists, so no
//! concurrent reader can. While lent (count ≥ 2) the vector stays where
//! it is and the bytes a view covers are only read; the bytes *no* view
//! covers may be written once, through [`ByteOwner::room_ptr`], by
//! whoever holds the only view over them (`Bytes::fill` states that
//! contract; the frame seal in `gravel-pgas` is its one caller). The
//! class mutex orders a sealer's stores before the next taker's loads,
//! and the acquire fence behind an observed `strong_count == 1` orders
//! the last dropper's reads before our subsequent writes.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicI64, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use bytes::{ByteOwner, Bytes};
use gravel_telemetry::{Counter, Gauge, Registry};

/// Smallest class, before slack. Requests below this are rounded up —
/// a 1 KiB floor keeps tiny RPC frames (∼100 B) from fragmenting the
/// class space while costing little per resident buffer.
pub const MIN_BUCKET_BYTES: usize = 1 << 10;

/// Largest class, before slack: twice the paper's 64 KiB queue, for
/// configurations that double it. (The 64 KiB queue's own frame fits
/// the 64 KiB class, slack included.) Requests beyond this bypass the
/// pool entirely (counted as misses; their ticket is dropped, not
/// retained).
pub const MAX_BUCKET_BYTES: usize = 1 << 17;

/// What every class holds beyond its power of two: room for a frame
/// header and trailer around a power-of-two payload (`gravel-pgas`
/// checks its `FRAME_OVERHEAD` against this), one cache line.
pub const CLASS_SLACK_BYTES: usize = 64;

/// Slabs (lent + idle) a class can track. In-flight frames beyond this
/// push the coldest entry out (freed on its last drop), so the bound
/// trades recycle rate against the worst-case idle footprint.
const CLASS_SLOTS: usize = 256;

/// Takes in a row that must leave a reclaimable slab unused below the
/// one they chose before the coldest such slab is dropped. At 256 a
/// traced `put_dense`, whose depth in flight swings with the host's
/// scheduler, re-allocated what it had just trimmed often enough to
/// read `pool.hit_frac` 0.995–0.997; a thousand takes is 10–20 ms of
/// that stream.
const TRIM_AFTER: u32 = 1024;

const MIN_SHIFT: u32 = MIN_BUCKET_BYTES.trailing_zeros();
const MAX_SHIFT: u32 = MAX_BUCKET_BYTES.trailing_zeros();
const NUM_CLASSES: usize = (MAX_SHIFT - MIN_SHIFT + 1) as usize;

/// Capacity of class `i`'s buffers.
const fn class_bytes(i: usize) -> usize {
    (MIN_BUCKET_BYTES << i) + CLASS_SLACK_BYTES
}

/// Class serving a *request* for `cap` bytes (round up), or `None` if
/// the request is above the largest class.
fn class_for_request(cap: usize) -> Option<usize> {
    if cap > class_bytes(NUM_CLASSES - 1) {
        return None;
    }
    let pow = cap.saturating_sub(CLASS_SLACK_BYTES).max(MIN_BUCKET_BYTES).next_power_of_two();
    Some((pow.trailing_zeros() - MIN_SHIFT) as usize)
}

/// Class a vector of `capacity` bytes can *serve* (round down), or
/// `None` if it is too small or too large to recycle.
fn class_for_return(capacity: usize) -> Option<usize> {
    if !(class_bytes(0)..=class_bytes(NUM_CLASSES - 1)).contains(&capacity) {
        return None;
    }
    let shift = usize::BITS - 1 - (capacity - CLASS_SLACK_BYTES).leading_zeros();
    Some((shift - MIN_SHIFT) as usize)
}

// ---------------------------------------------------------------------------
// Slabs and tickets.
// ---------------------------------------------------------------------------

/// One recyclable buffer: the `Arc` around it is the refcount block
/// shared by every frame view, and the pool reclaims both together.
struct Slab {
    vec: UnsafeCell<Vec<u8>>,
    /// Byte 0 of `vec`'s buffer, recorded while `seal` still owned the
    /// vector by value: the pointer `Bytes::fill` writes through.
    room: AtomicPtr<u8>,
}

// SAFETY: see the module-level safety argument — the vector is moved
// only at strong_count == 1 and its viewed bytes are only read while
// lent.
unsafe impl Send for Slab {}
unsafe impl Sync for Slab {}

impl ByteOwner for Slab {
    fn as_slice(&self) -> &[u8] {
        // SAFETY: called once, by `Bytes::from_owner_arc` inside
        // `seal`, on the thread that just moved the vector in.
        unsafe { &*self.vec.get() }
    }

    fn room_ptr(&self) -> Option<*mut u8> {
        Some(self.room.load(Ordering::Relaxed))
    }
}

impl Slab {
    fn new() -> Arc<Slab> {
        Arc::new(Slab {
            vec: UnsafeCell::new(Vec::new()),
            room: AtomicPtr::new(std::ptr::null_mut()),
        })
    }

    fn capacity(&self) -> usize {
        // SAFETY: reading `Vec` metadata, which changes only at
        // strong_count == 1 in the hands of whoever took the slab off
        // its stack; callers hold the slab's class lock or its ticket.
        unsafe { (*self.vec.get()).capacity() }
    }
}

/// Exclusive claim on a pooled slab, handed out by
/// [`BufferPool::take`] alongside its (moved-out) vector. Redeem it
/// with [`BufferPool::seal`] or [`BufferPool::put`]; dropping it
/// instead just frees the slab.
pub struct BufTicket {
    slab: Arc<Slab>,
}

// ---------------------------------------------------------------------------
// The pool.
// ---------------------------------------------------------------------------

/// One size class: its retained slabs, coldest first.
struct Class {
    /// `seal` and `put` push at the back, `take` searches from the
    /// back. Allocated once at `CLASS_SLOTS`, never grown.
    stack: VecDeque<Arc<Slab>>,
    /// Consecutive takes that left a reclaimable slab unused below
    /// the one they returned.
    idle_takes: u32,
}

struct PoolShared {
    classes: [Mutex<Class>; NUM_CLASSES],
    hits: AtomicU64,
    misses: AtomicU64,
    trimmed: AtomicU64,
    /// Capacity bytes retained in the stacks (lent + idle).
    resident: AtomicI64,
    /// Registry mirrors; detached when the pool is unbound.
    hits_c: Counter,
    misses_c: Counter,
    trimmed_c: Counter,
    resident_g: Gauge,
}

impl PoolShared {
    fn class(&self, i: usize) -> MutexGuard<'_, Class> {
        // A stack of `Arc`s is valid at every step of every update.
        self.classes[i].lock().unwrap_or_else(|p| p.into_inner())
    }

    fn note_resident(&self, delta: i64) {
        let now = self.resident.fetch_add(delta, Ordering::Relaxed) + delta;
        self.resident_g.set(now);
    }

    /// `slab` left the cold end of its stack unused.
    fn note_trimmed(&self, slab: Arc<Slab>) {
        self.note_resident(-(slab.capacity() as i64));
        self.trimmed.fetch_add(1, Ordering::Relaxed);
        self.trimmed_c.inc();
    }

    /// Retain a slab for reuse, warmest of its class; drops it (our
    /// clone of it) if its capacity fits no class. A full stack loses
    /// its coldest entry instead.
    fn retain(&self, slab: Arc<Slab>) {
        let cap = slab.capacity();
        let Some(c) = class_for_return(cap) else { return };
        let mut class = self.class(c);
        if class.stack.len() == CLASS_SLOTS {
            let coldest = class.stack.pop_front().expect("a full stack has a front");
            self.note_trimmed(coldest);
        }
        class.stack.push_back(slab);
        self.note_resident(cap as i64);
    }

    /// The warmest reclaimable slab of class `c`, off its stack.
    fn reclaim(&self, c: usize) -> Option<Arc<Slab>> {
        let mut class = self.class(c);
        let reclaimable = |slab: &Arc<Slab>| Arc::strong_count(slab) == 1;
        let at = class.stack.iter().rposition(reclaimable)?;
        // Exclusive: every frame view is gone, and the stack's own
        // reference is the one we are taking. The fence orders the
        // last dropper's reads before the taker's writes.
        fence(Ordering::Acquire);
        let slab = class.stack.remove(at).expect("rposition is in range");
        self.note_resident(-(slab.capacity() as i64));
        match class.stack.iter().take(at).position(reclaimable) {
            Some(cold) => {
                class.idle_takes += 1;
                if class.idle_takes >= TRIM_AFTER {
                    class.idle_takes = 0;
                    let idle = class.stack.remove(cold).expect("position is in range");
                    self.note_trimmed(idle);
                }
            }
            // Everything below is in flight: the stack is no deeper
            // than the traffic needs.
            None => class.idle_takes = 0,
        }
        Some(slab)
    }
}

/// A shared arena of recycled packet buffers. Cheap to clone (one
/// `Arc`).
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

impl BufferPool {
    /// A pool with detached (process-local) telemetry.
    pub fn new() -> Self {
        Self::build(
            Counter::detached(),
            Counter::detached(),
            Counter::detached(),
            Gauge::detached(),
        )
    }

    /// A pool whose `pool.hits` / `pool.misses` / `pool.trimmed` /
    /// `pool.resident_bytes` metrics live in `registry` under `prefix`
    /// (e.g. `"node0."`).
    pub fn bound(registry: &Registry, prefix: &str) -> Self {
        Self::build(
            registry.counter(&format!("{prefix}pool.hits")),
            registry.counter(&format!("{prefix}pool.misses")),
            registry.counter(&format!("{prefix}pool.trimmed")),
            registry.gauge(&format!("{prefix}pool.resident_bytes")),
        )
    }

    fn build(hits_c: Counter, misses_c: Counter, trimmed_c: Counter, resident_g: Gauge) -> Self {
        let classes = std::array::from_fn(|_| {
            Mutex::new(Class { stack: VecDeque::with_capacity(CLASS_SLOTS), idle_takes: 0 })
        });
        BufferPool {
            shared: Arc::new(PoolShared {
                classes,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                trimmed: AtomicU64::new(0),
                resident: AtomicI64::new(0),
                hits_c,
                misses_c,
                trimmed_c,
                resident_g,
            }),
        }
    }

    /// An empty vector with capacity ≥ `cap` plus the ticket to return
    /// it through. Recycled (vector *and* refcount block, zero
    /// allocations) when a reclaimable slab is resident — the most
    /// recently sealed one there is; freshly allocated — a miss —
    /// otherwise.
    pub fn take(&self, cap: usize) -> (Vec<u8>, BufTicket) {
        let class = class_for_request(cap);
        if let Some(slab) = class.and_then(|c| self.shared.reclaim(c)) {
            self.shared.hits.fetch_add(1, Ordering::Relaxed);
            self.shared.hits_c.inc();
            // SAFETY: count == 1 — we hold the only reference.
            let mut vec = unsafe { std::mem::take(&mut *slab.vec.get()) };
            vec.clear();
            debug_assert!(vec.capacity() >= cap);
            return (vec, BufTicket { slab });
        }
        self.shared.misses.fetch_add(1, Ordering::Relaxed);
        self.shared.misses_c.inc();
        let cap = class.map_or(cap, class_bytes);
        (Vec::with_capacity(cap), BufTicket { slab: Slab::new() })
    }

    /// Seal a filled vector into immutable [`Bytes`] backed by its
    /// slab, retaining the slab for reuse once every clone and slice
    /// of the returned `Bytes` has dropped. Allocation-free.
    pub fn seal(&self, mut vec: Vec<u8>, ticket: BufTicket) -> Bytes {
        debug_assert_eq!(Arc::strong_count(&ticket.slab), 1, "ticket must be exclusive");
        ticket.slab.room.store(vec.as_mut_ptr(), Ordering::Relaxed);
        // SAFETY: the ticket holds the only reference to the slab.
        unsafe { *ticket.slab.vec.get() = vec };
        let bytes = Bytes::from_owner_arc(Arc::clone(&ticket.slab) as Arc<dyn ByteOwner>);
        self.shared.retain(ticket.slab);
        bytes
    }

    /// Return a vector unused (scratch path — no frame was lent out).
    pub fn put(&self, mut vec: Vec<u8>, ticket: BufTicket) {
        debug_assert_eq!(Arc::strong_count(&ticket.slab), 1, "ticket must be exclusive");
        vec.clear();
        // SAFETY: the ticket holds the only reference to the slab.
        unsafe { *ticket.slab.vec.get() = vec };
        self.shared.retain(ticket.slab);
    }

    /// Recycled handouts so far.
    pub fn hits(&self) -> u64 {
        self.shared.hits.load(Ordering::Relaxed)
    }

    /// Handouts that had to allocate.
    pub fn misses(&self) -> u64 {
        self.shared.misses.load(Ordering::Relaxed)
    }

    /// Retained slabs dropped from the cold end of a stack: surplus
    /// after a burst, or pushed out of a full stack.
    pub fn trimmed(&self) -> u64 {
        self.shared.trimmed.load(Ordering::Relaxed)
    }

    /// Capacity bytes retained in the stacks (lent + idle).
    pub fn resident_bytes(&self) -> i64 {
        self.shared.resident.load(Ordering::Relaxed)
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("trimmed", &self.trimmed())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_rounding() {
        let top = NUM_CLASSES - 1;
        assert_eq!(class_for_request(1), Some(0));
        assert_eq!(class_for_request(class_bytes(0)), Some(0));
        assert_eq!(class_for_request(class_bytes(0) + 1), Some(1));
        assert_eq!(class_for_request(class_bytes(top)), Some(top));
        assert_eq!(class_for_request(class_bytes(top) + 1), None);
        // Returns round *down* so a served take never needs realloc.
        assert_eq!(class_for_return(class_bytes(0) - 1), None);
        assert_eq!(class_for_return(class_bytes(0)), Some(0));
        assert_eq!(class_for_return(class_bytes(1) - 1), Some(0));
        assert_eq!(class_for_return(class_bytes(top)), Some(top));
        assert_eq!(class_for_return(class_bytes(top) + 1), None);
        for i in 0..NUM_CLASSES {
            assert_eq!(class_for_request(class_bytes(i)), Some(i));
            assert_eq!(class_for_return(class_bytes(i)), Some(i));
        }
    }

    #[test]
    fn a_power_of_two_payload_plus_slack_fits_the_payloads_own_class() {
        // What the packet path asks for: the paper's 64 KiB queue with
        // a frame header in front and a trailer behind.
        let pool = BufferPool::new();
        let want = (64 << 10) + 40;
        let (v, t) = pool.take(want);
        assert!(v.capacity() >= want);
        assert!((v.capacity() as f64) < 1.1 * want as f64, "capacity {}", v.capacity());
        pool.put(v, t);
        assert_eq!(pool.resident_bytes(), class_bytes(6) as i64);
        let (_v, _t) = pool.take(want);
        assert_eq!((pool.hits(), pool.misses()), (1, 1), "and is found there again");
    }

    #[test]
    fn seal_then_drop_then_take_recycles_everything() {
        let pool = BufferPool::new();
        let (mut v, t) = pool.take(4096);
        assert_eq!(pool.misses(), 1);
        let ptr = v.as_ptr();
        v.extend_from_slice(&[1, 2, 3, 4]);
        let b = pool.seal(v, t);
        assert_eq!(&b[..], &[1, 2, 3, 4]);
        assert!(pool.resident_bytes() > 0, "sealed slab is retained");
        // Still lent out: take must not reclaim it.
        let (v2, t2) = pool.take(4096);
        assert_eq!(pool.misses(), 2, "lent slab is skipped");
        pool.put(v2, t2);
        drop(b);
        // Now reclaimable. The scratch slab went back last, so it is
        // served first; the original allocation is right below it.
        let (v3, _t3) = pool.take(4096);
        assert_eq!(pool.hits(), 1);
        assert!(v3.is_empty());
        let (v4, _t4) = pool.take(4096);
        assert_eq!(pool.hits(), 2);
        assert_eq!(v4.as_ptr(), ptr, "original allocation was recycled");
    }

    #[test]
    fn take_returns_the_most_recently_sealed_reclaimable_slab() {
        let pool = BufferPool::new();
        let taken: Vec<_> = (0..4).map(|_| pool.take(2048)).collect();
        let ptrs: Vec<_> = taken.iter().map(|(v, _)| v.as_ptr()).collect();
        let mut views: Vec<_> = taken.into_iter().map(|(v, t)| pool.seal(v, t)).collect();
        // Sealed 0, 1, 2, 3; 3 is still lent, so 2 is the warmest free.
        let lent = views.pop().unwrap();
        drop(views);
        let (v, _t) = pool.take(2048);
        assert_eq!(v.as_ptr(), ptrs[2]);
        let (v, _t) = pool.take(2048);
        assert_eq!(v.as_ptr(), ptrs[1]);
        drop(lent);
        let (v, _t) = pool.take(2048);
        assert_eq!(v.as_ptr(), ptrs[3], "a slab is warm again the moment its views drop");
    }

    #[test]
    fn rotation_follows_what_is_in_flight_and_the_footprint_falls_back_after_a_burst() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::{HashSet, VecDeque};
        const BURST: usize = 200;
        for seed in 0..(crate::fuzz_cases() / 256).max(1) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.gen_range(1..=12);
            let pool = BufferPool::new();
            let mut held: VecDeque<Bytes> = VecDeque::new();
            let mut cycle = |held: &mut VecDeque<Bytes>, hold: usize| {
                let (mut v, t) = pool.take(MIN_BUCKET_BYTES);
                let ptr = v.as_ptr();
                assert!(
                    held.iter().all(|b| b.as_ptr() != ptr),
                    "take handed out a slab with a live view"
                );
                v.push(seed as u8);
                held.push_back(pool.seal(v, t));
                while held.len() > hold {
                    // Mostly the oldest view goes first, as acks do.
                    let at = if rng.gen_bool(0.8) { 0 } else { rng.gen_range(0..held.len()) };
                    held.remove(at);
                }
                ptr
            };
            // A burst: 200 views held at once, then all but k dropped.
            for _ in 0..BURST {
                cycle(&mut held, BURST);
            }
            held.truncate(k);
            let peak = pool.resident_bytes();
            assert_eq!(peak, (BURST * class_bytes(0)) as i64);
            let mut distinct = HashSet::new();
            for _ in 0..10_000 {
                distinct.insert(cycle(&mut held, k));
            }
            assert!(
                distinct.len() <= k + 2,
                "seed {seed}: {} slabs rotated with {k} views held",
                distinct.len()
            );
            assert_eq!(pool.misses(), BURST as u64, "seed {seed}: nothing after the burst missed");
            let trimmed = (10_000 / TRIM_AFTER as usize) as i64;
            assert!(trimmed > 0);
            assert_eq!(pool.trimmed(), trimmed as u64, "seed {seed}");
            assert_eq!(pool.resident_bytes(), peak - trimmed * class_bytes(0) as i64);
            // Left alone the surplus goes entirely: what stays is what
            // rotates.
            for _ in 0..(BURST * TRIM_AFTER as usize) {
                cycle(&mut held, k);
            }
            let left = pool.resident_bytes() / class_bytes(0) as i64;
            assert!(left <= (k + 2) as i64, "seed {seed}: {left} slabs left for {k} held");
            assert_eq!(pool.misses(), BURST as u64, "seed {seed}: trimming cost no miss");
        }
    }

    #[test]
    fn clones_and_slices_keep_the_slab_lent() {
        let pool = BufferPool::new();
        let (mut v, t) = pool.take(2048);
        v.extend_from_slice(&[9, 8, 7, 6]);
        let b = pool.seal(v, t);
        let clone = b.clone();
        let view = b.slice(1..3);
        drop(b);
        drop(clone);
        let (_s, _st) = pool.take(2048);
        assert_eq!(pool.hits(), 0, "slice still pins the slab");
        assert_eq!(&view[..], &[8, 7]);
        drop(view);
        let (_s2, _st2) = pool.take(2048);
        assert_eq!(pool.hits(), 1, "last view released the slab");
    }

    #[test]
    fn steady_state_seal_loop_allocates_nothing_new() {
        let pool = BufferPool::new();
        // Warm up one slab, then cycle it: every round must be a hit.
        let (v, t) = pool.take(1024);
        drop(pool.seal(v, t));
        for i in 0..1000 {
            let (mut v, t) = pool.take(1024);
            v.push(i as u8);
            drop(pool.seal(v, t));
        }
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 1000);
    }

    #[test]
    fn oversized_requests_bypass_the_pool() {
        let pool = BufferPool::new();
        let (v, t) = pool.take(MAX_BUCKET_BYTES * 2);
        assert!(v.capacity() >= MAX_BUCKET_BYTES * 2);
        let b = pool.seal(v, t);
        drop(b);
        assert_eq!(pool.resident_bytes(), 0, "oversized buffers are not retained");
    }

    #[test]
    fn put_returns_scratch_without_lending() {
        let pool = BufferPool::new();
        let (v, t) = pool.take(MIN_BUCKET_BYTES);
        pool.put(v, t);
        assert_eq!(pool.resident_bytes(), class_bytes(0) as i64);
        let (_v, _t) = pool.take(MIN_BUCKET_BYTES);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn cross_thread_churn_is_balanced() {
        let pool = BufferPool::new();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..2000 {
                        let cap = MIN_BUCKET_BYTES << ((t + i) % 3);
                        let (mut v, tk) = pool.take(cap);
                        v.push(t as u8);
                        if i % 2 == 0 {
                            pool.put(v, tk);
                        } else {
                            drop(pool.seal(v, tk));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.hits() + pool.misses(), 4 * 2000);
        assert!(pool.resident_bytes() >= 0);
        // After warm-up the pool should be serving mostly hits.
        assert!(pool.hits() > pool.misses(), "hits {} misses {}", pool.hits(), pool.misses());
    }
}

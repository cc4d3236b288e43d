//! The fault-injecting decorator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::Bytes;
use gravel_pgas::frame::{HEADER_BYTES, MAGIC};
use gravel_pgas::DataFrame;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::partition::{HoldQueue, LinkSchedule};
use crate::{
    mix, AckFrame, FaultConfig, FaultStats, Heartbeat, NodeId, RecvStatus, SendStatus, Transport,
};

/// Pick 1–3 *distinct* `(byte, bit-mask)` flips for a frame of `len`
/// bytes. Distinctness matters: two identical flips would cancel and
/// deliver the frame intact while the stats claim it was corrupted.
fn roll_flips(rng: &mut StdRng, len: usize) -> Vec<(usize, u8)> {
    let want = rng.gen_range(1..=3usize);
    let mut flips: Vec<(usize, u8)> = Vec::with_capacity(want);
    while flips.len() < want {
        let f = (rng.gen_range(0..len), 1u8 << rng.gen_range(0..8u32));
        if !flips.contains(&f) {
            flips.push(f);
        }
    }
    flips
}

/// Decorator that injects seeded per-link faults into an inner
/// transport (see crate docs for the model). Cross-node data packets
/// may be dropped, duplicated, held back or mangled; acks may be
/// dropped or flipped, heartbeats dropped. Only data frames are ever
/// held: a [`LinkFault::Delay`](crate::LinkFault::Delay) slows the data
/// plane of its link, not its acks or heartbeats. Loopback
/// (`src == dest`) traffic passes through untouched.
pub struct UnreliableTransport<T: Transport> {
    inner: T,
    cfg: FaultConfig,
    /// Outages and delays built from `cfg.link_faults`, armed at
    /// construction; it also holds and counts every held frame.
    schedule: LinkSchedule,
    /// Row-major `[src][dest]` per-link RNGs (unused diagonal included
    /// to keep indexing trivial).
    links: Vec<Mutex<StdRng>>,
    /// Held-back data frames awaiting their due time, per dest.
    held: Vec<HoldQueue<DataFrame>>,
    dropped_data: AtomicU64,
    dropped_acks: AtomicU64,
    dropped_heartbeats: AtomicU64,
    duplicated: AtomicU64,
    corrupted_data: AtomicU64,
    truncated_data: AtomicU64,
    garbage_data: AtomicU64,
    misrouted_data: AtomicU64,
    corrupted_acks: AtomicU64,
}

/// One corruption decision for a data frame, rolled under the link
/// lock so the pattern is seed-deterministic per link.
enum Mangle {
    /// Replace the frame wholesale with junk bytes.
    Garbage(Vec<u8>),
    /// Cut the frame to this many bytes.
    Truncate(usize),
    /// XOR these `(byte, mask)` pairs into the frame.
    Flip(Vec<(usize, u8)>),
    /// Rewrite the routing stamp to this node, contents untouched.
    Misroute(u32),
}

impl<T: Transport> UnreliableTransport<T> {
    /// Wrap `inner` with the given fault model.
    pub fn new(inner: T, cfg: FaultConfig) -> Self {
        let nodes = inner.nodes();
        cfg.validate(nodes);
        let links = (0..nodes * nodes)
            .map(|i| {
                let (src, dest) = (i / nodes, i % nodes);
                let seed = mix(cfg.seed ^ mix((src as u64) << 32 | dest as u64));
                Mutex::new(StdRng::seed_from_u64(seed))
            })
            .collect();
        let schedule = LinkSchedule::new(cfg.seed, cfg.link_faults.clone());
        schedule.arm();
        UnreliableTransport {
            held: (0..nodes).map(|_| HoldQueue::new()).collect(),
            links,
            inner,
            schedule,
            cfg,
            dropped_data: AtomicU64::new(0),
            dropped_acks: AtomicU64::new(0),
            dropped_heartbeats: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            corrupted_data: AtomicU64::new(0),
            truncated_data: AtomicU64::new(0),
            garbage_data: AtomicU64::new(0),
            misrouted_data: AtomicU64::new(0),
            corrupted_acks: AtomicU64::new(0),
        }
    }

    /// Roll at most one corruption for a data frame of `len` bytes.
    /// Priority garbage > truncate > flip > misroute keeps the per-link
    /// pattern deterministic for a fixed seed and traffic order.
    fn roll_mangle(&self, rng: &mut StdRng, len: usize, dest: u32) -> Option<Mangle> {
        if self.cfg.garbage > 0.0 && rng.gen_bool(self.cfg.garbage) {
            let junk_len = HEADER_BYTES + rng.gen_range(0..=64usize);
            let mut junk = vec![0u8; junk_len];
            for chunk in junk.chunks_mut(8) {
                let w = rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&w[..chunk.len()]);
            }
            // If the junk opens with a valid magic by chance, break it:
            // classification in tests stays deterministic (BadMagic).
            if junk[..4] == MAGIC.to_le_bytes() {
                junk[0] ^= 0x01;
            }
            return Some(Mangle::Garbage(junk));
        }
        if self.cfg.truncate > 0.0 && rng.gen_bool(self.cfg.truncate) {
            return Some(Mangle::Truncate(rng.gen_range(0..len)));
        }
        if self.cfg.corrupt > 0.0 && rng.gen_bool(self.cfg.corrupt) {
            return Some(Mangle::Flip(roll_flips(rng, len)));
        }
        if self.cfg.misroute > 0.0 && rng.gen_bool(self.cfg.misroute) {
            let nodes = self.inner.nodes() as u32;
            // Any node but the intended one (with 2 nodes that is the
            // sender itself — still a misdelivery the receiver catches).
            let mut target = rng.gen_range(0..nodes);
            if target == dest {
                target = (target + 1) % nodes;
            }
            return Some(Mangle::Misroute(target));
        }
        None
    }

    /// The `(src, dest)` link's RNG.
    fn link(&self, src: NodeId, dest: NodeId) -> &Mutex<StdRng> {
        &self.links[src as usize * self.inner.nodes() + dest as usize]
    }

    /// Deliver a mangled variant of `frame` and count it — but only if
    /// the inner fabric accepted the bytes. A corrupted frame that dies
    /// in a full channel was never *delivered* corrupted, and counting
    /// it would break the receiver-side reconciliation ledger.
    fn deliver_mangled(&self, frame: DataFrame, mangle: Mangle) {
        let (mangled, counter) = match mangle {
            Mangle::Garbage(junk) => (
                DataFrame { bytes: Bytes::from(junk), ..frame },
                &self.garbage_data,
            ),
            Mangle::Truncate(n) => (
                DataFrame { bytes: frame.bytes.slice(0..n), ..frame },
                &self.truncated_data,
            ),
            Mangle::Flip(flips) => {
                let mut bytes = frame.bytes.to_vec();
                for (at, mask) in flips {
                    bytes[at] ^= mask;
                }
                (
                    DataFrame { bytes: Bytes::from(bytes), ..frame },
                    &self.corrupted_data,
                )
            }
            Mangle::Misroute(target) => (
                DataFrame { dest: target, ..frame },
                &self.misrouted_data,
            ),
        };
        if self.inner.send_data(mangled, Duration::ZERO) == SendStatus::Sent {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<T: Transport> Transport for UnreliableTransport<T> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn send_data(&self, frame: DataFrame, timeout: Duration) -> SendStatus {
        if frame.src == frame.dest {
            return self.inner.send_data(frame, timeout);
        }
        if self.schedule.blocked(frame.src, frame.dest) {
            return SendStatus::Sent; // swallowed by the partition
        }
        let (drop, dup, delay, mangle) = {
            let mut rng = self.link(frame.src, frame.dest).lock().unwrap();
            let drop = self.cfg.drop > 0.0 && rng.gen_bool(self.cfg.drop);
            let dup = self.cfg.duplicate > 0.0 && rng.gen_bool(self.cfg.duplicate);
            let delay = if self.cfg.reorder > 0.0 && rng.gen_bool(self.cfg.reorder) {
                let jitter_ns = (self.cfg.jitter.as_nanos() as u64).max(1);
                Some(Duration::from_nanos(rng.next_u64() % jitter_ns))
            } else {
                None
            };
            let mangle = self.roll_mangle(&mut rng, frame.bytes.len(), frame.dest);
            (drop, dup, delay, mangle)
        };
        // A link's delay fault stacks on whatever was rolled.
        let delay = match self.schedule.delay(frame.src, frame.dest) {
            Some(d) => Some(delay.unwrap_or(Duration::ZERO) + d),
            None => delay,
        };
        if drop {
            self.dropped_data.fetch_add(1, Ordering::Relaxed);
            return SendStatus::Sent;
        }
        if dup {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            // Best-effort second copy, sent *pristine* before any
            // corruption: the protocol must survive a mangled original
            // racing a clean duplicate. Losing it is itself a valid
            // fault.
            let _ = self.inner.send_data(frame.clone(), Duration::ZERO);
        }
        if let Some(mangle) = mangle {
            // The original is consumed by the mangling — from the
            // sender's perspective it was Sent; from the receiver's it
            // will fail verification and be healed by retransmission
            // (corrupted ≡ lost).
            self.deliver_mangled(frame, mangle);
            return SendStatus::Sent;
        }
        if let Some(extra) = delay {
            let (src, dest) = (frame.src, frame.dest);
            self.schedule.hold(&self.held[dest as usize], src, dest, extra, frame);
            return SendStatus::Sent;
        }
        self.inner.send_data(frame, timeout)
    }

    fn recv_data(&self, node: NodeId, timeout: Duration) -> RecvStatus<DataFrame> {
        let deadline = Instant::now() + timeout;
        let held = &self.held[node as usize];
        loop {
            let now = Instant::now();
            let (due, next_due) = self.schedule.release(held, now, false);
            if let Some((_, frame)) = due {
                return RecvStatus::Msg(frame);
            }
            let mut wait = deadline.saturating_duration_since(now);
            if let Some(nd) = next_due {
                wait = wait.min(nd.saturating_duration_since(now));
            }
            match self.inner.recv_data(node, wait) {
                RecvStatus::Msg(frame) => return RecvStatus::Msg(frame),
                RecvStatus::Closed => {
                    // Fabric closed: flush held-back frames immediately so
                    // nothing accepted before close() is lost.
                    return match self.schedule.release(held, now, true).0 {
                        Some((_, frame)) => RecvStatus::Msg(frame),
                        None => RecvStatus::Closed,
                    };
                }
                RecvStatus::TimedOut => {
                    if Instant::now() >= deadline {
                        // One last chance for a frame that came due during
                        // the inner wait.
                        return match self.schedule.release(held, Instant::now(), false).0 {
                            Some((_, frame)) => RecvStatus::Msg(frame),
                            None => RecvStatus::TimedOut,
                        };
                    }
                }
            }
        }
    }

    fn send_ack(&self, mut ack: AckFrame) {
        if ack.src != ack.dest {
            if self.schedule.blocked(ack.src, ack.dest) {
                return; // swallowed by the partition
            }
            let (drop, flips) = {
                let mut rng = self.link(ack.src, ack.dest).lock().unwrap();
                let drop = self.cfg.drop > 0.0 && rng.gen_bool(self.cfg.drop);
                let flips = if self.cfg.corrupt > 0.0 && rng.gen_bool(self.cfg.corrupt) {
                    Some(roll_flips(&mut rng, ack.bytes.len()))
                } else {
                    None
                };
                (drop, flips)
            };
            if drop {
                self.dropped_acks.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if let Some(flips) = flips {
                // Only the frame bytes are flipped; the routing stamps
                // stay intact so the mangled ack still lands in the
                // right mailbox to be rejected there. Counted at
                // injection (not on accept): acks are fire-and-forget,
                // so the receiver reconciles `<=` against this.
                for (at, mask) in flips {
                    ack.bytes[at] ^= mask;
                }
                self.corrupted_acks.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.send_ack(ack);
    }

    fn try_recv_ack(&self, node: NodeId, lane: u32) -> Option<AckFrame> {
        self.inner.try_recv_ack(node, lane)
    }

    fn send_heartbeat(&self, hb: Heartbeat) {
        if hb.src != hb.dest {
            if self.schedule.blocked(hb.src, hb.dest) {
                return; // swallowed by the partition
            }
            let drop = self.cfg.drop > 0.0
                && self.link(hb.src, hb.dest).lock().unwrap().gen_bool(self.cfg.drop);
            // The beat dies silently — heartbeats are the least reliable
            // traffic class by design.
            if drop {
                self.dropped_heartbeats.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.inner.send_heartbeat(hb);
    }

    fn try_recv_heartbeat(&self, node: NodeId) -> Option<Heartbeat> {
        self.inner.try_recv_heartbeat(node)
    }

    fn close(&self) {
        self.inner.close();
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn fault_stats(&self) -> FaultStats {
        let inner = self.inner.fault_stats();
        FaultStats {
            dropped_data: self.dropped_data.load(Ordering::Relaxed),
            dropped_acks: self.dropped_acks.load(Ordering::Relaxed) + inner.dropped_acks,
            dropped_heartbeats: self.dropped_heartbeats.load(Ordering::Relaxed)
                + inner.dropped_heartbeats,
            duplicated: self.duplicated.load(Ordering::Relaxed),
            corrupted_data: self.corrupted_data.load(Ordering::Relaxed),
            truncated_data: self.truncated_data.load(Ordering::Relaxed),
            garbage_data: self.garbage_data.load(Ordering::Relaxed),
            misrouted_data: self.misrouted_data.load(Ordering::Relaxed),
            corrupted_acks: self.corrupted_acks.load(Ordering::Relaxed),
            ..self.schedule.stats()
        }
    }

    fn data_depths(&self) -> Vec<usize> {
        let mut depths = self.inner.data_depths();
        for (d, held) in self.held.iter().enumerate() {
            depths[d] += held.len();
        }
        depths
    }

    fn ack_depths(&self, node: crate::NodeId) -> usize {
        // Ack faults are drops, never delays: everything buffered lives
        // in the inner fabric's mailboxes.
        self.inner.ack_depths(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ack, ChannelTransport};
    use gravel_pgas::{FrameError, Packet, WireIntegrity};

    /// A one-word frame on bulk lane 0.
    fn pkt(src: u32, dest: u32, tag: u64) -> DataFrame {
        Packet::from_payload(src, dest, tag.to_le_bytes().to_vec().into())
            .seal(0, WireIntegrity::Crc32c)
    }

    fn words(f: &DataFrame) -> Vec<u64> {
        f.open(WireIntegrity::Crc32c).expect("frame should be pristine").words()
    }

    const T: Duration = Duration::from_millis(300);

    #[test]
    fn no_faults_is_transparent() {
        // Capacity must cover all 20 sends: nothing drains until the
        // send loop finishes.
        let t = UnreliableTransport::new(ChannelTransport::new(2, 1, 32), FaultConfig::quiet(1));
        for i in 0..20 {
            assert_eq!(t.send_data(pkt(0, 1, i), T), SendStatus::Sent);
        }
        for i in 0..20 {
            match t.recv_data(1, T) {
                RecvStatus::Msg(f) => assert_eq!(words(&f), vec![i]),
                other => panic!("{other:?}"),
            }
        }
        assert!(t.fault_stats().is_clean());
    }

    #[test]
    fn drops_are_counted_and_deterministic() {
        let count_drops = |seed| {
            let t = UnreliableTransport::new(
                ChannelTransport::new(2, 1, 2048),
                FaultConfig::drop_only(seed, 0.2),
            );
            for i in 0..1000 {
                t.send_data(pkt(0, 1, i), T);
            }
            t.fault_stats().dropped_data
        };
        let a = count_drops(7);
        assert_eq!(a, count_drops(7), "same seed, same faults");
        assert!((100..350).contains(&a), "~20% of 1000, got {a}");
        assert_ne!(a, count_drops(8), "different seed, different pattern");
    }

    /// The fault each of the first 256 data frames on link 0 → 1 met,
    /// read off the ledger one send at a time: a letter per frame (bit
    /// 0 dropped, 1 duplicated, 2 held, 3..6 the corruption kind:
    /// flip, truncate, garbage, misroute), and after every fourth a
    /// digit for the ack and heartbeat that followed it on the same
    /// link (bit 0 ack dropped, 1 ack flipped, 2 heartbeat dropped).
    fn decisions(cfg: FaultConfig) -> String {
        const CODE: &[u8; 64] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-_";
        let t = UnreliableTransport::new(ChannelTransport::new(2, 1, 4096), cfg);
        let ledger = || {
            let s = t.fault_stats();
            [s.dropped_data, s.duplicated, s.delayed, s.corrupted_data, s.truncated_data,
             s.garbage_data, s.misrouted_data, s.dropped_acks, s.corrupted_acks,
             s.dropped_heartbeats]
        };
        let mut was = ledger();
        let mut moved = || {
            let now = ledger();
            let m: Vec<usize> = was.iter().zip(&now).map(|(a, b)| usize::from(b > a)).collect();
            was = now;
            m
        };
        let mut out = String::new();
        for i in 0..256 {
            t.send_data(pkt(0, 1, i), T);
            let m = moved();
            let kind = m[3..7].iter().position(|&b| b == 1).map_or(0, |k| k + 1);
            out.push(CODE[m[0] | m[1] << 1 | m[2] << 2 | kind << 3] as char);
            if i % 4 == 3 {
                let ack = Ack { src: 0, dest: 1, lane: 0, cum_seq: i };
                t.send_ack(ack.seal(0, WireIntegrity::Crc32c));
                t.send_heartbeat(Heartbeat { src: 0, dest: 1, seq: i });
                let m = moved();
                out.push(CODE[m[7] | m[8] << 1 | m[9] << 2] as char);
            }
        }
        out
    }

    /// Recorded before the link-down and delay knobs left `FaultConfig`:
    /// the surviving knobs draw from each link's RNG in the same order,
    /// so every seeded pattern replays bit for bit.
    #[test]
    fn seeded_fault_decisions_are_pinned() {
        let mixed = concat!(
            "1004040000000001004004000100100440500400004110044100000000144400",
            "1100000420020414020150010120200400000000110011011000004014010101",
            "4004204020040010002014004201014100040404411240000060000050040511",
            "0050400001440210204001414010211401404044210100040001001021101000",
            "0444200100044404014200200040042000411010402100010221441102000000",
        );
        let corrupting = concat!(
            "00000o00000o00000080o008000002000w200080oo00000o028g0020g0000o00",
            "0000808000000000g00o200o000000008000gg880o00g000og0g08800w002888",
            "0008o02088g00gg020008200000o0o0000002000000g8g08oo000o8o0w0o00gg",
            "og00o000000w00o800ogog0gg802oo000o800008go0000020w0o0w00o000g020",
            "8o80g00o28880080go0go0g000g0208800000o0o0000o000080o008o0g208002",
        );
        assert_eq!(decisions(FaultConfig::mixed(7, 0.2)), mixed);
        assert_eq!(decisions(FaultConfig::corrupting(7, 0.2)), corrupting);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 2048),
            FaultConfig { duplicate: 1.0, ..FaultConfig::quiet(3) },
        );
        for i in 0..10 {
            t.send_data(pkt(0, 1, i), T);
        }
        let mut got = 0;
        while let RecvStatus::Msg(_) = t.recv_data(1, Duration::from_millis(10)) {
            got += 1;
        }
        assert_eq!(got, 20);
        assert_eq!(t.fault_stats().duplicated, 10);
    }

    #[test]
    fn reordering_actually_reorders() {
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 4096),
            FaultConfig {
                reorder: 0.5,
                jitter: Duration::from_millis(2),
                ..FaultConfig::quiet(11)
            },
        );
        for i in 0..200 {
            t.send_data(pkt(0, 1, i), T);
        }
        let mut got = Vec::new();
        while let RecvStatus::Msg(f) = t.recv_data(1, Duration::from_millis(20)) {
            got.push(words(&f)[0]);
        }
        assert_eq!(got.len(), 200, "nothing lost, only reordered");
        assert!(got.windows(2).any(|w| w[0] > w[1]), "some inversion exists");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn loopback_is_never_faulted() {
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 2048),
            FaultConfig { drop: 1.0, ..FaultConfig::quiet(5) },
        );
        for i in 0..50 {
            t.send_data(pkt(0, 0, i), T);
        }
        for i in 0..50 {
            match t.recv_data(0, T) {
                RecvStatus::Msg(f) => assert_eq!(words(&f), vec![i]),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(t.fault_stats().dropped_data, 0);
    }

    #[test]
    fn close_flushes_delayed_packets() {
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 16),
            FaultConfig {
                reorder: 1.0,
                jitter: Duration::from_secs(5), // far beyond the test timeout
                ..FaultConfig::quiet(9)
            },
        );
        t.send_data(pkt(0, 1, 42), T);
        t.close();
        match t.recv_data(1, Duration::from_millis(50)) {
            RecvStatus::Msg(f) => assert_eq!(words(&f), vec![42]),
            other => panic!("delayed packet lost at close: {other:?}"),
        }
        assert!(matches!(t.recv_data(1, Duration::from_millis(5)), RecvStatus::Closed));
    }

    #[test]
    fn heartbeats_are_faulted_like_everything_else() {
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 16),
            FaultConfig { drop: 1.0, ..FaultConfig::quiet(17) },
        );
        for seq in 0..25 {
            t.send_heartbeat(Heartbeat { src: 0, dest: 1, seq });
        }
        assert_eq!(t.try_recv_heartbeat(1), None, "every beat dropped");
        assert_eq!(t.fault_stats().dropped_heartbeats, 25);
        // Loopback beats (a node observing itself) are never faulted.
        t.send_heartbeat(Heartbeat { src: 0, dest: 0, seq: 1 });
        assert_eq!(t.try_recv_heartbeat(0), Some(Heartbeat { src: 0, dest: 0, seq: 1 }));
    }

    #[test]
    fn corruption_is_deterministic_and_counted() {
        let run = |seed| {
            let t = UnreliableTransport::new(
                ChannelTransport::new(2, 1, 4096),
                FaultConfig::corrupting(seed, 0.2),
            );
            for i in 0..1000 {
                t.send_data(pkt(0, 1, i), T);
            }
            let s = t.fault_stats();
            (s.corrupted_data, s.truncated_data, s.garbage_data, s.misrouted_data)
        };
        let a = run(21);
        assert_eq!(a, run(21), "same seed, same corruption pattern");
        assert_ne!(a, run(22), "different seed, different pattern");
        let total = a.0 + a.1 + a.2 + a.3;
        assert!((200..600).contains(&total), "~35% of 1000 corrupted somehow, got {total}");
        assert!(a.0 > 0 && a.1 > 0 && a.2 > 0 && a.3 > 0, "every class fired: {a:?}");
    }

    #[test]
    fn corrupted_frames_fail_verification_at_the_receiver() {
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 4096),
            FaultConfig { corrupt: 1.0, ..FaultConfig::quiet(23) },
        );
        for i in 0..100 {
            assert_eq!(t.send_data(pkt(0, 1, i), T), SendStatus::Sent);
        }
        let mut bad = 0;
        while let RecvStatus::Msg(f) = t.recv_data(1, Duration::from_millis(10)) {
            assert!(f.open(WireIntegrity::Crc32c).is_err(), "flip went undetected");
            bad += 1;
        }
        assert_eq!(bad as u64, t.fault_stats().corrupted_data);
        assert_eq!(bad, 100, "every frame was delivered (mangled), none lost");
    }

    #[test]
    fn truncated_frames_classify_as_truncation() {
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 256),
            FaultConfig { truncate: 1.0, ..FaultConfig::quiet(29) },
        );
        for i in 0..50 {
            t.send_data(pkt(0, 1, i), T);
        }
        while let RecvStatus::Msg(f) = t.recv_data(1, Duration::from_millis(10)) {
            let err = f.open(WireIntegrity::Crc32c).unwrap_err();
            assert!(err.is_truncation(), "expected truncation, got {err}");
        }
        assert_eq!(t.fault_stats().truncated_data, 50);
    }

    #[test]
    fn garbage_frames_fail_magic() {
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 256),
            FaultConfig { garbage: 1.0, ..FaultConfig::quiet(31) },
        );
        for i in 0..50 {
            t.send_data(pkt(0, 1, i), T);
        }
        while let RecvStatus::Msg(f) = t.recv_data(1, Duration::from_millis(10)) {
            assert!(matches!(
                f.open(WireIntegrity::Crc32c),
                Err(FrameError::BadMagic { .. })
            ));
        }
        assert_eq!(t.fault_stats().garbage_data, 50);
    }

    #[test]
    fn misrouted_frames_arrive_intact_at_the_wrong_node() {
        let t = UnreliableTransport::new(
            ChannelTransport::new(3, 1, 256),
            FaultConfig { misroute: 1.0, ..FaultConfig::quiet(37) },
        );
        for i in 0..20 {
            t.send_data(pkt(0, 1, i), T);
        }
        assert!(
            matches!(t.recv_data(1, Duration::from_millis(10)), RecvStatus::TimedOut),
            "nothing reaches the intended node"
        );
        let mut strays = 0;
        for node in [0u32, 2] {
            while let RecvStatus::Msg(f) = t.recv_data(node, Duration::from_millis(10)) {
                // The frame verifies — misroutes corrupt routing, not
                // bytes — and its header still names the true dest.
                let p = f.open(WireIntegrity::Crc32c).expect("bytes intact");
                assert_eq!(p.dest, 1, "header names the intended destination");
                assert_ne!(f.dest, 1, "routing stamp was rewritten");
                strays += 1;
            }
        }
        assert_eq!(strays, 20);
        assert_eq!(t.fault_stats().misrouted_data, 20);
    }

    #[test]
    fn duplicates_are_pristine_even_when_the_original_is_corrupted() {
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 256),
            FaultConfig { duplicate: 1.0, corrupt: 1.0, ..FaultConfig::quiet(41) },
        );
        t.send_data(pkt(0, 1, 7), T);
        let (mut ok, mut bad) = (0, 0);
        while let RecvStatus::Msg(f) = t.recv_data(1, Duration::from_millis(10)) {
            match f.open(WireIntegrity::Crc32c) {
                Ok(p) => {
                    assert_eq!(p.words(), vec![7]);
                    ok += 1;
                }
                Err(_) => bad += 1,
            }
        }
        assert_eq!((ok, bad), (1, 1), "one clean duplicate, one mangled original");
    }

    #[test]
    fn partition_blocks_every_plane_then_heals() {
        use crate::partition::LinkFault;
        let t = UnreliableTransport::new(
            ChannelTransport::new(3, 1, 256),
            FaultConfig {
                link_faults: vec![LinkFault::Partition {
                    island: vec![0],
                    from: Duration::ZERO,
                    until: Duration::from_millis(80),
                }],
                ..FaultConfig::quiet(3)
            },
        );
        for i in 0..10 {
            assert_eq!(t.send_data(pkt(0, 1, i), T), SendStatus::Sent);
        }
        t.send_ack(Ack { src: 0, dest: 1, lane: 0, cum_seq: 1 }.seal(0, WireIntegrity::Crc32c));
        t.send_heartbeat(Heartbeat { src: 1, dest: 0, seq: 0 });
        // Links wholly inside one side still work.
        t.send_data(pkt(1, 2, 99), T);
        match t.recv_data(2, T) {
            RecvStatus::Msg(f) => assert_eq!(words(&f), vec![99]),
            other => panic!("{other:?}"),
        }
        assert!(matches!(t.recv_data(1, Duration::from_millis(5)), RecvStatus::TimedOut));
        assert_eq!(t.try_recv_ack(1, 0), None);
        assert_eq!(t.try_recv_heartbeat(0), None);
        // Injected-vs-observed: 12 frames were swallowed, all by the
        // partition, and the ledger says exactly that.
        let s = t.fault_stats();
        assert_eq!(s.partition_drops, 12);
        assert_eq!(s.total_losses(), 12);
        // Heal: the window expires and the same link carries traffic.
        std::thread::sleep(Duration::from_millis(90));
        t.send_data(pkt(0, 1, 7), T);
        match t.recv_data(1, T) {
            RecvStatus::Msg(f) => assert_eq!(words(&f), vec![7]),
            other => panic!("partition did not heal: {other:?}"),
        }
        assert_eq!(t.fault_stats().partition_drops, 12, "no drops after heal");
    }

    #[test]
    fn oneway_link_drop_is_asymmetric() {
        use crate::partition::LinkFault;
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 256),
            FaultConfig {
                link_faults: vec![LinkFault::OneWay {
                    src: 0,
                    dest: 1,
                    from: Duration::ZERO,
                    until: Duration::from_secs(60),
                }],
                ..FaultConfig::quiet(5)
            },
        );
        for i in 0..5 {
            t.send_data(pkt(0, 1, i), T);
            t.send_data(pkt(1, 0, 100 + i), T);
        }
        assert!(matches!(t.recv_data(1, Duration::from_millis(5)), RecvStatus::TimedOut));
        for i in 0..5 {
            match t.recv_data(0, T) {
                RecvStatus::Msg(f) => assert_eq!(words(&f), vec![100 + i]),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(t.fault_stats().oneway_drops, 5);
        assert_eq!(t.fault_stats().partition_drops, 0);
    }

    #[test]
    fn declarative_per_link_delay_applies_to_one_direction() {
        use crate::partition::LinkFault;
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 256),
            FaultConfig {
                link_faults: vec![LinkFault::Delay {
                    src: 0,
                    dest: 1,
                    base: Duration::from_millis(25),
                    jitter: Duration::from_millis(5),
                }],
                ..FaultConfig::quiet(9)
            },
        );
        let sent_at = Instant::now();
        for i in 0..10 {
            t.send_data(pkt(0, 1, i), T);
        }
        t.send_data(pkt(1, 0, 99), T);
        // Reverse direction is undelayed and arrives immediately.
        match t.recv_data(0, Duration::from_millis(200)) {
            RecvStatus::Msg(f) => assert_eq!(words(&f), vec![99]),
            other => panic!("{other:?}"),
        }
        // Nothing may surface before the base delay has elapsed.
        assert!(matches!(t.recv_data(1, Duration::from_millis(5)), RecvStatus::TimedOut));
        let mut got = 0;
        while let RecvStatus::Msg(f) = t.recv_data(1, Duration::from_millis(100)) {
            assert!(
                sent_at.elapsed() >= Duration::from_millis(25),
                "frame {:?} surfaced before its base delay",
                words(&f)
            );
            got += 1;
            if got == 10 {
                break;
            }
        }
        // Injected-vs-observed reconciliation: every frame was held
        // exactly once and every held frame was eventually delivered.
        assert_eq!(got, 10);
        let s = t.fault_stats();
        assert_eq!(s.delayed, 10);
        assert!(!s.is_clean() && s.total_losses() == 0);
    }

    #[test]
    fn a_frame_held_into_a_partition_dies_on_release() {
        use crate::partition::LinkFault;
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 256),
            FaultConfig {
                link_faults: vec![
                    LinkFault::Delay {
                        src: 0,
                        dest: 1,
                        base: Duration::from_millis(40),
                        jitter: Duration::ZERO,
                    },
                    LinkFault::Partition {
                        island: vec![0],
                        from: Duration::from_millis(10),
                        until: Duration::from_secs(60),
                    },
                ],
                ..FaultConfig::quiet(3)
            },
        );
        // Sent before the window opens, due after it has.
        t.send_data(pkt(0, 1, 5), T);
        assert!(matches!(t.recv_data(1, Duration::from_millis(100)), RecvStatus::TimedOut));
        let s = t.fault_stats();
        assert_eq!((s.delayed, s.partition_drops, s.total_losses()), (1, 1, 1));
        assert_eq!(t.data_depths(), vec![0, 0], "nothing is left held");
    }

    #[test]
    fn corrupted_acks_fail_verification() {
        let t = UnreliableTransport::new(
            ChannelTransport::new(2, 1, 16),
            FaultConfig { corrupt: 1.0, ..FaultConfig::quiet(43) },
        );
        for i in 0..20 {
            t.send_ack(Ack { src: 1, dest: 0, lane: 0, cum_seq: i }.seal(0, WireIntegrity::Crc32c));
        }
        let mut bad = 0;
        while let Some(f) = t.try_recv_ack(0, 0) {
            assert!(f.open(WireIntegrity::Crc32c).is_err());
            bad += 1;
        }
        assert_eq!(bad, 20);
        assert_eq!(t.fault_stats().corrupted_acks, 20);
        // Loopback acks are never touched.
        t.send_ack(Ack { src: 0, dest: 0, lane: 0, cum_seq: 9 }.seal(0, WireIntegrity::Crc32c));
        let f = t.try_recv_ack(0, 0).unwrap();
        assert_eq!(f.open(WireIntegrity::Crc32c).unwrap().0.cum_seq, 9);
    }
}

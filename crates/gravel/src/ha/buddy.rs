//! The buddy protocol, once: what a node sends its keeper for every
//! packet it applies ([`Ward`]), and what the keeper does with it
//! ([`Keeper`]).
//!
//! In the ring buddy topology node `i` forwards to node `(i+1) % n`
//! (its *keeper*), which makes node `i` that keeper's *ward*. The ward
//! side is a pure type, like [`HaMachine`](super::HaMachine): for each
//! applied packet it returns its [`Emit`]s in order and its caller
//! performs them — `gravel-node`'s forwarder on sockets, [`ha::sim`]
//! on its virtual links. The keeper is one [`RecoveryLog`] per ward,
//! filled in arrival order: a `CKPT` rebases it, a `FWD` appends to it,
//! and so does an elastic ward's `REFUSED`. Consistency comes from FIFO
//! order on one stream, not from locking across processes: applying a
//! ward's sends here in the order it made them reproduces exactly its
//! own cut points. `gravel-node` keeps its wards' logs in one, `ha::sim`
//! a keeper per slot, and the in-process runtime its own nodes' logs
//! ([`Keeper::tap`]).
//!
//! The order of one packet's sends (DESIGN.md §16) is what makes a kill
//! anywhere exact: what the elastic gate refused of the packet goes to
//! the keeper before the packet's forward, and back to its sender only
//! after, all before any cut — so a kill leaves either the packet to
//! re-gate or the refusal to re-send. A cut is taken every
//! `ckpt_every` applied packets and, whatever that says, before the
//! log the keeper holds could outgrow the one frame a recovery
//! response must fit in ([`Ward::applied`]).
//!
//! [`ha::sim`]: super::sim

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use gravel_net::MAX_FRAME_BYTES;
use gravel_pgas::{AmRegistry, Packet, ShardMap, SymmetricHeap, FRAME_OVERHEAD};

use super::checkpoint::{Baseline, LoggedPacket, RecoveryLog, ENTRY_HEAD_WORDS};
use crate::netthread::PacketTap;
use crate::reshard;

/// `gravel-node`'s default `--ckpt-every`: a cut every this many
/// applied packets.
pub const CKPT_EVERY: u64 = 16;

/// One send a ward makes for an applied packet, in the order
/// [`Ward::applied`] returns them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Emit {
    /// To the keeper: what the gate refused of the packet.
    Refused(LoggedPacket),
    /// To the keeper: the packet as it applied. The caller builds the
    /// forward from the packet itself (`gravel-node` seals it straight
    /// from the payload bytes).
    Forward,
    /// To the packet's sender: the refusal, with the current map.
    Bounce(LoggedPacket),
    /// To the keeper: a new baseline.
    Ckpt(Baseline),
}

/// How many bytes of log a keeper may hold on top of `baseline` before
/// the next cut. A restarting node gets baseline + log back in *one*
/// recovery frame, and a frame over [`MAX_FRAME_BYTES`] can never be
/// delivered — so the log is cut at half of what the baseline leaves
/// under the ceiling, and the packet that crosses the line still fits
/// in the other half.
fn log_budget(baseline: Option<&Baseline>) -> usize {
    // `[op, has_baseline]`, the baseline (epoch, the cursor, heap and
    // app counts and their words) and the log's entry count.
    let body = baseline.map_or(0, |b| 4 + 3 * b.cursors.len() + b.heap.len() + b.app.len());
    let fixed = FRAME_OVERHEAD + 8 * (3 + body);
    MAX_FRAME_BYTES.saturating_sub(fixed) / 2
}

/// A node's side of the buddy protocol: the keeper's view of its flow
/// cursors, its epoch and cut cadence, and the refusal the gate handed
/// over for the packet being applied. Call [`gate`](Self::gate) and
/// [`applied`](Self::applied) from the receive path (under the
/// receive-state lock, where the cursors they mirror move) and
/// [`cut`](Self::cut) with that lock held too.
pub struct Ward {
    /// Next-expected sequence per flow, mirroring the receive state (the
    /// ward sees every applied packet in order, so the mirror is exact).
    cursors: HashMap<(u32, u32), u64>,
    /// Cut every this many applied packets (0: only on the byte bound
    /// and explicit cuts).
    ckpt_every: u64,
    since_cut: u64,
    /// Bytes of log sent since the last cut, as a recovery frame
    /// encodes them, and the bound that forces a cut.
    log_bytes: usize,
    log_budget: usize,
    /// Monotonic epoch number (first cut = 1).
    epoch: u64,
    /// The gate's refusal of the packet being applied.
    refused: Option<LoggedPacket>,
}

impl Ward {
    pub fn new(ckpt_every: u64) -> Ward {
        Ward {
            cursors: HashMap::new(),
            ckpt_every,
            since_cut: 0,
            log_bytes: 0,
            log_budget: log_budget(None),
            epoch: 0,
            refused: None,
        }
    }

    /// Resume from a recovered log: its replayed cursors and its
    /// baseline's epoch.
    pub fn seed(&mut self, cursors: &[(u32, u32, u64)], epoch: u64) {
        self.cursors.extend(cursors.iter().map(|&(src, lane, next)| ((src, lane), next)));
        self.epoch = epoch;
    }

    /// The epoch of the last cut (0 before the first).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The elastic gate: [`reshard::gate`] node `me`'s copy of `pkt`
    /// against `map` and the `served` shards, keeping what it refused
    /// for the packet's sends. `None` applies the packet whole.
    pub fn gate(
        &mut self,
        me: u32,
        map: &ShardMap,
        served: impl Fn(u32) -> bool,
        pkt: &Packet,
    ) -> Option<Packet> {
        let (kept, quads) = reshard::gate(me, map, served, pkt)?;
        self.refused = Some(LoggedPacket::refused(pkt.src, pkt.lane, pkt.seq, &quads));
        Some(kept)
    }

    /// `pkt` applied: the refusal, the forward and the bounce, then a
    /// cut if one is due — of the heap and app words `image` returns.
    pub fn applied(
        &mut self,
        pkt: &Packet,
        image: impl FnOnce() -> (Vec<u64>, Vec<u64>),
    ) -> Vec<Emit> {
        let mut emits = Vec::with_capacity(2);
        let refusal = self.refused.take();
        if let Some(r) = &refusal {
            self.log_bytes += 8 * (1 + r.wire().len());
            emits.push(Emit::Refused(r.clone()));
        }
        // Whole words only, as the log replays them.
        self.log_bytes += 8 * (ENTRY_HEAD_WORDS - 1) + (pkt.payload.len() & !7);
        emits.push(Emit::Forward);
        self.cursors.insert((pkt.src, pkt.lane), pkt.seq + 1);
        emits.extend(refusal.map(Emit::Bounce));
        self.since_cut += 1;
        if (self.ckpt_every > 0 && self.since_cut >= self.ckpt_every)
            || self.log_bytes >= self.log_budget
        {
            let (heap, app) = image();
            emits.push(Emit::Ckpt(self.cut(heap, app)));
        }
        emits
    }

    /// Cut an epoch now: the baseline of `heap`, `app` and the cursor
    /// mirror, for the keeper.
    pub fn cut(&mut self, heap: Vec<u64>, app: Vec<u64>) -> Baseline {
        self.epoch += 1;
        self.since_cut = 0;
        let mut cursors: Vec<_> = self.cursors.iter().map(|(&(s, l), &e)| (s, l, e)).collect();
        cursors.sort_unstable();
        let b = Baseline { epoch: self.epoch, cursors, heap, app };
        self.log_bytes = 0;
        self.log_budget = log_budget(Some(&b));
        b
    }
}

/// Recovery logs held on behalf of wards, keyed by their node id.
#[derive(Default)]
pub struct Keeper {
    wards: Mutex<HashMap<u32, RecoveryLog>>,
}

impl Keeper {
    /// Append one forwarded packet to `ward`'s log.
    pub fn on_fwd(&self, ward: u32, pkt: LoggedPacket) {
        self.lock().entry(ward).or_default().packets.push(pkt);
    }

    /// Append one of `ward`'s gate refusals to its log.
    pub fn on_refused(&self, ward: u32, r: LoggedPacket) {
        self.lock().entry(ward).or_default().refused.push(r);
    }

    /// Rebase `ward`'s log on a new cut.
    pub fn on_ckpt(&self, ward: u32, baseline: Baseline) {
        self.lock().entry(ward).or_default().rebase(baseline);
    }

    /// `ward`'s log (empty if we never heard from it — a cold boot).
    pub fn recover(&self, ward: u32) -> RecoveryLog {
        self.lock().get(&ward).cloned().unwrap_or_default()
    }

    /// The epoch of `ward`'s baseline (0 without one).
    pub fn epoch(&self, ward: u32) -> u64 {
        let wards = self.lock();
        wards.get(&ward).and_then(|l| l.baseline.as_ref()).map_or(0, |b| b.epoch)
    }

    /// `ward`'s heap as of its last forwarded packet, to ship `shard`
    /// out of when its owner is dead (evicted, or killed mid-migration):
    /// the log replayed onto a heap of the baseline's size, `None`
    /// without a baseline. Forward-before-ack makes it exact. The stored
    /// baseline stops claiming `shard` ready, so a restarted ward
    /// re-pulls it rather than serve the words it died with.
    pub fn ship_ward(&self, ward: u32, shard: u32) -> Option<Vec<u64>> {
        let mut wards = self.lock();
        let log = wards.get_mut(&ward)?;
        let heap = SymmetricHeap::new(log.baseline.as_ref()?.heap.len());
        // A ward that ships shards registers no handlers, so none can run.
        log.replay(&heap, &AmRegistry::new()).ok()?;
        log.baseline.as_mut()?.app.retain(|&s| s != u64::from(shard));
        Some(heap.snapshot())
    }

    /// A [`PacketTap`] that logs every packet node `ward` applies here:
    /// the in-process runtime keeps its own nodes' logs this way.
    pub fn tap(self: &Arc<Self>, ward: u32) -> Arc<dyn PacketTap> {
        Arc::new(Logging { keeper: self.clone(), ward })
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u32, RecoveryLog>> {
        self.wards.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// [`Keeper::tap`]: a forward with no wire in between.
struct Logging {
    keeper: Arc<Keeper>,
    ward: u32,
}

impl PacketTap for Logging {
    fn on_packet_applied(&self, pkt: &Packet) {
        let words = &pkt.payload[..pkt.payload.len() & !7];
        self.keeper.on_fwd(self.ward, LoggedPacket::new(pkt.src, pkt.lane, pkt.seq, words));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_gq::Message;

    fn fwd(seq: u64) -> LoggedPacket {
        LoggedPacket::new(0, 0, seq, &[seq as u8; 32])
    }

    /// Packet `seq` of flow 1:0, carrying `words` opaque payload words.
    fn packet(seq: u64, words: usize) -> Packet {
        let bytes: Vec<u8> = (0..8 * words as u64).map(|b| b as u8).collect();
        let mut pkt = Packet::from_payload(1, 0, bytes.into());
        pkt.seq = seq;
        pkt
    }

    fn image() -> (Vec<u64>, Vec<u64>) {
        (vec![7; 4], vec![2])
    }

    /// A refused packet: its refusal to the keeper, its forward, then
    /// the bounce to its sender, and the cut only after all three.
    #[test]
    fn a_refused_packet_sends_refusal_forward_bounce_then_cuts() {
        let map = ShardMap::initial(&[0, 1], 4);
        let mut ward = Ward::new(2);
        let mine = Message::inc(0, 0, 1).encode(); // shard 0: node 0's
        let theirs = Message::inc(0, 1, 5).encode(); // shard 1: node 1's
        let mut pkt = Packet::from_words(1, 0, &[mine, theirs].concat());
        pkt.seq = 3;
        let kept = ward.gate(0, &map, |_| true, &pkt).expect("shard 1 is refused");
        assert_eq!(kept.seq, 3);
        let refusal = LoggedPacket::refused(1, 0, 3, &theirs);
        assert_eq!(
            ward.applied(&kept, image),
            [Emit::Refused(refusal.clone()), Emit::Forward, Emit::Bounce(refusal)]
        );
        let emits = ward.applied(&packet(4, 1), image);
        let cut = Baseline { epoch: 1, cursors: vec![(1, 0, 5)], heap: vec![7; 4], app: vec![2] };
        assert_eq!(emits, [Emit::Forward, Emit::Ckpt(cut)], "the cadence: every 2nd packet");
        assert!(ward.gate(0, &map, |_| true, &Packet::from_words(1, 0, &mine)).is_none());
        assert_eq!(ward.applied(&packet(5, 1), image), [Emit::Forward], "nothing refused");
    }

    /// With the packet cadence off, the byte bound alone cuts: before
    /// the log could outgrow half of what the baseline leaves under the
    /// frame ceiling, and again after each cut.
    #[test]
    fn the_byte_bound_cuts_with_the_cadence_off() {
        let mut ward = Ward::new(0);
        let words = 8 * 1024;
        let per_packet = 8 * (ENTRY_HEAD_WORDS - 1 + words);
        let budget = log_budget(None);
        let mut cuts = Vec::new();
        for seq in 0..(3 * budget / per_packet) as u64 {
            let emits = ward.applied(&packet(seq, words), || (vec![0; 1024], vec![]));
            if let Some(Emit::Ckpt(b)) = emits.last() {
                cuts.push((seq, b.epoch));
            }
        }
        let first = cuts.first().expect("the bound cut").0 as usize;
        assert_eq!(first, budget.div_ceil(per_packet) - 1, "cut at the packet that crosses it");
        assert!(cuts.len() >= 2, "{cuts:?}");
        assert_eq!(cuts.iter().map(|c| c.1).collect::<Vec<_>>(), (1..=cuts.len() as u64).collect::<Vec<_>>());
        let after = log_budget(Some(&Baseline { heap: vec![0; 1024], ..Baseline::default() }));
        assert!(after < budget && after > budget - 8 * 1100, "a baseline shrinks the bound");
    }

    #[test]
    fn a_seeded_ward_resumes_the_epoch_and_the_cursors() {
        let mut ward = Ward::new(0);
        ward.seed(&[(2, 0, 9)], 4);
        assert_eq!(ward.epoch(), 4);
        ward.applied(&packet(0, 1), image);
        let b = ward.cut(vec![], vec![]);
        assert_eq!((b.epoch, b.cursors), (5, vec![(1, 0, 1), (2, 0, 9)]));
    }

    #[test]
    fn ckpt_truncates_the_log_and_recover_returns_both() {
        let s = Keeper::default();
        assert_eq!(s.recover(3), RecoveryLog::default(), "cold boot is empty");
        s.on_fwd(3, fwd(0));
        s.on_fwd(3, fwd(1));
        let cut = Baseline { epoch: 1, cursors: vec![(0, 0, 2)], heap: vec![9], app: vec![] };
        s.on_ckpt(3, cut.clone());
        assert!(s.recover(3).packets.is_empty(), "cut clears the log");
        s.on_fwd(3, fwd(2));
        let r = s.recover(3);
        assert_eq!((r.baseline, s.epoch(3)), (Some(cut), 1));
        assert_eq!(r.packets, vec![fwd(2)]);
        // Wards are independent.
        assert_eq!((s.recover(1), s.epoch(1)), (RecoveryLog::default(), 0));
    }

    #[test]
    fn ship_ward_replays_the_log_onto_the_baseline() {
        let s = Keeper::default();
        assert_eq!(s.ship_ward(2, 0), None, "no baseline, nothing to take over");
        let heap = vec![10, 0, 0, 3];
        s.on_ckpt(2, Baseline { epoch: 1, cursors: vec![], heap, app: vec![0, 1] });
        let mut words = Vec::new();
        words.extend(Message::inc(2, 0, 5).encode());
        words.extend(Message::put(2, 2, 77).encode());
        words.extend(Message::inc(2, 3, 1).encode());
        words.extend([u64::MAX, 0, 0, 0]); // undecodable: skipped
        words.extend(Message::inc(2, 999, 1).encode()); // out of range: skipped
        let payload = Packet::from_words(1, 2, &words).payload.to_vec();
        s.on_fwd(2, LoggedPacket::new(1, 0, 0, &payload));
        assert_eq!(s.ship_ward(2, 0), Some(vec![15, 0, 77, 4]));
        assert_eq!(s.recover(2).baseline.unwrap().app, [1], "shard 0 is no longer ready");
    }
}

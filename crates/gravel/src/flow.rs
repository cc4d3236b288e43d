//! The sender half of the delivery protocol: one selective-repeat flow
//! per destination and band, over any [`Transport`].
//!
//! This is the **only** sender-side reliability implementation in the
//! tree. The aggregator lane runs it in-process, and `gravel-node` runs
//! it over sockets — the RPC lane through [`crate::aggregator::Lane`]
//! itself, the deterministic GUPS and elastic senders by submitting the
//! packets they build. Packets are stamped with `(wire lane, seq)`,
//! sealed exactly once and kept until the receiving network thread has
//! cumulatively acknowledged them; a retransmission is a refcounted
//! clone of the same sealed bytes.
//!
//! **Loss recovery is clocked by acks, not by a timer.** Every ack
//! carries, next to the cumulative point, a map of which of the next
//! [`ACK_MAP_BITS`] sequence numbers the receiver already holds
//! ([`crate::netthread`]). Each frame on the wire remembers when it was
//! last put there, on the flow's own clock: the sequence number of the
//! first *fresh* frame to follow it (its `fence`). A frame the map does
//! not report is declared lost the moment the map reports a frame at or
//! past its fence — something first transmitted after it has arrived,
//! so on an ordered link it would have too — and that one frame is
//! re-sent at once. A lost retransmission is caught the same way, by
//! the fresh frames that followed it. Only first transmissions count as
//! evidence: which copy of a re-sent frame the receiver holds cannot be
//! told, and taking it for the later one would condemn everything sent
//! in between.
//!
//! The scoreboard is the *latest* ack's map, never an accumulation, so
//! a receiver that lost its reorder buffer (a supervised restart
//! mid-drain, a process restart) is believed the next time it speaks.
//! Frames the map reports are delivered, not in flight, so they do not
//! count against the window: while a gap is being repaired fresh frames
//! keep leaving, one per reported arrival, and keep the ack clock — and
//! the evidence — running. What bounds them is the flow's *span*: at
//! most two windows of frames are ever past the cumulative point, so a
//! receiver parks less than two windows of any one flow, however long a
//! hole stays open.
//!
//! The retransmit timer survives as the backstop for what no later ack
//! can report: the tail of a burst, a dead peer. On expiry (exponential
//! backoff from `RetryConfig::backoff`) the flow re-sends the frames
//! the last map did not report, and nothing else. A flow that makes no
//! cumulative progress for `RetryConfig::max_retries` consecutive
//! expiries is reported as [`RuntimeError::RetryExhausted`].
//!
//! Each band ([`Band`]) of a lane is a flow of its own: its own
//! sequence space, window and retransmit timer, told apart on the wire
//! by the band bit of the lane number ([`gravel_pgas::wire_lane`]). An
//! express packet is therefore never sequenced behind the bulk packets
//! flushed before it, and the receiver never parks it in a reorder
//! buffer waiting for them.
//!
//! Backpressure: a send that cannot complete within its short timeout
//! parks the frame in the flow's staging queue and counts
//! `net.chan_stalls`; a full window counts `net.window_stalls`
//! (together `NetStats::backpressure_stalls`). Neither blocks the
//! caller, so a stalled link can never deadlock the reply path
//! (netthread → ring → aggregator → netthread).

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use gravel_gq::{Band, NUM_BANDS};
use gravel_net::{RetryConfig, SendStatus, Transport};
use gravel_pgas::{split_wire_lane, wire_lane, DataFrame, Packet, WireIntegrity, ACK_MAP_BITS};
use gravel_telemetry::{Counter, Gauge};

use crate::error::RuntimeError;
use crate::node::NodeShared;

/// How long one transport send attempt may block before the packet is
/// parked and the caller resumes servicing acks and its own input.
const SEND_ATTEMPT_TIMEOUT: Duration = Duration::from_micros(200);

/// In-flight window of one band's flows, derived from `retry.window`
/// (no separate knob): express flows may use all of it, bulk flows
/// half. The two bands share the receiver's network thread, so the bulk
/// share also bounds how much apply work can sit in the fabric ahead of
/// a request the moment it is sent.
fn band_window(band: Band, window: usize) -> usize {
    match band {
        Band::Express => window,
        Band::Bulk => (window / 2).max(1),
    }
}

/// Most frames a flow of in-flight window `window` keeps past the
/// cumulative point, held or not: two windows, so that with one window
/// parked behind a hole there is still a window of fresh frames to
/// carry the ack clock (and to expose a lost retransmission) — and no
/// more than an ack's map has bits for. It is also, less one, the most
/// a receiver's reorder buffer ever holds of the flow.
fn span_for(window: usize) -> usize {
    (2 * window).min(ACK_MAP_BITS)
}

/// The low `n` bits of an ack map.
fn low_bits(n: usize) -> u64 {
    match n {
        n if n >= ACK_MAP_BITS => u64::MAX,
        n => (1 << n) - 1,
    }
}

/// One frame on the wire, not yet cumulatively acknowledged.
struct InFlight {
    /// Sealed exactly once at stamp time; retransmissions are
    /// refcounted clones of the same frame bytes (no re-CRC).
    frame: DataFrame,
    /// When this frame was last put on the wire, on the flow's clock:
    /// the sequence number of the first fresh frame transmitted after
    /// it (its own plus one until it is re-sent). The receiver holding
    /// any frame from here on is proof this one had its chance.
    fence: u64,
    /// Since when this frame counts as missing: the ack that first
    /// showed it absent below a frame sent after it or, when only the
    /// timer caught it, the moment the flow last moved before that
    /// expiry — whether or not the fabric then took the copy
    /// (`net.loss_recovery_ns` runs from here to its cumulative ack).
    missing_since: Option<Instant>,
}

/// Sender-side state of one flow: one destination, one band.
pub struct Flow {
    band: Band,
    /// In-flight limit ([`band_window`]): frames on the wire that the
    /// receiver has not reported, cumulatively or in its map.
    window: usize,
    /// Next sequence number to stamp.
    next_seq: u64,
    /// Lowest unacknowledged sequence number.
    base: u64,
    /// One past the highest sequence number the peer has cumulatively
    /// acknowledged. Exceeds `next_seq` only for a restarted sender
    /// whose previous incarnation delivered further than this one has
    /// stamped yet (see [`Sender::pump`]).
    peer_next: u64,
    /// Flushed packets awaiting a sequence number.
    queued: VecDeque<Packet>,
    /// Stamped, sealed, but unsent frames (parked by backpressure).
    staged: VecDeque<DataFrame>,
    /// Sent frames not yet cumulatively acknowledged:
    /// `base .. base + unacked.len()`, never more than the flow's span
    /// ([`span_for`]), so each has a bit in every ack's map.
    unacked: VecDeque<InFlight>,
    /// The scoreboard: the latest ack's map. Bit `i` says the receiver
    /// holds `unacked[i]`. Replaced by every ack, never accumulated.
    held: u64,
    /// Last time this flow made ack progress or (re)transmitted.
    last_activity: Instant,
    /// Current retransmission backoff.
    backoff: Duration,
    /// Consecutive timer expiries without ack progress.
    retries: u32,
}

impl Flow {
    fn new(retry: &RetryConfig, band: Band) -> Self {
        let window = band_window(band, retry.window);
        Flow {
            band,
            window,
            next_seq: 0,
            base: 0,
            peer_next: 0,
            queued: VecDeque::new(),
            staged: VecDeque::new(),
            // Its bound, reserved up front: a burst deeper than any
            // before it must not grow it mid-run.
            unacked: VecDeque::with_capacity(span_for(window)),
            held: 0,
            last_activity: Instant::now(),
            backoff: retry.backoff,
            retries: 0,
        }
    }

    /// Nothing is waiting for window room or for the channel.
    fn has_room(&self) -> bool {
        self.staged.is_empty() && self.queued.is_empty()
    }

    fn is_drained(&self) -> bool {
        self.has_room() && self.unacked.is_empty()
    }

    /// Frames on the wire the receiver has not reported holding.
    fn in_flight(&self) -> usize {
        self.unacked.len() - self.held.count_ones() as usize
    }

    /// Sequence number of the next frame to go on the wire for the
    /// first time: the flow's clock ([`InFlight::fence`]).
    fn wire_next(&self) -> u64 {
        self.base + self.unacked.len() as u64
    }
}

/// Put `sent` on the wire again — the same sealed bytes. If the fabric
/// took it, restamp its fence with the flow's clock `wire_next` and
/// count it: once under its `cause` (`net.fast_retransmits` or
/// `net.rto_retransmits`) and once in `net.retransmits`, which
/// therefore stays their sum and counts only frames that went out.
fn resend(
    node: &NodeShared,
    transport: &dyn Transport,
    sent: &mut InFlight,
    wire_next: u64,
    cause: &Counter,
) -> SendStatus {
    let _span = node.tracer.span("agg.retransmit", "aggregate", node.id);
    let status = transport.send_data(sent.frame.clone(), SEND_ATTEMPT_TIMEOUT);
    if status == SendStatus::Sent {
        sent.fence = wire_next;
        cause.add(1);
        node.net_retransmits.add(1);
    }
    status
}

/// The sender of one aggregator lane. Borrows its flows from the caller
/// (an aggregator's `LaneState`, a node sender's stack) so sequence
/// numbers and unacked windows survive a worker restart.
pub struct Sender<'a> {
    node: &'a NodeShared,
    lane: u32,
    transport: &'a dyn Transport,
    retry: RetryConfig,
    /// `NUM_BANDS × nodes` flows, band-major in service order: every
    /// express flow sits (and is serviced) ahead of every bulk flow.
    flows: &'a mut Vec<Flow>,
    gauges: &'a FlowGauges,
}

/// The gauges every [`Sender`] of a node reports its flows through.
pub struct FlowGauges {
    /// `node{N}.agg.in_flight`: sent packets not yet cumulatively acked.
    in_flight: Gauge,
    /// `node{N}.agg.backlog_packets`: packets flushed but not yet on the
    /// wire — waiting for window room or for the channel.
    backlog: Gauge,
}

impl FlowGauges {
    pub fn of(node: &NodeShared) -> Self {
        let gauge = |name: &str| node.registry.gauge(&format!("node{}.agg.{name}", node.id));
        FlowGauges {
            in_flight: gauge("in_flight"),
            backlog: gauge("backlog_packets"),
        }
    }
}

impl<'a> Sender<'a> {
    /// A sender for `lane` over `flows`, which is (re)initialized to one
    /// fresh flow per band and destination unless it already has that
    /// shape.
    pub fn new(
        node: &'a NodeShared,
        lane: u32,
        transport: &'a dyn Transport,
        flows: &'a mut Vec<Flow>,
        gauges: &'a FlowGauges,
    ) -> Self {
        let retry = node.retry.clone();
        if flows.len() != NUM_BANDS * node.nodes {
            *flows = Band::ALL
                .iter()
                .flat_map(|&band| (0..node.nodes).map(move |_| band))
                .map(|band| Flow::new(&retry, band))
                .collect();
        }
        Sender {
            lane,
            transport,
            retry,
            flows,
            gauges,
            node,
        }
    }

    fn flow_index(&self, band: Band, dest: usize) -> usize {
        band.index() * self.node.nodes + dest
    }

    fn note_gauges(&self) {
        let (mut unacked, mut backlog) = (0, 0);
        for f in self.flows.iter() {
            unacked += f.unacked.len();
            backlog += f.queued.len() + f.staged.len();
        }
        self.gauges.in_flight.set(unacked as i64);
        self.gauges.backlog.set(backlog as i64);
    }

    /// Queue a packet on the flow of its destination and `band` — the
    /// band of the queue set that flushed it — and pump that flow. The
    /// flow stamps the band into the packet's wire lane, which is all
    /// that records it from here on.
    pub fn submit(&mut self, band: Band, pkt: Packet) {
        let idx = self.flow_index(band, pkt.dest as usize);
        self.flows[idx].queued.push_back(pkt);
        self.pump(idx);
    }

    /// Whether everything submitted towards `dest` has been stamped and
    /// put on the wire — nothing is waiting for window room or the
    /// channel. Callers that build packets on demand submit only while
    /// this holds, so the flow (not the caller) sets the pace and at
    /// most one packet ever queues ahead of the window.
    pub fn has_room(&self, dest: usize) -> bool {
        Band::ALL
            .iter()
            .all(|&band| self.flows[self.flow_index(band, dest)].has_room())
    }

    /// Move flow `idx`'s queued packets onto the wire while its window
    /// has room and the frames past the cumulative point fit its span:
    /// first re-try frames already stamped but parked by backpressure
    /// (they go out in stamp order, which is what keeps
    /// [`InFlight::fence`] a clock), then stamp fresh ones.
    fn pump(&mut self, idx: usize) {
        let epoch = self.node.wire_epoch.load(Ordering::Relaxed);
        let flow = &mut self.flows[idx];
        while flow.in_flight() < flow.window && flow.unacked.len() < span_for(flow.window) {
            if let Some(frame) = flow.staged.pop_front() {
                match self
                    .transport
                    .send_data(frame.clone(), SEND_ATTEMPT_TIMEOUT)
                {
                    SendStatus::Sent => {
                        flow.last_activity = Instant::now();
                        flow.unacked.push_back(InFlight {
                            frame,
                            fence: flow.wire_next() + 1,
                            missing_since: None,
                        });
                        continue;
                    }
                    SendStatus::TimedOut => {
                        flow.staged.push_front(frame);
                        self.node.net_chan_stalls.add(1);
                        self.note_gauges();
                        return;
                    }
                    SendStatus::Closed => return, // cluster is winding down
                }
            }
            let Some(mut pkt) = flow.queued.pop_front() else {
                self.note_gauges();
                return;
            };
            pkt.lane = wire_lane(self.lane, flow.band);
            pkt.seq = flow.next_seq;
            flow.next_seq += 1;
            if pkt.seq < flow.peer_next {
                // Restart catch-up. The peer already holds this
                // sequence number, so this sender is a new incarnation
                // restamping from 0 a stream its predecessor delivered
                // (the caller's packetization is deterministic — that
                // is what makes the restart exact). The ack that raised
                // `peer_next` also released every stamped frame, so the
                // packet retires without touching the wire.
                debug_assert!(flow.unacked.is_empty());
                flow.base += 1;
                self.node.net_fast_forwarded.add(1);
                continue;
            }
            let frame = pkt.seal_in(epoch, WireIntegrity::Crc32c, Some(&self.node.pool));
            flow.staged.push_back(frame);
        }
        if !flow.has_room() {
            // Window full: also a form of backpressure (the receiver or
            // the ack path is behind). On the express band it is what
            // `rpc.credits_stalled` has always meant: a request or
            // reply held back for want of in-flight credit.
            self.node.net_window_stalls.add(1);
            if flow.band == Band::Express {
                self.node.rpc_credits_stalled.add(1);
            }
        }
        self.note_gauges();
    }

    /// One full service round for callers with nothing else to
    /// piggyback it on (drain phases, the node senders' poll loops):
    /// acks in, lost frames and expired timers out, parked frames
    /// re-tried.
    pub fn service(&mut self) -> Result<(), RuntimeError> {
        self.drain_acks();
        self.poll_retransmits()?;
        for idx in 0..self.flows.len() {
            self.pump(idx);
        }
        Ok(())
    }

    /// Drain this lane's ack mailbox, verify each ack frame and act on
    /// it. Unverifiable acks are dropped (counted in
    /// `net.ack_corrupt_dropped`) — a lost ack just means the next one,
    /// which restates everything, or the timer covers it.
    pub fn drain_acks(&mut self) {
        while let Some(frame) = self.transport.try_recv_ack(self.node.id, self.lane) {
            let (ack, map) = match frame.open(WireIntegrity::Crc32c) {
                Ok(ack) => ack,
                Err(_) => {
                    self.node.net_ack_corrupt_dropped.add(1);
                    continue;
                }
            };
            // A verified header can still name a lane or peer this
            // sender does not have (a misdelivered ack, a CRC
            // collision): never index out of the flow table, or into
            // another lane's sequence space, on one.
            let (lane, band) = split_wire_lane(ack.lane);
            if lane != self.lane || ack.src as usize >= self.node.nodes {
                self.node.net_ack_corrupt_dropped.add(1);
                continue;
            }
            self.node.net_acks_received.add(1);
            self.on_ack(self.flow_index(band, ack.src as usize), ack.cum_seq, map);
        }
    }

    /// Release what an ack acknowledges cumulatively, take its map as
    /// the new scoreboard, re-send every frame the map proves lost, and
    /// let fresh frames into the room all that made.
    fn on_ack(&mut self, idx: usize, cum_seq: u64, map: u64) {
        let flow = &mut self.flows[idx];
        let next = cum_seq.wrapping_add(1);
        if next < flow.peer_next {
            return; // says less than an ack already acted on
        }
        flow.peer_next = next;
        let now = Instant::now();
        let in_flight_before = flow.in_flight();
        let mut progressed = false;
        // Stamp order == cumulative order: sent frames first, then —
        // only when a previous incarnation's delivery is being
        // acknowledged — frames stamped but still parked.
        while flow.base < flow.peer_next {
            if let Some(sent) = flow.unacked.pop_front() {
                if let Some(since) = sent.missing_since {
                    self.node
                        .net_loss_recovery
                        .record_duration(now.duration_since(since));
                }
            } else if flow.staged.pop_front().is_none() {
                break;
            }
            flow.base += 1;
            progressed = true;
        }
        // Bit 0 is the frame the receiver is waiting for, never held.
        flow.held = map & low_bits(flow.unacked.len()) & !1;
        if progressed {
            flow.last_activity = now;
            flow.backoff = self.retry.backoff;
            flow.retries = 0;
        }
        if flow.held != 0 {
            // Every gap below the highest held frame whose fence that
            // frame has reached is a loss.
            let top = flow.held.ilog2() as usize;
            let (delivered, wire_next) = (flow.base + top as u64, flow.wire_next());
            let mut gaps = !flow.held & low_bits(top);
            while gaps != 0 {
                let sent = &mut flow.unacked[gaps.trailing_zeros() as usize];
                gaps &= gaps - 1;
                if delivered < sent.fence {
                    continue;
                }
                sent.missing_since.get_or_insert(now);
                let cause = &self.node.net_fast_retransmits;
                match resend(self.node, self.transport, sent, wire_next, cause) {
                    SendStatus::Sent => flow.last_activity = now,
                    // The fence stands, so the next ack asks again.
                    SendStatus::TimedOut => {
                        self.node.net_chan_stalls.add(1);
                        break;
                    }
                    SendStatus::Closed => return,
                }
            }
        }
        if progressed || flow.in_flight() < in_flight_before {
            self.pump(idx);
        }
    }

    /// The backstop timer: a flow whose acks have stopped re-sends the
    /// frames the last map did not report — what no later ack can
    /// expose (the tail of a burst, everything towards a peer that
    /// lost its state). Returns an error when a flow exhausts its
    /// retries.
    pub fn poll_retransmits(&mut self) -> Result<(), RuntimeError> {
        let now = Instant::now();
        let nodes = self.node.nodes;
        for (idx, flow) in self.flows.iter_mut().enumerate() {
            if flow.unacked.is_empty() || now.duration_since(flow.last_activity) < flow.backoff {
                continue;
            }
            if flow.retries >= self.retry.max_retries {
                return Err(RuntimeError::RetryExhausted {
                    src: self.node.id,
                    dest: (idx % nodes) as u32,
                    lane: wire_lane(self.lane, flow.band),
                    seq: flow.base,
                    retries: flow.retries,
                });
            }
            flow.retries += 1;
            flow.backoff = (flow.backoff * 2).min(self.retry.backoff_max);
            // What only the timer catches has been missing for as long
            // as the flow has been still, not since this expiry.
            let stalled_since = flow.last_activity;
            flow.last_activity = now;
            let (held, wire_next) = (flow.held, flow.wire_next());
            let unreported = flow
                .unacked
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| held & (1 << i) == 0);
            for (_, sent) in unreported {
                sent.missing_since.get_or_insert(stalled_since);
                // Best-effort: a full channel means the receiver is
                // behind, not that more copies would help — the next
                // expiry tries again.
                let cause = &self.node.net_rto_retransmits;
                if resend(self.node, self.transport, sent, wire_next, cause) != SendStatus::Sent {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Are all flows fully acknowledged?
    pub fn is_drained(&self) -> bool {
        self.flows.iter().all(Flow::is_drained)
    }
}

/// The flow engine against a scripted wire and a model receiver, all on
/// the calling thread: every send is decided by the script and every
/// ack is the model's, so each recovery below is attributable to the
/// ack that caused it. Unless a test is about the timer, the timer is
/// an hour long — whatever recovers, recovers on the ack clock.
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap, HashSet};
    use std::sync::{Arc, Mutex};

    use gravel_gq::Message;
    use gravel_net::{Ack, AckFrame, RecvStatus};
    use gravel_pgas::AmRegistry;
    use proptest::prelude::*;

    use crate::config::GravelConfig;

    const HOUR: Duration = Duration::from_secs(3600);
    const CRC: WireIntegrity = WireIntegrity::Crc32c;
    /// Bulk window of the rig's flows (`retry.window` / 2).
    const WINDOW: u64 = 8;

    /// What the script does to one transmission.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fate {
        Drop,
        Dup,
        /// Arrives behind the next `n` transmissions.
        Hold(usize),
    }

    #[derive(Default)]
    struct WireState {
        /// Script: the fate of transmission `attempt` (0 = the first)
        /// of sequence number `seq`; absent = delivered in order.
        fates: HashMap<(u64, u32), Fate>,
        /// Script: ordinals of the acks that never arrive.
        lost_acks: HashSet<usize>,
        /// Script: the channel is full, every send times out.
        refuse: bool,
        /// Script: after this many transmissions in a row that brought
        /// the sender no ack, the next one and its ack get through
        /// whatever their fates. A fabric that silences a whole window
        /// stops the ack clock, and restarting it is the timer's job.
        mercy_after: Option<usize>,
        silent_run: usize,
        /// Transmissions the script actually dropped or held back.
        harmed: u64,
        // The model receiver.
        expected: u64,
        parked: BTreeSet<u64>,
        applied: Vec<u64>,
        dups: u64,
        // The fabric.
        held_back: Vec<(usize, u64)>,
        acks: VecDeque<AckFrame>,
        acks_made: usize,
        /// Every transmission accepted, as `(seq, attempt)`.
        sent: Vec<(u64, u32)>,
        /// Where each sequence number's sealed bytes live.
        sealed_at: HashMap<u64, usize>,
    }

    impl WireState {
        fn merciful(&self) -> bool {
            self.mercy_after.is_some_and(|run| self.silent_run >= run)
        }

        fn attempts(&self, seq: u64) -> u32 {
            self.sent.iter().filter(|s| s.0 == seq).count() as u32
        }

        /// The model: exactly-once, in-order, park what is early, and
        /// answer everything with the whole receive state.
        fn receive(&mut self, seq: u64) {
            if seq < self.expected || self.parked.contains(&seq) {
                self.dups += 1;
            } else if seq > self.expected {
                self.parked.insert(seq);
            } else {
                self.applied.push(seq);
                self.expected += 1;
                while self.parked.remove(&self.expected) {
                    self.applied.push(self.expected);
                    self.expected += 1;
                }
            }
            let held = self
                .parked
                .iter()
                .map(|s| s - self.expected)
                .filter(|&off| off < ACK_MAP_BITS as u64)
                .fold(0, |map, off| map | 1 << off);
            let ordinal = self.acks_made;
            self.acks_made += 1;
            if !self.lost_acks.contains(&ordinal) || self.merciful() {
                let ack = Ack {
                    src: 1,
                    dest: 0,
                    lane: 0,
                    cum_seq: self.expected.wrapping_sub(1),
                };
                self.acks.push_back(ack.seal_holding(held, 0, CRC));
            }
        }
    }

    #[derive(Default)]
    struct ScriptedWire(Mutex<WireState>);

    impl ScriptedWire {
        fn with(fates: &[((u64, u32), Fate)]) -> Self {
            let wire = ScriptedWire::default();
            wire.state().fates = fates.iter().copied().collect();
            wire
        }

        fn state(&self) -> std::sync::MutexGuard<'_, WireState> {
            self.0.lock().unwrap()
        }

        /// Frames the script is still holding back arrive now.
        fn release_held(&self) {
            let mut w = self.state();
            for (_, seq) in std::mem::take(&mut w.held_back) {
                w.receive(seq);
            }
        }
    }

    impl Transport for ScriptedWire {
        fn nodes(&self) -> usize {
            2
        }
        fn lanes(&self) -> usize {
            1
        }
        fn send_data(&self, frame: DataFrame, _timeout: Duration) -> SendStatus {
            let mut w = self.state();
            if w.refuse {
                return SendStatus::TimedOut;
            }
            let seq = frame
                .open(CRC)
                .expect("a retransmission is the sealed frame")
                .seq;
            let at = frame.bytes.as_ptr() as usize;
            assert_eq!(
                *w.sealed_at.entry(seq).or_insert(at),
                at,
                "seq {seq} was sealed twice"
            );
            let attempt = w.attempts(seq);
            w.sent.push((seq, attempt));
            let mut due = Vec::new();
            w.held_back.retain_mut(|(left, seq)| {
                *left -= 1;
                if *left == 0 {
                    due.push(*seq);
                }
                *left > 0
            });
            let acks_before = w.acks.len();
            match w
                .fates
                .get(&(seq, attempt))
                .copied()
                .filter(|_| !w.merciful())
            {
                Some(Fate::Drop) => w.harmed += 1,
                Some(Fate::Dup) => {
                    w.receive(seq);
                    w.receive(seq);
                }
                Some(Fate::Hold(n)) => {
                    w.harmed += 1;
                    w.held_back.push((n, seq));
                }
                None => w.receive(seq),
            }
            for seq in due {
                w.receive(seq);
            }
            w.silent_run = if w.acks.len() > acks_before {
                0
            } else {
                w.silent_run + 1
            };
            SendStatus::Sent
        }
        fn recv_data(&self, _node: u32, _timeout: Duration) -> RecvStatus<DataFrame> {
            RecvStatus::TimedOut
        }
        fn send_ack(&self, _ack: AckFrame) {}
        fn try_recv_ack(&self, _node: u32, _lane: u32) -> Option<AckFrame> {
            self.state().acks.pop_front()
        }
        fn close(&self) {}
        fn is_closed(&self) -> bool {
            false
        }
        fn data_depths(&self) -> Vec<usize> {
            vec![0; 2]
        }
        fn ack_depths(&self, _node: u32) -> usize {
            self.state().acks.len()
        }
    }

    /// Node 0 of two, bulk window [`WINDOW`], with the given timer.
    fn node(backoff: Duration, max_retries: u32) -> NodeShared {
        let mut cfg = GravelConfig::small(2, 16);
        cfg.retry = RetryConfig {
            window: 2 * WINDOW as usize,
            backoff,
            backoff_max: backoff,
            max_retries,
        };
        cfg.validate();
        NodeShared::new(0, &cfg, Arc::new(AmRegistry::new()))
    }

    fn packet(i: u64) -> Packet {
        Packet::from_words(0, 1, &Message::inc(1, i % 16, 1).encode())
    }

    /// Run the ack clock until the flows drain or it stops ticking
    /// (nothing in the mailbox, nothing held back by the script).
    fn settle(sender: &mut Sender<'_>, wire: &ScriptedWire) -> bool {
        loop {
            sender.service().expect("no flow may die here");
            if sender.is_drained() {
                return true;
            }
            if wire.state().acks.is_empty() {
                wire.release_held();
                if wire.state().acks.is_empty() {
                    return false;
                }
            }
        }
    }

    /// Submit `n` packets, an ack round after each (the pace of a lane
    /// that drains its mailbox every iteration), then settle.
    fn stream(sender: &mut Sender<'_>, wire: &ScriptedWire, n: u64) -> bool {
        for i in 0..n {
            sender.submit(Band::Bulk, packet(i));
            sender.drain_acks();
        }
        settle(sender, wire)
    }

    /// Exactly-once, in-order delivery of `n` packets, and the ledger.
    fn assert_delivered(node: &NodeShared, wire: &ScriptedWire, n: u64) {
        let w = wire.state();
        assert_eq!(
            w.applied,
            (0..n).collect::<Vec<_>>(),
            "exactly once, in order"
        );
        let (fast, rto) = (
            node.net_fast_retransmits.get(),
            node.net_rto_retransmits.get(),
        );
        assert_eq!(node.net_retransmits.get(), fast + rto, "retransmit ledger");
        assert_eq!(
            w.sent.len() as u64,
            n + fast + rto,
            "every frame on the wire is counted"
        );
    }

    macro_rules! rig {
        ($node:ident, $wire:ident, $sender:ident, $backoff:expr, $fates:expr) => {
            let $node = node($backoff, 20);
            let $wire = ScriptedWire::with($fates);
            let gauges = FlowGauges::of(&$node);
            let mut flows = Vec::new();
            #[allow(unused_mut)]
            let mut $sender = Sender::new(&$node, 0, &$wire, &mut flows, &gauges);
        };
    }

    #[test]
    fn a_single_loss_is_repaired_by_the_next_ack() {
        rig!(node, wire, sender, HOUR, &[((3, 0), Fate::Drop)]);
        assert!(stream(&mut sender, &wire, 10));
        assert_delivered(&node, &wire, 10);
        assert_eq!(
            (
                node.net_fast_retransmits.get(),
                node.net_rto_retransmits.get()
            ),
            (1, 0)
        );
        // Packet 4's ack exposed the gap; the copy went out before 5.
        assert_eq!(wire.state().sent[4..7], [(4, 0), (3, 1), (5, 0)]);
        assert_eq!(wire.state().dups, 0, "nothing else was re-sent");
        assert_eq!(node.net_loss_recovery.count(), 1);
    }

    #[test]
    fn two_holes_in_one_window_cost_two_frames() {
        rig!(
            node,
            wire,
            sender,
            HOUR,
            &[((2, 0), Fate::Drop), ((5, 0), Fate::Drop)]
        );
        assert!(stream(&mut sender, &wire, 12));
        assert_delivered(&node, &wire, 12);
        assert_eq!(
            (
                node.net_fast_retransmits.get(),
                node.net_rto_retransmits.get()
            ),
            (2, 0)
        );
        assert_eq!(wire.state().dups, 0);
    }

    /// Both holes are open at once, in a window sent before any ack
    /// came back: one ack's map names them both.
    #[test]
    fn one_ack_can_expose_several_holes() {
        rig!(
            node,
            wire,
            sender,
            HOUR,
            &[((1, 0), Fate::Drop), ((3, 0), Fate::Drop)]
        );
        for i in 0..6 {
            sender.submit(Band::Bulk, packet(i));
        }
        assert!(settle(&mut sender, &wire));
        assert_delivered(&node, &wire, 6);
        assert_eq!(node.net_fast_retransmits.get(), 2);
        assert_eq!(wire.state().dups, 0);
    }

    #[test]
    fn a_lost_retransmission_is_caught_by_the_fresh_frames_behind_it() {
        let twice = [((3, 0), Fate::Drop), ((3, 1), Fate::Drop)];
        rig!(node, wire, sender, HOUR, &twice);
        assert!(stream(&mut sender, &wire, 10));
        assert_delivered(&node, &wire, 10);
        assert_eq!(
            (
                node.net_fast_retransmits.get(),
                node.net_rto_retransmits.get()
            ),
            (2, 0)
        );
        // The first copy left behind packet 4, so packet 5 arriving
        // condemned it; nothing sent before it did.
        assert_eq!(wire.state().sent[4..8], [(4, 0), (3, 1), (5, 0), (3, 2)]);
    }

    /// The same with the window already full when the loss shows: the
    /// frames the map reports are not in flight, so fresh ones keep
    /// leaving, and they are what exposes the lost copy.
    #[test]
    fn a_lost_retransmission_is_caught_with_the_window_full() {
        let twice = [((0, 0), Fate::Drop), ((0, 1), Fate::Drop)];
        rig!(node, wire, sender, HOUR, &twice);
        let n = 2 * WINDOW + 4;
        for i in 0..n {
            sender.submit(Band::Bulk, packet(i));
        }
        assert_eq!(
            wire.state().sent.len() as u64,
            WINDOW,
            "one window, then stalled"
        );
        assert!(settle(&mut sender, &wire));
        assert_delivered(&node, &wire, n);
        assert_eq!(
            (
                node.net_fast_retransmits.get(),
                node.net_rto_retransmits.get()
            ),
            (2, 0)
        );
        assert!(node.net_window_stalls.get() > 0);
    }

    #[test]
    fn lost_acks_alone_cause_no_retransmission() {
        rig!(node, wire, sender, HOUR, &[]);
        wire.state().lost_acks = [0, 1, 2, 4, 5, 7].into_iter().collect();
        assert!(stream(&mut sender, &wire, 10));
        assert_delivered(&node, &wire, 10);
        assert_eq!(node.net_retransmits.get(), 0);
        assert_eq!(node.net_acks_received.get(), 4);
    }

    #[test]
    fn reordering_without_loss_costs_at_most_one_copy_per_late_frame() {
        let late = [((2, 0), Fate::Hold(2)), ((6, 0), Fate::Hold(1))];
        rig!(node, wire, sender, HOUR, &late);
        assert!(stream(&mut sender, &wire, 10));
        assert_delivered(&node, &wire, 10);
        let spurious = node.net_fast_retransmits.get();
        assert!(
            (1..=2).contains(&spurious),
            "{spurious} copies for 2 late frames"
        );
        assert_eq!(
            wire.state().dups,
            spurious,
            "each one was suppressed as a duplicate"
        );
        assert_eq!(node.net_rto_retransmits.get(), 0);
    }

    #[test]
    fn a_duplicated_frame_changes_nothing() {
        rig!(node, wire, sender, HOUR, &[((4, 0), Fate::Dup)]);
        assert!(stream(&mut sender, &wire, 8));
        assert_delivered(&node, &wire, 8);
        assert_eq!((node.net_retransmits.get(), wire.state().dups), (0, 1));
    }

    /// Nothing follows the last frame, so no ack can expose its loss:
    /// that is what the timer is still for, and it re-sends that frame
    /// only.
    #[test]
    fn tail_loss_waits_for_the_timer_which_sends_only_what_is_unreported() {
        let tail = [((2, 0), Fate::Drop), ((5, 0), Fate::Drop)];
        rig!(node, wire, sender, Duration::from_millis(2), &tail);
        assert!(
            !stream(&mut sender, &wire, 6),
            "the ack clock alone cannot finish this"
        );
        assert_eq!(
            (
                node.net_fast_retransmits.get(),
                node.net_rto_retransmits.get()
            ),
            (1, 0)
        );
        assert!(crate::backoff::wait_for(Duration::from_secs(30), || {
            sender.service().unwrap();
            sender.is_drained()
        }));
        assert_delivered(&node, &wire, 6);
        assert_eq!(
            (
                node.net_fast_retransmits.get(),
                node.net_rto_retransmits.get()
            ),
            (1, 1)
        );
        assert_eq!(wire.state().sent.last(), Some(&(5, 1)));
        let recovery = node.net_loss_recovery.snapshot();
        assert_eq!(recovery.count, 2, "the timer's repair is timed too");
        assert!(
            recovery.max >= 2_000_000,
            "and its wait for the timer is part of it: {} ns",
            recovery.max
        );
    }

    /// Frames 3 and 4 are parked behind a hole whose first repair is
    /// lost too, and no fresh frame follows: the expiry re-sends the
    /// hole, not the two frames the last map reported.
    #[test]
    fn an_expiry_does_not_resend_what_the_last_map_reported() {
        let hole = [((2, 0), Fate::Drop), ((2, 1), Fate::Drop)];
        rig!(node, wire, sender, Duration::from_millis(2), &hole);
        for i in 0..5 {
            sender.submit(Band::Bulk, packet(i));
        }
        assert!(
            !settle(&mut sender, &wire),
            "nothing sent after the repair can report it"
        );
        assert!(crate::backoff::wait_for(Duration::from_secs(30), || {
            sender.service().unwrap();
            sender.is_drained()
        }));
        assert_delivered(&node, &wire, 5);
        assert_eq!(
            (
                node.net_fast_retransmits.get(),
                node.net_rto_retransmits.get()
            ),
            (1, 1)
        );
        assert_eq!(wire.state().dups, 0);
    }

    /// The receiver loses its reorder buffer (a supervised restart
    /// mid-drain) after acking it. The sender believes the next ack,
    /// not its memory of earlier ones: the frames are unreported again
    /// and the timer re-sends exactly those.
    #[test]
    fn a_receiver_that_lost_its_reorder_buffer_is_healed_by_its_next_ack() {
        rig!(
            node,
            wire,
            sender,
            Duration::from_millis(2),
            &[((1, 0), Fate::Drop)]
        );
        for i in 0..6 {
            sender.submit(Band::Bulk, packet(i));
        }
        assert_eq!(wire.state().parked.len(), 4);
        wire.state().parked.clear();
        // The acks in the mailbox still report 2..=5: packet 1 is
        // re-sent on their word, and its ack reports nothing parked.
        sender.drain_acks();
        assert_eq!(wire.state().applied, [0, 1]);
        assert_eq!(node.net_fast_retransmits.get(), 1);
        assert!(!settle(&mut sender, &wire), "no ack can say more");
        assert!(crate::backoff::wait_for(Duration::from_secs(30), || {
            sender.service().unwrap();
            sender.is_drained()
        }));
        assert_delivered(&node, &wire, 6);
        assert_eq!(node.net_rto_retransmits.get(), 4, "2..=5, once each");
        assert_eq!(wire.state().dups, 0);
        assert_eq!(node.net_loss_recovery.count(), 5, "every repaired frame");
    }

    /// PR 12's restart catch-up: a fresh incarnation restamps from 0 a
    /// stream the peer already holds 40 packets of. One window probes,
    /// the cumulative ack retires the rest unsent.
    #[test]
    fn a_restarted_sender_still_fast_forwards_by_cumulative_ack() {
        rig!(node, wire, sender, HOUR, &[]);
        wire.state().expected = 40;
        assert!(stream(&mut sender, &wire, 45));
        let w = wire.state();
        assert_eq!(w.applied, [40, 41, 42, 43, 44]);
        assert_eq!(w.dups, 1, "the probe");
        assert_eq!(node.net_fast_forwarded.get(), 39);
        assert_eq!(node.net_retransmits.get(), 0);
    }

    #[test]
    fn a_silent_peer_exhausts_the_retry_budget() {
        let node = node(Duration::from_micros(200), 3);
        let wire = ScriptedWire::default();
        wire.state().lost_acks = (0..1000).collect();
        let gauges = FlowGauges::of(&node);
        let mut flows = Vec::new();
        let mut sender = Sender::new(&node, 0, &wire, &mut flows, &gauges);
        sender.submit(Band::Bulk, packet(0));
        sender.submit(Band::Bulk, packet(1));
        let mut died = None;
        assert!(crate::backoff::wait_for(Duration::from_secs(30), || {
            died = sender.service().err();
            died.is_some()
        }));
        match died {
            Some(RuntimeError::RetryExhausted {
                src: 0,
                dest: 1,
                lane: 0,
                seq: 0,
                retries: 3,
            }) => {}
            other => panic!("expected RetryExhausted, got {other:?}"),
        }
        assert_eq!(
            node.net_rto_retransmits.get(),
            6,
            "three expiries, two frames each"
        );
        assert_eq!(node.net_retransmits.get(), 6);
    }

    /// `net.retransmits` counts frames that went on the wire. An expiry
    /// into a full channel sends nothing and counts nothing.
    #[test]
    fn a_refused_retransmission_is_not_counted() {
        rig!(node, wire, sender, Duration::from_micros(200), &[]);
        wire.state().lost_acks = (0..1000).collect();
        sender.submit(Band::Bulk, packet(0));
        wire.state().refuse = true;
        let expiries = |s: &Sender<'_>| s.flows[s.flow_index(Band::Bulk, 1)].retries;
        assert!(crate::backoff::wait_for(Duration::from_secs(30), || {
            sender.service().unwrap();
            expiries(&sender) >= 2
        }));
        assert_eq!(node.net_retransmits.get(), 0);
        assert_eq!(wire.state().sent.len(), 1);
    }

    /// `net.loss_recovery_ns` runs from the ack that exposed the hole,
    /// not from the first copy the fabric accepted: here the channel
    /// refuses that copy, and the clock is already running.
    #[test]
    fn a_refused_repair_is_timed_from_the_ack_that_exposed_the_hole() {
        rig!(node, wire, sender, HOUR, &[((1, 0), Fate::Drop)]);
        for i in 0..4 {
            sender.submit(Band::Bulk, packet(i));
        }
        // Packet 0's ack waits, then packet 2's and packet 3's, both
        // naming the gap. The first of those is read into a full channel.
        let mut later = wire.state().acks.split_off(2);
        wire.state().refuse = true;
        sender.drain_acks();
        assert_eq!(node.net_retransmits.get(), 0, "refused");
        let hole = &sender.flows[sender.flow_index(Band::Bulk, 1)].unacked[0];
        let exposed = hole.missing_since.expect("timed from the ack, not the copy");
        let refused_for = exposed.elapsed();
        wire.state().refuse = false;
        wire.state().acks.append(&mut later);
        assert!(settle(&mut sender, &wire));
        assert_delivered(&node, &wire, 4);
        assert_eq!(node.net_fast_retransmits.get(), 1);
        let recovery = node.net_loss_recovery.snapshot();
        assert_eq!(recovery.count, 1);
        assert!(recovery.max >= refused_for.as_nanos() as u64);
    }

    /// The span, not the map, bounds what a flow keeps past the
    /// cumulative point: with a hole that never heals, two windows go
    /// out and the receiver parks one frame less.
    #[test]
    fn an_open_hole_parks_less_than_two_windows_at_the_receiver() {
        let never: Vec<_> = (0..50).map(|a| ((0, a), Fate::Drop)).collect();
        rig!(node, wire, sender, HOUR, &never);
        for i in 0..4 * WINDOW {
            sender.submit(Band::Bulk, packet(i));
            sender.drain_acks();
        }
        assert!(!settle(&mut sender, &wire), "the hole is still open");
        let w = wire.state();
        assert_eq!(w.parked.len() as u64, 2 * WINDOW - 1);
        assert_eq!(w.sealed_at.len() as u64, 2 * WINDOW, "nothing past the span");
    }

    #[test]
    fn the_backlog_gauge_counts_what_waits_for_the_window() {
        rig!(node, wire, sender, HOUR, &[]);
        wire.state().lost_acks = (0..1000).collect();
        for i in 0..WINDOW + 3 {
            sender.submit(Band::Bulk, packet(i));
        }
        let snap = node.registry.snapshot();
        assert_eq!(snap.gauge("node0.agg.in_flight"), WINDOW as i64);
        assert_eq!(snap.gauge("node0.agg.backlog_packets"), 3);
    }

    /// A seeded fault schedule over the first `n` sequence numbers:
    /// each transmission is dropped, duplicated or held back with the
    /// given odds (`permille` / 1000), up to attempt 2 (the third copy
    /// always arrives).
    fn schedule(seed: u64, n: u64, permille: u32) -> Vec<((u64, u32), Fate)> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let p = f64::from(permille) / 1000.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fates = Vec::new();
        for seq in 0..n {
            for attempt in 0..2 {
                let roll: f64 = rng.gen();
                if roll < p {
                    fates.push(((seq, attempt), Fate::Drop));
                } else if roll < 1.5 * p {
                    fates.push(((seq, attempt), Fate::Hold(rng.gen_range(1..4))));
                } else if roll < 2.0 * p {
                    fates.push(((seq, attempt), Fate::Dup));
                }
            }
        }
        fates
    }

    /// Cases per property: CI's `release-oracles` job runs these in
    /// `--release`.
    const CASES: u32 = if cfg!(debug_assertions) { 256 } else { 4096 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// Random drops, duplicates, reordering and ack loss over a
        /// stream followed by a clean tail, timer an hour long: the ack
        /// clock alone delivers everything exactly once and in order,
        /// and puts no more on the wire than one copy per frame the
        /// fabric lost or delayed.
        #[test]
        fn any_fault_schedule_is_repaired_on_the_ack_clock(
            seed in any::<u64>(),
            n in 1u64..80,
            permille in 0u32..300,
            ack_loss in prop::collection::vec(0usize..120, 0..40),
        ) {
            let fates = schedule(seed, n, permille);
            rig!(node, wire, sender, HOUR, &fates);
            wire.state().lost_acks = ack_loss.into_iter().collect();
            wire.state().mercy_after = Some(WINDOW as usize / 2);
            // The tail outlasts any ack the script may lose and every
            // copy it may drop; nothing in it is faulted.
            let total = n + 130;
            prop_assert!(stream(&mut sender, &wire, total));
            let w = wire.state();
            prop_assert_eq!(&w.applied, &(0..total).collect::<Vec<_>>());
            let (fast, rto) = (node.net_fast_retransmits.get(), node.net_rto_retransmits.get());
            prop_assert_eq!(rto, 0);
            prop_assert_eq!(node.net_retransmits.get(), fast);
            prop_assert_eq!(w.sent.len() as u64, total + fast);
            prop_assert!(fast <= w.harmed, "{} copies for {} lost or late frames", fast, w.harmed);
        }

        /// The same schedules with faults right up to the last frame
        /// and a live timer: still exactly once and in order, the
        /// ledger still balances, and the ack-triggered share still
        /// owes one lost or late frame each.
        #[test]
        fn any_fault_schedule_is_repaired_with_the_timer_as_backstop(
            seed in any::<u64>(),
            n in 1u64..60,
            permille in 0u32..300,
        ) {
            let fates = schedule(seed, n, permille);
            rig!(node, wire, sender, Duration::from_micros(300), &fates);
            let _ = stream(&mut sender, &wire, n);
            prop_assert!(crate::backoff::wait_for(Duration::from_secs(60), || {
                wire.release_held();
                sender.service().unwrap();
                sender.is_drained()
            }));
            let w = wire.state();
            prop_assert_eq!(&w.applied, &(0..n).collect::<Vec<_>>());
            let (fast, rto) = (node.net_fast_retransmits.get(), node.net_rto_retransmits.get());
            prop_assert_eq!(node.net_retransmits.get(), fast + rto);
            prop_assert_eq!(w.sent.len() as u64, n + fast + rto);
            prop_assert!(fast <= w.harmed, "{} copies for {} lost or late frames", fast, w.harmed);
        }
    }
}

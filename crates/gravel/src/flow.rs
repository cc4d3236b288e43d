//! The sender half of the delivery protocol: go-back-N per destination
//! flow with QoS band credits, over any [`Transport`].
//!
//! This is the **only** sender-side reliability implementation in the
//! tree. The aggregator lanes run it in-process, and `gravel-node` runs
//! it over sockets — the RPC lane through [`crate::aggregator::run`]
//! itself, the deterministic GUPS and elastic senders by submitting the
//! packets they build. Packets are stamped with `(lane, seq)`, sealed
//! exactly once, kept until cumulatively acked by the receiving network
//! thread, and re-sent with exponential backoff when acks stop
//! arriving. A flow that makes no progress for
//! `RetryConfig::max_retries` consecutive rounds is reported as
//! [`RuntimeError::RetryExhausted`].
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

use gravel_gq::{Band, TrafficClass, NUM_CLASSES};
use gravel_net::{RetryConfig, SendStatus, Transport};
use gravel_pgas::{DataFrame, Packet};
use gravel_telemetry::Gauge;

use crate::error::RuntimeError;
use crate::node::NodeShared;

/// How long one transport send attempt may block before the packet is
/// parked and the caller resumes servicing acks and its own input.
const SEND_ATTEMPT_TIMEOUT: Duration = Duration::from_micros(200);

/// In-flight packet budget of one QoS band, derived from the go-back-N
/// window (no separate knob): the LATENCY band may fill the whole
/// window, NORMAL three quarters, BULK half. A bulk stream therefore
/// can never occupy the window so completely that a GET or reply has to
/// queue behind it — the credit head-room *is* the priority mechanism
/// (SNIPPETS.md Snippet 3's credit-gated sends). The cap is static on
/// purpose: a work-conserving variant (full window while no
/// higher-band traffic is active) was measured to cost nothing on pure
/// GUPS but to erase most of the GET-latency advantage — request
/// traffic is intermittent, so by the time a reply is queued the
/// window is already stuffed with bulk frames it must drain behind.
fn band_credit(band: Band, window: usize) -> usize {
    match band {
        Band::Latency => window,
        Band::Normal => (window * 3 / 4).max(1),
        Band::Bulk => (window / 2).max(1),
    }
}

/// Sender-side state of one destination flow (go-back-N + QoS bands).
pub struct Flow {
    /// Next sequence number to stamp.
    next_seq: u64,
    /// Lowest unacknowledged sequence number.
    base: u64,
    /// One past the highest sequence number the peer has cumulatively
    /// acknowledged. Exceeds `next_seq` only for a restarted sender
    /// whose previous incarnation delivered further than this one has
    /// stamped yet (see [`Sender::pump`]).
    peer_next: u64,
    /// Flushed packets awaiting a sequence number, one queue per
    /// traffic class (drained in [`TrafficClass::PRIORITY`] order
    /// subject to band credits).
    classq: Vec<VecDeque<Packet>>,
    /// Stamped, sealed, but unsent frames (parked by backpressure).
    staged: VecDeque<DataFrame>,
    /// Sent, unacknowledged frames: `base .. base + unacked.len()`.
    /// Sealed exactly once at stamp time; retransmissions are
    /// refcounted clones of the same frame bytes (no re-CRC).
    unacked: VecDeque<DataFrame>,
    /// QoS band of every stamped-but-unacked frame, in stamp order
    /// (parallels `unacked` then `staged`); popped at ack time to
    /// refund the band's credit.
    stamped_bands: VecDeque<Band>,
    /// Last time this flow made ack progress or (re)transmitted.
    last_activity: Instant,
    /// Current retransmission backoff.
    backoff: Duration,
    /// Consecutive retransmission rounds without ack progress.
    retries: u32,
}

impl Flow {
    fn new(retry: &RetryConfig) -> Self {
        Flow {
            next_seq: 0,
            base: 0,
            peer_next: 0,
            classq: (0..NUM_CLASSES).map(|_| VecDeque::new()).collect(),
            staged: VecDeque::new(),
            unacked: VecDeque::new(),
            stamped_bands: VecDeque::new(),
            last_activity: Instant::now(),
            backoff: retry.backoff,
            retries: 0,
        }
    }

    fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Stamped frames currently charged against `band`'s credit.
    fn band_in_flight(&self, band: Band) -> usize {
        self.stamped_bands.iter().filter(|b| **b == band).count()
    }

    fn has_queued(&self) -> bool {
        self.classq.iter().any(|q| !q.is_empty())
    }

    fn is_drained(&self) -> bool {
        !self.has_queued() && self.staged.is_empty() && self.unacked.is_empty()
    }
}

/// The go-back-N sender of one wire lane. Borrows its flows from the
/// caller (an aggregator's `LaneState`, a node sender's stack) so
/// sequence numbers and unacked windows survive a worker restart.
pub struct Sender<'a> {
    node: &'a NodeShared,
    lane: u32,
    transport: &'a dyn Transport,
    retry: RetryConfig,
    flows: &'a mut Vec<Flow>,
    /// Live unacked-packet total across this lane's flows
    /// ([`in_flight_gauge`]).
    in_flight: &'a Gauge,
}

/// The `node{N}.agg.in_flight` gauge every [`Sender`] of `node` reports
/// its unacked-packet total through.
pub fn in_flight_gauge(node: &NodeShared) -> Gauge {
    node.registry.gauge(&format!("node{}.agg.in_flight", node.id))
}

impl<'a> Sender<'a> {
    /// A sender for `lane` over `flows`, which is (re)initialized to one
    /// fresh flow per destination unless it already has that shape.
    pub fn new(
        node: &'a NodeShared,
        lane: u32,
        transport: &'a dyn Transport,
        flows: &'a mut Vec<Flow>,
        in_flight: &'a Gauge,
    ) -> Self {
        let retry = node.retry.clone();
        if flows.len() != node.nodes {
            *flows = (0..node.nodes).map(|_| Flow::new(&retry)).collect();
        }
        Sender {
            lane,
            transport,
            retry,
            flows,
            in_flight,
            node,
        }
    }

    fn note_in_flight(&self) {
        self.in_flight
            .set(self.flows.iter().map(Flow::in_flight).sum::<usize>() as i64);
    }

    /// Queue a packet for its destination's flow by traffic class and
    /// pump the flow.
    pub fn submit(&mut self, pkt: Packet) {
        let dest = pkt.dest as usize;
        self.flows[dest].classq[pkt.class().index()].push_back(pkt);
        self.pump(dest);
    }

    /// Whether everything submitted towards `dest` has been stamped and
    /// put on the wire — nothing is waiting for window room, band
    /// credit or the channel. Callers that build packets on demand
    /// submit only while this holds, so the flow (not the caller) sets
    /// the pace and at most one packet ever queues ahead of the window.
    pub fn has_room(&self, dest: usize) -> bool {
        let flow = &self.flows[dest];
        flow.staged.is_empty() && !flow.has_queued()
    }

    /// Move queued packets onto the wire while the go-back-N window has
    /// room: first re-try frames already stamped but parked by
    /// backpressure (sequence order is sacred), then stamp fresh
    /// packets in priority order, each subject to its band's in-flight
    /// credit. A class blocked *only* by exhausted credits counts
    /// `rpc.credits_stalled`.
    pub fn pump(&mut self, dest: usize) {
        let window = self.retry.window;
        let epoch = self.node.wire_epoch.load(Ordering::Relaxed);
        let flow = &mut self.flows[dest];
        while flow.in_flight() < window {
            if let Some(pkt) = flow.staged.pop_front() {
                match self.transport.send_data(pkt.clone(), SEND_ATTEMPT_TIMEOUT) {
                    SendStatus::Sent => {
                        flow.last_activity = Instant::now();
                        flow.unacked.push_back(pkt);
                        continue;
                    }
                    SendStatus::TimedOut => {
                        flow.staged.push_front(pkt);
                        self.node.net_chan_stalls.add(1);
                        self.note_in_flight();
                        return;
                    }
                    SendStatus::Closed => return, // cluster is winding down
                }
            }
            // Stamp the highest-priority queued packet whose band still
            // has credit.
            let mut next = None;
            let mut credit_blocked = false;
            for class in TrafficClass::PRIORITY {
                if flow.classq[class.index()].is_empty() {
                    continue;
                }
                let band = class.band();
                if flow.band_in_flight(band) >= band_credit(band, window) {
                    credit_blocked = true;
                    continue;
                }
                next = Some((class.index(), band));
                break;
            }
            let Some((ci, band)) = next else {
                if credit_blocked {
                    self.node.rpc_credits_stalled.add(1);
                }
                self.note_in_flight();
                return;
            };
            let mut pkt = flow.classq[ci].pop_front().expect("class queue non-empty");
            pkt.lane = self.lane;
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
                debug_assert!(flow.stamped_bands.is_empty());
                flow.base += 1;
                self.node.net_fast_forwarded.add(1);
                continue;
            }
            let frame = pkt.seal_in(epoch, self.node.wire_integrity, self.node.pool.as_ref());
            flow.stamped_bands.push_back(band);
            flow.staged.push_back(frame);
        }
        if !flow.staged.is_empty() || flow.has_queued() {
            // Window full: also a form of backpressure (the receiver or
            // the ack path is behind).
            self.node.net_window_stalls.add(1);
        }
        self.note_in_flight();
    }

    /// One full service round for callers with nothing else to
    /// piggyback it on (drain phases, the node senders' poll loops):
    /// acks in, timed-out windows out, parked frames re-tried.
    pub fn service(&mut self) -> Result<(), RuntimeError> {
        self.drain_acks();
        self.poll_retransmits()?;
        for dest in 0..self.flows.len() {
            self.pump(dest);
        }
        Ok(())
    }

    /// Drain this lane's ack mailbox, verify each ack frame, and
    /// release acknowledged packets. Unverifiable acks are dropped
    /// (counted in `net.ack_corrupt_dropped`) — a lost ack just means
    /// the next cumulative ack or a retransmission round covers it.
    pub fn drain_acks(&mut self) {
        while let Some(frame) = self.transport.try_recv_ack(self.node.id, self.lane) {
            let ack = match frame.open(self.node.wire_integrity) {
                Ok(ack) => ack,
                Err(_) => {
                    self.node.net_ack_corrupt_dropped.add(1);
                    continue;
                }
            };
            // With integrity off a mangled src can still verify; never
            // index out of the flow table on a corrupt peer id.
            let Some(flow) = self.flows.get_mut(ack.src as usize) else {
                self.node.net_ack_corrupt_dropped.add(1);
                continue;
            };
            self.node.net_acks_received.add(1);
            flow.peer_next = flow.peer_next.max(ack.cum_seq.saturating_add(1));
            let mut progressed = false;
            // Stamp order == ack order under go-back-N: sent frames
            // first, then — only when a previous incarnation's delivery
            // is being acknowledged — frames stamped but still parked.
            while flow.base < flow.peer_next
                && (flow.unacked.pop_front().is_some() || flow.staged.pop_front().is_some())
            {
                // Refund the acked frame's band credit.
                flow.stamped_bands.pop_front();
                flow.base += 1;
                progressed = true;
            }
            if progressed {
                flow.last_activity = Instant::now();
                flow.backoff = self.retry.backoff;
                flow.retries = 0;
                let dest = ack.src as usize;
                self.pump(dest);
            }
        }
    }

    /// Retransmit timed-out windows (go-back-N: resend everything
    /// unacked). Returns an error when a flow exhausts its retries.
    pub fn poll_retransmits(&mut self) -> Result<(), RuntimeError> {
        let now = Instant::now();
        for dest in 0..self.flows.len() {
            let flow = &mut self.flows[dest];
            if flow.unacked.is_empty() || now.duration_since(flow.last_activity) < flow.backoff {
                continue;
            }
            if flow.retries >= self.retry.max_retries {
                return Err(RuntimeError::RetryExhausted {
                    src: self.node.id,
                    dest: dest as u32,
                    lane: self.lane,
                    seq: flow.base,
                    retries: flow.retries,
                });
            }
            flow.retries += 1;
            flow.backoff = (flow.backoff * 2).min(self.retry.backoff_max);
            flow.last_activity = now;
            let resend: Vec<DataFrame> = flow.unacked.iter().cloned().collect();
            self.node.net_retransmits.add(resend.len() as u64);
            let _span = self
                .node
                .tracer
                .span("agg.retransmit", "aggregate", self.node.id);
            for pkt in resend {
                // Best-effort: a full channel just means the next round
                // retries again — the window bound keeps this finite.
                if self.transport.send_data(pkt, SEND_ATTEMPT_TIMEOUT) == SendStatus::Closed {
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

//! The sender half of the delivery protocol: one go-back-N flow per
//! destination and band, over any [`Transport`].
//!
//! This is the **only** sender-side reliability implementation in the
//! tree. The aggregator lanes run it in-process, and `gravel-node` runs
//! it over sockets — the RPC lane through [`crate::aggregator::run`]
//! itself, the deterministic GUPS and elastic senders by submitting the
//! packets they build. Packets are stamped with `(wire lane, seq)`,
//! sealed exactly once, kept until cumulatively acked by the receiving
//! network thread, and re-sent with exponential backoff when acks stop
//! arriving. A flow that makes no progress for
//! `RetryConfig::max_retries` consecutive rounds is reported as
//! [`RuntimeError::RetryExhausted`].
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
use gravel_pgas::{split_wire_lane, wire_lane, DataFrame, Packet};
use gravel_telemetry::Gauge;

use crate::error::RuntimeError;
use crate::node::NodeShared;

/// How long one transport send attempt may block before the packet is
/// parked and the caller resumes servicing acks and its own input.
const SEND_ATTEMPT_TIMEOUT: Duration = Duration::from_micros(200);

/// Go-back-N window of one band's flows, derived from `retry.window`
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

/// Sender-side state of one go-back-N flow: one destination, one band.
pub struct Flow {
    band: Band,
    /// In-flight limit ([`band_window`]).
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
    /// Sent, unacknowledged frames: `base .. base + unacked.len()`.
    /// Sealed exactly once at stamp time; retransmissions are
    /// refcounted clones of the same frame bytes (no re-CRC).
    unacked: VecDeque<DataFrame>,
    /// Last time this flow made ack progress or (re)transmitted.
    last_activity: Instant,
    /// Current retransmission backoff.
    backoff: Duration,
    /// Consecutive retransmission rounds without ack progress.
    retries: u32,
}

impl Flow {
    fn new(retry: &RetryConfig, band: Band) -> Self {
        Flow {
            band,
            window: band_window(band, retry.window),
            next_seq: 0,
            base: 0,
            peer_next: 0,
            queued: VecDeque::new(),
            staged: VecDeque::new(),
            unacked: VecDeque::new(),
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
}

/// The go-back-N sender of one aggregator lane. Borrows its flows from
/// the caller (an aggregator's `LaneState`, a node sender's stack) so
/// sequence numbers and unacked windows survive a worker restart.
pub struct Sender<'a> {
    node: &'a NodeShared,
    lane: u32,
    transport: &'a dyn Transport,
    retry: RetryConfig,
    /// `NUM_BANDS × nodes` flows, band-major in service order: every
    /// express flow sits (and is serviced) ahead of every bulk flow.
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
    /// fresh flow per band and destination unless it already has that
    /// shape.
    pub fn new(
        node: &'a NodeShared,
        lane: u32,
        transport: &'a dyn Transport,
        flows: &'a mut Vec<Flow>,
        in_flight: &'a Gauge,
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
            in_flight,
            node,
        }
    }

    fn flow_index(&self, band: Band, dest: usize) -> usize {
        band.index() * self.node.nodes + dest
    }

    fn note_in_flight(&self) {
        self.in_flight
            .set(self.flows.iter().map(|f| f.unacked.len()).sum::<usize>() as i64);
    }

    /// Queue a packet on the flow of its destination and band, and pump
    /// that flow.
    pub fn submit(&mut self, pkt: Packet) {
        let idx = self.flow_index(pkt.class().band(), pkt.dest as usize);
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
    /// has room: first re-try frames already stamped but parked by
    /// backpressure (sequence order is sacred), then stamp fresh ones.
    fn pump(&mut self, idx: usize) {
        let epoch = self.node.wire_epoch.load(Ordering::Relaxed);
        let flow = &mut self.flows[idx];
        while flow.unacked.len() < flow.window {
            if let Some(frame) = flow.staged.pop_front() {
                match self
                    .transport
                    .send_data(frame.clone(), SEND_ATTEMPT_TIMEOUT)
                {
                    SendStatus::Sent => {
                        flow.last_activity = Instant::now();
                        flow.unacked.push_back(frame);
                        continue;
                    }
                    SendStatus::TimedOut => {
                        flow.staged.push_front(frame);
                        self.node.net_chan_stalls.add(1);
                        self.note_in_flight();
                        return;
                    }
                    SendStatus::Closed => return, // cluster is winding down
                }
            }
            let Some(mut pkt) = flow.queued.pop_front() else {
                self.note_in_flight();
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
            let frame = pkt.seal_in(epoch, self.node.wire_integrity, self.node.pool.as_ref());
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
        self.note_in_flight();
    }

    /// One full service round for callers with nothing else to
    /// piggyback it on (drain phases, the node senders' poll loops):
    /// acks in, timed-out windows out, parked frames re-tried.
    pub fn service(&mut self) -> Result<(), RuntimeError> {
        self.drain_acks();
        self.poll_retransmits()?;
        for idx in 0..self.flows.len() {
            self.pump(idx);
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
            // With integrity off a mangled src or lane can still
            // verify; never index out of the flow table (or into
            // another lane's sequence space) on a corrupt header.
            let (lane, band) = split_wire_lane(ack.lane);
            if lane != self.lane || ack.src as usize >= self.node.nodes {
                self.node.net_ack_corrupt_dropped.add(1);
                continue;
            }
            let idx = self.flow_index(band, ack.src as usize);
            let flow = &mut self.flows[idx];
            self.node.net_acks_received.add(1);
            flow.peer_next = flow.peer_next.max(ack.cum_seq.saturating_add(1));
            let mut progressed = false;
            // Stamp order == ack order under go-back-N: sent frames
            // first, then — only when a previous incarnation's delivery
            // is being acknowledged — frames stamped but still parked.
            while flow.base < flow.peer_next
                && (flow.unacked.pop_front().is_some() || flow.staged.pop_front().is_some())
            {
                flow.base += 1;
                progressed = true;
            }
            if progressed {
                flow.last_activity = Instant::now();
                flow.backoff = self.retry.backoff;
                flow.retries = 0;
                self.pump(idx);
            }
        }
    }

    /// Retransmit timed-out windows (go-back-N: resend everything
    /// unacked). Returns an error when a flow exhausts its retries.
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
            flow.last_activity = now;
            self.node.net_retransmits.add(flow.unacked.len() as u64);
            let _span = self
                .node
                .tracer
                .span("agg.retransmit", "aggregate", self.node.id);
            for frame in flow.unacked.iter() {
                // Best-effort: a full channel just means the next round
                // retries again — the window bound keeps this finite.
                if self
                    .transport
                    .send_data(frame.clone(), SEND_ATTEMPT_TIMEOUT)
                    == SendStatus::Closed
                {
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

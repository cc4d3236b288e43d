//! Pluggable transport for the live Gravel runtime.
//!
//! The paper's live mode runs N nodes in one process with "the network"
//! as in-memory channels. This crate extracts that hardwired fabric into
//! a [`Transport`] trait with two implementations:
//!
//! - [`ChannelTransport`] — the original reliable in-memory fabric, now
//!   with **bounded** per-node ingress channels so senders experience
//!   real backpressure instead of unbounded queue growth.
//! - [`UnreliableTransport`] — a decorator that injects seeded,
//!   per-link faults (drop, duplication, reordering jitter, corruption)
//!   on the data plane, plus ack drops and bit flips.
//!
//! Outages and delays are [`LinkFault`]s only: one [`LinkSchedule`]
//! decides, holds and counts them for the in-process decorator and the
//! [`SocketTransport`] alike, and [`FaultStats`] is the one ledger of
//! what any fabric injected.
//!
//! Delivery *semantics* (sequence numbers, selective acks,
//! retransmission, duplicate suppression) live above this crate, in the
//! runtime's aggregator and network threads — the transport only moves
//! frames and, in the unreliable case, loses or mangles them on purpose.
//! Faults are applied exclusively to cross-node links (`src != dest`);
//! the loopback path a node uses for its own serialized atomics is
//! always reliable, mirroring the paper's hardware where local routing
//! never touches the NIC.
//!
//! Both planes carry *sealed frames* ([`gravel_pgas::DataFrame`] for
//! data, [`AckFrame`] for acks): opaque checksummed bytes the transport
//! may corrupt byte-wise without understanding them. The out-of-band
//! routing stamps (`src`, `dest`, `lane`) exist so the fabric can switch
//! a frame without parsing it — and so corruption injection can misroute
//! one without touching its (still CRC-valid) contents.

mod channel;
pub mod chaos;
mod fault;
pub mod partition;
pub mod socket;
mod unreliable;

pub use channel::ChannelTransport;
pub use chaos::{ChaosPlan, ProcessFault};
pub use fault::{FaultConfig, FaultStats, RetryConfig, TransportKind};
pub use partition::{LinkFault, LinkSchedule};
pub use socket::{
    ControlMsg, PeerEvent, ReconnectConfig, SocketAddrSpec, SocketConfig, SocketStats,
    SocketTransport, StreamDecoder, MAX_FRAME_BYTES,
};
pub use unreliable::UnreliableTransport;

use std::time::Duration;

use gravel_pgas::frame::{open_ack, seal_ack, ACK_FRAME_BYTES};
use gravel_pgas::{split_wire_lane, DataFrame, FrameError, WireIntegrity};

/// Node identifier on the fabric.
pub type NodeId = u32;

/// SplitMix64's increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's finalizer: the one mixer behind every seeded choice in
/// this crate (per-link RNG seeds, delay jitter, chaos plans, redial
/// jitter).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: advance `state` by the increment and mix it.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix(*state)
}

/// The cumulative part of an acknowledgement on the reverse path.
///
/// `src` is the acking (receiving) node; the frame is routed to the
/// aggregator lane of node `dest` that owns wire lane `lane`,
/// confirming receipt of every data packet on that flow with sequence
/// number `<= cum_seq`. The selective part — which later packets the
/// receiver holds behind a gap — rides in the same frame
/// ([`seal_holding`](Ack::seal_holding), [`AckFrame::open`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack {
    /// Node that received the data and is acknowledging it.
    pub src: NodeId,
    /// Original data sender the ack is addressed to.
    pub dest: NodeId,
    /// Wire lane of the flow on `dest` (aggregator lane plus band, see
    /// [`gravel_pgas::wire_lane`]).
    pub lane: u32,
    /// Highest sequence number received in order on this flow
    /// (`u64::MAX`, one before sequence number 0, until there is one).
    pub cum_seq: u64,
}

impl Ack {
    /// Seal an ack that reports nothing held beyond `cum_seq`.
    pub fn seal(&self, epoch: u32, integrity: WireIntegrity) -> AckFrame {
        self.seal_holding(0, epoch, integrity)
    }

    /// Seal into the checksummed wire form the ack plane carries, with
    /// the selective map beside the cumulative point: bit `i` of `held`
    /// says the receiver holds sequence number `cum_seq + 1 + i`
    /// ([`gravel_pgas::ACK_MAP_BITS`] of them; bit 0 is always clear). The header
    /// keeps the wire lane; the routing stamp names the owning
    /// aggregator lane, whose mailbox serves every band of that lane.
    pub fn seal_holding(&self, held: u64, epoch: u32, integrity: WireIntegrity) -> AckFrame {
        AckFrame {
            src: self.src,
            dest: self.dest,
            lane: split_wire_lane(self.lane).0,
            bytes: seal_ack(self.src, self.dest, self.lane, epoch, self.cum_seq, held, integrity),
        }
    }
}

/// A sealed ack as it travels the reverse path: 48 opaque frame bytes
/// plus the out-of-band routing stamps the fabric switches on. Like
/// [`DataFrame`], the stamps are untrusted — the receiving aggregator
/// decodes the verified header, not the stamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckFrame {
    /// Acking node (which link the frame leaves on).
    pub src: NodeId,
    /// Routing stamp: node whose mailbox this lands in.
    pub dest: NodeId,
    /// Routing stamp: aggregator lane mailbox.
    pub lane: u32,
    /// The complete frame: header, selective map, CRC trailer.
    pub bytes: [u8; ACK_FRAME_BYTES],
}

impl AckFrame {
    /// Verify the frame and decode the [`Ack`] from its header and the
    /// selective map from its payload.
    pub fn open(&self, integrity: WireIntegrity) -> Result<(Ack, u64), FrameError> {
        let (head, held) = open_ack(&self.bytes, integrity)?;
        Ok((Ack { src: head.src, dest: head.dest, lane: head.lane, cum_seq: head.seq }, held))
    }
}

/// One liveness beacon on the heartbeat plane.
///
/// Heartbeats are the input to `gravel-node`'s phi-accrual failure
/// detector: node `src` emits one per heartbeat interval towards every
/// peer, and the *absence* of arrivals is what raises suspicion. They
/// are deliberately the least reliable traffic class — best-effort,
/// droppable by full queues and by every injected link fault — because
/// a detector that needs reliable heartbeats would be useless. Only the
/// [`SocketTransport`] carries them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heartbeat {
    /// Emitting node.
    pub src: NodeId,
    /// Observing node.
    pub dest: NodeId,
    /// Monotonic beat number at the emitter.
    pub seq: u64,
}

/// Outcome of a send attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendStatus {
    /// Accepted by the fabric (which, for an unreliable transport, does
    /// *not* imply it will be delivered).
    Sent,
    /// The bounded channel stayed full for the whole timeout.
    TimedOut,
    /// The fabric has been closed.
    Closed,
}

/// Outcome of a receive attempt.
#[derive(Debug)]
pub enum RecvStatus<T> {
    /// A frame arrived.
    Msg(T),
    /// Nothing arrived within the timeout.
    TimedOut,
    /// The fabric is closed and fully drained.
    Closed,
}

/// An N-node interconnect: a data plane from aggregators to network
/// threads and an ack plane back to per-lane aggregator mailboxes.
///
/// All methods take `&self`; implementations are shared across threads
/// behind an `Arc<dyn Transport>`.
pub trait Transport: Send + Sync {
    /// Cluster size.
    fn nodes(&self) -> usize;

    /// Aggregator lanes per node (ack mailboxes per node).
    fn lanes(&self) -> usize;

    /// Send a sealed data frame towards `frame.dest` (the routing
    /// stamp), blocking up to `timeout` if the destination's ingress
    /// channel is full.
    fn send_data(&self, frame: DataFrame, timeout: Duration) -> SendStatus;

    /// Receive the next data frame addressed to `node`, waiting up to
    /// `timeout`. The frame is *unverified* — the caller must `open` it
    /// before trusting a byte.
    fn recv_data(&self, node: NodeId, timeout: Duration) -> RecvStatus<DataFrame>;

    /// Send a sealed ack towards `(ack.dest, ack.lane)`. Best-effort and
    /// non-blocking: every ack restates the flow's whole receive state,
    /// so dropping one (full mailbox, injected fault) only delays
    /// progress until the next ack or a retransmission — it can never
    /// corrupt the protocol.
    fn send_ack(&self, ack: AckFrame);

    /// Drain one pending (unverified) ack for aggregator `lane` of
    /// `node`.
    fn try_recv_ack(&self, node: NodeId, lane: u32) -> Option<AckFrame>;

    /// Send a liveness beacon towards `hb.dest`. Best-effort and
    /// non-blocking like acks; a transport without a heartbeat plane
    /// (the in-process fabrics) drops them, and a failure detector fed
    /// from it would report every peer as silent, the honest answer.
    fn send_heartbeat(&self, hb: Heartbeat) {
        let _ = hb;
    }

    /// Drain one pending heartbeat addressed to `node`.
    fn try_recv_heartbeat(&self, node: NodeId) -> Option<Heartbeat> {
        let _ = node;
        None
    }

    /// Close the fabric: subsequent sends fail fast, receivers drain
    /// what is already in flight and then observe [`RecvStatus::Closed`].
    fn close(&self);

    /// Whether [`close`](Self::close) has been called.
    fn is_closed(&self) -> bool;

    /// Counters of injected faults (all zero for reliable transports).
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Current data-plane queue depth per node, for quiesce-timeout
    /// diagnostics.
    fn data_depths(&self) -> Vec<usize>;

    /// Acks currently sitting in node `node`'s lane mailboxes (sent but
    /// not yet drained by its aggregators). On a quiesced cluster this
    /// closes the ack ledger: every ack sent is either received, still
    /// mailboxed here, or counted in `fault_stats().dropped_acks`.
    fn ack_depths(&self, node: NodeId) -> usize;
}

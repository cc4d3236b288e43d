//! The network thread (paper §6) — now also the receiver half of the
//! delivery protocol.
//!
//! "All network requests are funneled through a dedicated network thread.
//! Upon receiving a per-node queue, the network thread iterates through
//! each message and resolves it as a local memory operation." Because
//! *every* atomic — including local ones — routes through this thread,
//! atomics are serialized per node, which both simplifies active messages
//! and (on the paper's hardware) beats concurrent read-modify-writes.
//!
//! On top of applying packets, the thread enforces exactly-once in-order
//! delivery per flow `(src, wire lane)` — each band of a sender lane is
//! a flow of its own, so a request served ahead of queued bulk frames
//! is in sequence, not out of order: packets below the expected sequence
//! number are duplicates (counted and re-acked, which heals lost acks);
//! packets above it are parked in a bounded reorder buffer until the gap
//! fills. Every packet that reaches this point — accepted, duplicate or
//! parked — triggers an ack back to the sending lane that restates the
//! flow's whole receive state: the cumulative point, and a map of which
//! of the next [`ACK_MAP_BITS`] sequence numbers are parked. The map is
//! what lets the sender ([`crate::flow`]) see a gap one round trip
//! after it opened and re-send that one packet. It is computed from the
//! reorder buffer at ack time and never remembered, so a buffer lost to
//! a restart is simply absent from the next ack.
//!
//! Before any of that, every inbound frame is *verified* (DESIGN.md
//! §13): magic, version, kind, length, and CRC32C are checked before a
//! single payload byte is decoded. A frame that fails verification is
//! counted (`net.corrupt_dropped` / `net.truncated`) and dropped — to
//! the delivery protocol a corrupted frame is indistinguishable from a
//! lost one, so the same retransmission heals it. A frame that
//! verifies but names the wrong destination is counted
//! (`net.misrouted`) and dropped the same way. Messages that pass the
//! CRC but fail *semantic* validation (unknown handler, out-of-range
//! address, undecodable command word) divert to the node's bounded
//! quarantine instead of panicking; the rest of their packet still
//! applies.
//!
//! The thread keeps no recovery state of its own. A node that keeps a
//! recovery log hands the thread a [`PacketTap`] — a keeper's
//! (`ha::Keeper::tap`) in-process, its buddy forwarder in `gravel-node`
//! — which sees every fully applied packet under the receive-state
//! lock, the lock epoch cuts and recovery take too.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gravel_gq::{Command, Message, MSG_ROWS};
use gravel_net::{Ack, ChaosPlan, RecvStatus, Transport};
use gravel_pgas::{
    apply, apply_stream, runs, Applied, Packet, QuarantineReason, QuarantinedMessage, StreamEnd,
    WireIntegrity, ACK_MAP_BITS,
};

use crate::aggregator::Lane;
use crate::error::ErrorSlot;
use crate::node::NodeShared;

/// Receive poll interval; bounds how quickly the thread notices shutdown
/// or a cluster-wide error.
const RECV_TIMEOUT: Duration = Duration::from_millis(1);

/// Maximum out-of-order packets buffered per flow. Packets beyond this
/// are dropped (and recovered by the sender's retransmission), bounding
/// receiver memory whatever a sender does. A sender this tree builds
/// never gets there: it keeps at most two windows of packets, and
/// never more than [`ACK_MAP_BITS`], past the cumulative point on the
/// wire (`GravelConfig::validate` holds the configured window to
/// that), so a packet the map reported held is never dropped
/// afterwards and `net.ooo_dropped` stays 0.
pub(crate) const OOO_BUFFER_CAP: usize = 256;

/// Receiver-side state of one flow.
#[derive(Default)]
struct FlowState {
    /// Next sequence number to apply.
    expected: u64,
    /// Out-of-order packets keyed by sequence number.
    ooo: BTreeMap<u64, Packet>,
    /// Message index inside the in-sequence packet currently being
    /// applied. Nonzero only while a restarted thread still owes the
    /// tail of a packet whose predecessor died mid-apply; the
    /// retransmission of that packet (seq == `expected`) resumes here.
    resume_at: usize,
}

impl FlowState {
    /// The selective map of this flow's next ack: bit `i` is set when
    /// sequence number `expected + i` is parked in the reorder buffer.
    fn held_map(&self) -> u64 {
        self.ooo
            .range(self.expected..self.expected.saturating_add(ACK_MAP_BITS as u64))
            .fold(0, |map, (seq, _)| map | 1 << (seq - self.expected))
    }
}

/// Restartable receiver state of one node's network thread, hoisted out
/// of the thread (like the aggregator's `LaneState`) so a supervised
/// restart keeps exactly-once delivery: sequence expectations, reorder
/// buffers, and mid-packet resume cursors all survive the thread.
pub struct RecvState {
    flows: HashMap<(u32, u32), FlowState>,
}

impl RecvState {
    pub fn new() -> Self {
        RecvState {
            flows: HashMap::new(),
        }
    }

    /// Forget mid-packet progress (epoch recovery: the heap was just
    /// rewritten wholesale, so any partially applied packet must
    /// re-apply from its first message when retransmitted). Sequence
    /// expectations and reorder buffers are deliberately preserved —
    /// resetting those would turn retransmissions into duplicates or
    /// wedge the flow.
    pub fn reset_resume_cursors(&mut self) {
        for flow in self.flows.values_mut() {
            flow.resume_at = 0;
        }
    }

    /// Snapshot every flow's next-expected sequence number as
    /// `(src, lane, expected)` triples — the receiver half of an epoch
    /// checkpoint. Taken under the state lock, so it is consistent
    /// with the heap (no packet is mid-apply).
    pub fn flow_cursors(&self) -> Vec<(u32, u32, u64)> {
        self.flows
            .iter()
            .map(|(&(src, lane), f)| (src, lane, f.expected))
            .collect()
    }

    /// Flow `(src, lane)`'s next-expected sequence number: how many of
    /// its packets have been applied (0 for a flow not yet seen).
    pub fn cursor(&self, src: u32, lane: u32) -> u64 {
        self.flows.get(&(src, lane)).map_or(0, |f| f.expected)
    }

    /// Restore a flow's next-expected sequence number (process
    /// recovery: a restarted node replays its checkpoint + forwarded
    /// log, then seeds the cursors so retransmissions of
    /// already-applied packets dup-suppress instead of re-applying).
    /// Must be called before the network thread starts consuming.
    pub fn seed_flow(&mut self, src: u32, lane: u32, expected: u64) {
        let flow = self.flows.entry((src, lane)).or_default();
        flow.expected = expected;
        flow.resume_at = 0;
        flow.ooo.clear();
    }

    /// Take one verified packet addressed to `node`: count a duplicate,
    /// park an early one, or gate, apply and tap it and then every
    /// parked successor it uncovers. Returns what the flow's ack
    /// restates: the next expected sequence number and the held map.
    pub(crate) fn accept(
        &mut self,
        node: &NodeShared,
        pkt: Packet,
        chaos: Option<&ChaosPlan>,
        gate: Option<&Arc<dyn ApplyGate>>,
        tap: Option<&Arc<dyn PacketTap>>,
    ) -> (u64, u64) {
        let flow = self.flows.entry((pkt.src, pkt.lane)).or_default();
        if pkt.seq < flow.expected || flow.ooo.contains_key(&pkt.seq) {
            // Duplicate (injected, a retransmission of an applied packet
            // whose ack was lost, or a second copy of a parked one).
            // Re-ack so the sender advances.
            node.net_dups_suppressed.add(1);
        } else if pkt.seq > flow.expected {
            // Out of order: park it if the buffer has room (the sender
            // retransmits it otherwise), then ack what we actually have.
            if flow.ooo.len() < OOO_BUFFER_CAP {
                node.net_ooo_parked.add(1);
                flow.ooo.insert(pkt.seq, pkt);
            } else {
                node.net_ooo_dropped.add(1);
            }
        } else {
            gate_apply_tap(node, &pkt, &mut flow.resume_at, chaos, gate, tap);
            flow.expected += 1;
            // Drain any buffered successors the gap was hiding. A panic
            // mid-drain loses the popped packet but not its messages:
            // `expected` was not yet advanced past it and the next ack's
            // map no longer reports it, so the sender re-sends it.
            while let Some(next) = flow.ooo.remove(&flow.expected) {
                gate_apply_tap(node, &next, &mut flow.resume_at, chaos, gate, tap);
                flow.expected += 1;
            }
        }
        (flow.expected, flow.held_map())
    }
}

/// Receiver-side hook invoked for every fully applied packet, *while
/// the receive-state lock is still held and before the cumulative ack
/// is sent*. That ordering is what makes crash-consistent replay
/// forwarding possible: a node that forwards the packet to its buddy
/// inside the tap knows the forward was written before the sender
/// could ever see the ack, so an acked packet is never missing from
/// the buddy's log (forward-before-ack). The in-process runtime's
/// epoch cuts take the same lock, so no cut falls between a packet
/// counted applied and its entry in the log.
pub trait PacketTap: Send + Sync {
    fn on_packet_applied(&self, pkt: &Packet);
}

/// Receiver-side hook consulted for every accepted in-sequence packet
/// *before* it applies, while the receive-state lock is held. Returning
/// `None` applies the packet unchanged (the hot-path common case, no
/// copy); returning `Some(replacement)` applies the replacement
/// instead — same flow identity (src, lane, seq), possibly fewer
/// messages. Messages the gate removed are the gate's responsibility:
/// the elastic reshard layer bounces them back to their sender with the
/// current shard map rather than dropping them. The packet's sequence
/// number is consumed and acked either way, and the [`PacketTap`]
/// observes the *replacement*, so a buddy forward log only ever holds
/// words that actually applied here.
///
/// The gate runs again if a supervised thread restart re-presents the
/// same sequence number mid-apply, so its decision must be
/// deterministic for a given (packet, installed map) pair; the
/// multi-process runtime only changes maps at epoch boundaries and
/// resets resume cursors on process recovery, which keeps the pair
/// stable across every replay path.
pub trait ApplyGate: Send + Sync {
    fn filter(&self, pkt: &Packet) -> Option<Packet>;
}

impl Default for RecvState {
    fn default() -> Self {
        RecvState::new()
    }
}

fn lock_recv(state: &Mutex<RecvState>) -> MutexGuard<'_, RecvState> {
    state.lock().unwrap_or_else(|p| p.into_inner())
}

/// Counts the messages a call to [`apply_packet`] disposed of when it
/// drops — including the unwind of a chaos panic, so the quiescence
/// counters stay exact at every message boundary without paying one
/// fenced counter add per message on the hot path. Every message the
/// cursor moves past is disposed of exactly once, so the count is how
/// far the cursor moved.
struct ApplyGuard<'a> {
    node: &'a NodeShared,
    /// The flow's resume cursor: the next message of the packet to
    /// dispose of.
    cursor: &'a mut usize,
    /// Where the cursor stood when this call started.
    from: usize,
}

impl Drop for ApplyGuard<'_> {
    fn drop(&mut self) {
        let done = *self.cursor - self.from;
        if done > 0 {
            self.node.note_applied(done as u64);
        }
    }
}

/// Divert message `index` of `pkt` to the node's quarantine.
fn quarantine(
    node: &NodeShared,
    pkt: &Packet,
    index: usize,
    words: [u64; MSG_ROWS],
    reason: QuarantineReason,
) {
    node.quarantine.push(QuarantinedMessage {
        src: pkt.src,
        lane: pkt.lane,
        seq: pkt.seq,
        index,
        words,
        reason,
    });
}

/// Dispose of message `index` of `pkt` by the general path: decode it
/// and dispatch on the command. This is what every message went through
/// until PR 22; now it is what [`apply_stream`] hands the messages its
/// PUT/INC loop does not resolve (and, applied to every message, the
/// reference `oracle.rs` holds the runs to). Returns `false` at a
/// shutdown sentinel.
///
/// Unlike `apply_words` (the replay path, where undecodable words are
/// skipped uncounted because the log predates validation), the live
/// path quarantines every poison message — undecodable command words
/// and semantic rejections alike — and its caller counts it disposed:
/// it was offloaded as a message, so quiescence must see it retired
/// exactly once.
fn apply_message(node: &NodeShared, pkt: &Packet, index: usize, words: [u64; MSG_ROWS]) -> bool {
    let Some(msg) = Message::decode(words) else {
        quarantine(node, pkt, index, words, QuarantineReason::BadCommand);
        return true;
    };
    // Replies consume their pending-table entry instead of touching the
    // heap; the table itself counts stale and orphan tokens, so a
    // replayed reply is harmless here.
    if matches!(msg.command, Command::Reply) {
        node.rpc.complete(msg.addr, msg.value);
        return true;
    }
    // Replying handlers re-enter the node's own Gravel path: the reply
    // is enqueued like any GPU-initiated message (and counted for
    // quiescence before this message's batch lands, so `quiesce` cannot
    // return with replies in flight).
    let applied = apply(&msg, pkt.src, &node.heap, &node.ams, &mut |m| {
        if matches!(m.command, Command::Reply) {
            node.rpc_replies_sent.add(1);
        }
        node.host_send(m)
    });
    match applied {
        Applied::Done => true,
        Applied::Rejected(reason) => {
            quarantine(node, pkt, index, words, reason);
            true
        }
        Applied::Shutdown => false,
    }
}

/// Apply one in-sequence packet to the node's heap, starting at message
/// `*resume_at` (0 for a fresh packet), straight out of the packet's
/// byte payload (no intermediate `Vec` — this loop is the receive hot
/// path, see `crates/pgas/tests/zero_alloc.rs`).
///
/// The loop is [`apply_stream`]: the payload's runs of in-bounds PUT
/// and INC records resolve from the raw words — this thread is the
/// heap's only read-modify-writer, so an INC is a load and a store —
/// and only the messages it does not resolve are decoded and dispatched
/// one at a time ([`apply_message`]). A malformed run ends the packet:
/// the rest of the payload goes to the quarantine as one
/// `PartialPayload` entry (evidence, never a counted message), and the
/// messages before it stand. Disposed messages count toward quiescence
/// in one batch when the packet finishes *or* the thread unwinds, and
/// the cursor — a message index — is exact whenever control leaves the
/// loop, so a panic at any message boundary — the only place injected
/// chaos fires — loses and double-counts nothing: the retransmitted
/// packet resumes at the cursor. Batching never fakes quiescence:
/// replies a handler enqueues inflate `offloaded` before the batch
/// lands in `applied`, so the counters cannot balance mid-packet. On
/// completion the cursor returns to 0; an interrupted packet never
/// reaches the caller's [`PacketTap`], so a recovery log holds only
/// completed packets.
fn apply_packet(
    node: &NodeShared,
    pkt: &Packet,
    resume_at: &mut usize,
    chaos: Option<&ChaosPlan>,
) {
    let _span = node.tracer.span("net.apply", "apply", node.id);
    if *resume_at == 0 {
        node.packet_latency
            .record(pkt.born.elapsed().as_nanos() as u64);
    }
    let payload: &[u8] = &pkt.payload;
    let batch = ApplyGuard {
        node,
        from: *resume_at,
        cursor: resume_at,
    };
    let end = apply_stream(
        payload,
        pkt.dest,
        batch.cursor,
        &node.heap,
        || chaos.is_some_and(|c| c.net_tick(node.id)),
        |index, words| apply_message(node, pkt, index, words),
    );
    match end {
        StreamEnd::Interrupted => panic!(
            "chaos: net thread {} killed at injected apply step",
            node.id
        ),
        StreamEnd::Malformed { at } => {
            // It verifies only if its sender sealed it that way (a frame
            // cut short in transit fails the CRC). A replay skips the
            // same malformed rest.
            let words = runs::fragment(payload, at);
            quarantine(node, pkt, *batch.cursor, words, QuarantineReason::PartialPayload);
        }
        StreamEnd::Drained | StreamEnd::Shutdown => {}
    }
    drop(batch);
    *resume_at = 0;
}

/// Run the receive-and-apply loop until the transport closes (or the
/// cluster fails). This is the body of each node's network thread.
pub fn run(node: Arc<NodeShared>, transport: Arc<dyn Transport>, errors: Arc<ErrorSlot>) {
    let state = Arc::new(Mutex::new(RecvState::new()));
    run_with(node, transport, errors, state, None, None, None, None);
}

/// Gate (if any), apply, then tap (if any) — one accepted in-sequence
/// packet, receive-state lock held by the caller. The tap sees exactly
/// what applied: the gate's replacement when it filtered, the original
/// otherwise.
fn gate_apply_tap(
    node: &NodeShared,
    pkt: &Packet,
    resume_at: &mut usize,
    chaos: Option<&ChaosPlan>,
    gate: Option<&Arc<dyn ApplyGate>>,
    tap: Option<&Arc<dyn PacketTap>>,
) {
    match gate.and_then(|g| g.filter(pkt)) {
        Some(repl) => {
            apply_packet(node, &repl, resume_at, chaos);
            if let Some(t) = tap {
                t.on_packet_applied(&repl);
            }
        }
        None => {
            apply_packet(node, pkt, resume_at, chaos);
            if let Some(t) = tap {
                t.on_packet_applied(pkt);
            }
        }
    }
}

/// [`run`] with receiver state hoisted into `state` for supervised
/// restart, and four optional hooks: process-fault injection from
/// `chaos`; a [`PacketTap`] observing every fully applied packet before
/// its ack leaves (the in-process runtime logs packets with its
/// keeper there, the multi-process runtime forwards them to a buddy
/// node); an [`ApplyGate`] filtering every accepted packet
/// before it applies (the elastic reshard layer bounces
/// no-longer-owned messages there); and the node's express [`Lane`],
/// whose express pass the thread runs itself after acking an express
/// frame, so the replies that frame's requests just enqueued go out
/// without waking the lane thread (DESIGN.md §15). The receive wait
/// happens *without* the state lock (recovery and diagnostics may
/// inspect the state while the thread idles); the lock is taken per
/// delivered packet.
#[allow(clippy::too_many_arguments)]
pub fn run_with(
    node: Arc<NodeShared>,
    transport: Arc<dyn Transport>,
    errors: Arc<ErrorSlot>,
    state: Arc<Mutex<RecvState>>,
    chaos: Option<Arc<ChaosPlan>>,
    tap: Option<Arc<dyn PacketTap>>,
    gate: Option<Arc<dyn ApplyGate>>,
    lane: Option<Arc<Lane>>,
) {
    let mut last_sweep = Instant::now();
    loop {
        // Evict overdue pending-reply entries so a GET whose reply was
        // lost (or whose server died) fails deterministically instead
        // of parking its waiter forever. Throttled to the receive poll
        // interval so the table lock stays off the apply hot path.
        let now = Instant::now();
        if now.duration_since(last_sweep) >= RECV_TIMEOUT {
            node.rpc.sweep(now);
            last_sweep = now;
        }
        let frame = match transport.recv_data(node.id, RECV_TIMEOUT) {
            RecvStatus::Msg(frame) => frame,
            RecvStatus::TimedOut => {
                if errors.is_set() {
                    return;
                }
                continue;
            }
            RecvStatus::Closed => return,
        };
        let express = frame.is_express();
        if express {
            node.net_express_frames.add(1);
        }
        // Verify before decoding a single byte. A frame that fails is
        // dropped: corrupted ≡ lost, and the sender retransmits it.
        // Truncations are classified separately so the fault sweep can
        // tell a cut cable from a scrambled one.
        let pkt = match frame.open(WireIntegrity::Crc32c) {
            Ok(pkt) => pkt,
            Err(e) => {
                if e.is_truncation() {
                    node.net_truncated.add(1);
                } else {
                    node.net_corrupt_dropped.add(1);
                }
                continue;
            }
        };
        // The header's verified (src, dest) outranks the fabric's
        // routing stamp: a frame delivered to the wrong node — or one
        // naming an impossible peer (a CRC collision) — is dropped
        // before it can index any per-peer state.
        if pkt.dest != node.id || pkt.src as usize >= node.nodes {
            node.net_misrouted.add(1);
            continue;
        }
        let (src, src_lane) = (pkt.src, pkt.lane);
        let mut st = lock_recv(&state);
        let (expected, held) =
            st.accept(&node, pkt, chaos.as_deref(), gate.as_ref(), tap.as_ref());
        // Everything below `expected` is applied, and the map says what
        // is parked beyond it — before anything is in order too, or a
        // lost first packet would go unreported. Acks are best-effort
        // (the mailbox may be full, the link may drop them): each one
        // restates the whole receive state, so the next one or a
        // retransmission makes that safe.
        transport.send_ack(
            Ack {
                src: node.id,
                dest: src,
                lane: src_lane,
                cum_seq: expected.wrapping_sub(1),
            }
            .seal_holding(held, node.wire_epoch.load(Ordering::Relaxed), WireIntegrity::Crc32c),
        );
        node.net_acks_sent.add(1);
        drop(st);
        // Outside the receive-state lock, once per express packet and
        // never per reply: a work-group's replies leave together. Bulk
        // frames never get here.
        if let (true, Some(lane)) = (express, &lane) {
            lane.try_express_pass();
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GravelConfig;
    use gravel_gq::Message;
    use gravel_net::ChannelTransport;
    use gravel_pgas::{AmRegistry, DataFrame};

    fn setup(registry: AmRegistry) -> (Arc<NodeShared>, Arc<ChannelTransport>, Arc<ErrorSlot>) {
        let cfg = GravelConfig::small(1, 8);
        let node = Arc::new(NodeShared::new(0, &cfg, Arc::new(registry)));
        let transport = Arc::new(ChannelTransport::new(1, 1, 64));
        (node, transport, Arc::new(ErrorSlot::default()))
    }

    fn spawn(
        node: &Arc<NodeShared>,
        transport: &Arc<ChannelTransport>,
        errors: &Arc<ErrorSlot>,
    ) -> std::thread::JoinHandle<()> {
        let (node, transport, errors) = (node.clone(), transport.clone(), errors.clone());
        std::thread::spawn(move || run(node, transport, errors))
    }

    fn frame(lane: u32, seq: u64, words: &[u64]) -> DataFrame {
        let mut p = Packet::from_words(0, 0, words);
        p.lane = lane;
        p.seq = seq;
        p.seal(0, WireIntegrity::Crc32c)
    }

    fn packet(seq: u64, words: &[u64]) -> DataFrame {
        frame(0, seq, words)
    }

    #[test]
    fn applies_packets_and_acks_cumulatively() {
        let (node, transport, errors) = setup(AmRegistry::new());
        let handle = spawn(&node, &transport, &errors);
        let mut words = Vec::new();
        words.extend(Message::put(0, 2, 7).encode());
        words.extend(Message::inc(0, 2, 3).encode());
        transport.send_data(packet(0, &words), Duration::from_secs(1));
        // Wait for the cumulative ack instead of sleeping.
        let mut ack = None;
        assert!(crate::backoff::wait_for(Duration::from_secs(5), || {
            ack = transport.try_recv_ack(0, 0);
            ack.is_some()
        }));
        let (ack, held) = ack.unwrap().open(WireIntegrity::Crc32c).unwrap();
        assert_eq!((ack.src, ack.dest, ack.cum_seq, held), (0, 0, 0, 0));
        transport.close();
        handle.join().unwrap();
        assert_eq!(node.heap.load(2), 10);
        assert_eq!(node.applied.get(), 2);
        assert_eq!(node.net_acks_sent.get(), 1);
    }

    #[test]
    fn duplicates_are_suppressed_and_reacked() {
        let (node, transport, errors) = setup(AmRegistry::new());
        let handle = spawn(&node, &transport, &errors);
        let words = Message::inc(0, 1, 5).encode();
        transport.send_data(packet(0, &words), Duration::from_secs(1));
        transport.send_data(packet(0, &words), Duration::from_secs(1));
        transport.send_data(packet(0, &words), Duration::from_secs(1));
        assert!(crate::backoff::wait_for(Duration::from_secs(5), || {
            node.net_dups_suppressed.get() >= 2
        }));
        transport.close();
        handle.join().unwrap();
        // Applied exactly once despite three copies.
        assert_eq!(node.heap.load(1), 5);
        assert_eq!(node.applied.get(), 1);
        // Every copy (original + both dups) triggered a cumulative ack.
        assert_eq!(node.net_acks_sent.get(), 3);
    }

    #[test]
    fn out_of_order_packets_apply_in_sequence() {
        let ams = AmRegistry::new();
        let (node, transport, errors) = setup(ams);
        let handle = spawn(&node, &transport, &errors);
        // seq 1 (put 111) then seq 0 (put 222): in-order application
        // means slot 0 ends at 111, not 222.
        transport.send_data(
            packet(1, &Message::put(0, 0, 111).encode()),
            Duration::from_secs(1),
        );
        transport.send_data(
            packet(0, &Message::put(0, 0, 222).encode()),
            Duration::from_secs(1),
        );
        assert!(crate::backoff::wait_for(Duration::from_secs(5), || node
            .applied
            .get()
            >= 2));
        transport.close();
        handle.join().unwrap();
        assert_eq!(node.heap.load(0), 111);
    }

    #[test]
    fn independent_lanes_have_independent_sequences() {
        let (node, _, errors) = setup(AmRegistry::new());
        // Two ack mailboxes: this test exercises two sender lanes.
        let transport = Arc::new(ChannelTransport::new(1, 2, 64));
        let handle = spawn(&node, &transport, &errors);
        // Two flows, both starting at seq 0 — not duplicates of each other.
        let a = frame(0, 0, &Message::inc(0, 4, 1).encode());
        let b = frame(1, 0, &Message::inc(0, 4, 1).encode());
        transport.send_data(a, Duration::from_secs(1));
        transport.send_data(b, Duration::from_secs(1));
        assert!(crate::backoff::wait_for(Duration::from_secs(5), || node
            .applied
            .get()
            >= 2));
        transport.close();
        handle.join().unwrap();
        assert_eq!(node.heap.load(4), 2);
        assert_eq!(node.net_dups_suppressed.get(), 0);
    }

    #[test]
    fn corrupt_and_truncated_frames_are_classified_and_dropped() {
        let (node, transport, errors) = setup(AmRegistry::new());
        let handle = spawn(&node, &transport, &errors);
        let good = packet(0, &Message::put(0, 3, 42).encode());
        // Cut short mid-header: classified as truncation.
        let cut = DataFrame {
            bytes: good.bytes.slice(0..10),
            ..good.clone()
        };
        transport.send_data(cut, Duration::from_secs(1));
        // One flipped payload bit: fails the CRC.
        let mut mangled = good.bytes.to_vec();
        let at = mangled.len() - 6;
        mangled[at] ^= 0x40;
        let bad = DataFrame {
            bytes: bytes::Bytes::from(mangled),
            ..good.clone()
        };
        transport.send_data(bad, Duration::from_secs(1));
        // The pristine frame finally applies — exactly what the
        // retransmission of the dropped original looks like.
        transport.send_data(good, Duration::from_secs(1));
        assert!(crate::backoff::wait_for(Duration::from_secs(5), || node
            .applied
            .get()
            >= 1));
        transport.close();
        handle.join().unwrap();
        assert_eq!(node.heap.load(3), 42);
        assert_eq!(node.net_truncated.get(), 1);
        assert_eq!(node.net_corrupt_dropped.get(), 1);
        assert_eq!(node.quarantine.total(), 0);
    }

    #[test]
    fn misrouted_frames_are_dropped_before_flow_state() {
        let (node, transport, errors) = setup(AmRegistry::new());
        let handle = spawn(&node, &transport, &errors);
        // Verified header names src 7 on a 1-node cluster: an impossible
        // peer. The routing stamp still delivers it here; the receiver
        // must refuse it before touching any per-peer state.
        let mut p = Packet::from_words(7, 0, &Message::put(0, 1, 5).encode());
        p.seq = 0;
        transport.send_data(p.seal(0, WireIntegrity::Crc32c), Duration::from_secs(1));
        assert!(crate::backoff::wait_for(Duration::from_secs(5), || node
            .net_misrouted
            .get()
            >= 1));
        transport.close();
        handle.join().unwrap();
        assert_eq!(node.heap.load(1), 0);
        assert_eq!(node.applied.get(), 0);
    }

    #[test]
    fn poison_messages_quarantine_and_the_rest_applies() {
        let (node, transport, errors) = setup(AmRegistry::new());
        let handle = spawn(&node, &transport, &errors);
        let mut words = Vec::new();
        words.extend(Message::put(0, 2, 7).encode()); // fine
        words.extend(Message::active(0, 99, 0, 0).encode()); // unknown handler
        words.extend([u64::MAX, 0, 0, 0]); // undecodable command word
        words.extend(Message::put(0, 999, 1).encode()); // past the 8-slot heap
        words.extend(Message::inc(0, 2, 3).encode()); // fine
        transport.send_data(packet(0, &words), Duration::from_secs(1));
        assert!(crate::backoff::wait_for(Duration::from_secs(5), || node
            .applied
            .get()
            >= 5));
        transport.close();
        handle.join().unwrap();
        // The healthy messages applied around the poison ones.
        assert_eq!(node.heap.load(2), 10);
        // Every poison message was disposed for quiescence AND kept as
        // evidence with its provenance.
        assert_eq!(node.applied.get(), 5);
        let q = node.quarantine.drain();
        assert_eq!(q.len(), 3);
        assert_eq!(
            (q[0].reason, q[0].index),
            (QuarantineReason::UnknownHandler, 1)
        );
        assert_eq!((q[1].reason, q[1].index), (QuarantineReason::BadCommand, 2));
        assert_eq!((q[2].reason, q[2].index), (QuarantineReason::OutOfRange, 3));
        assert!(q.iter().all(|m| (m.src, m.lane, m.seq) == (0, 0, 0)));
        assert_eq!(node.quarantine.total(), 3);
    }

    /// The torn rest is quarantined, and the whole packet — what a
    /// [`PacketTap`] logs — replays to the same heap.
    #[test]
    fn a_torn_payload_applies_its_runs_and_replays_to_the_same_heap() {
        use gravel_pgas::runs::{run_header, RunKind};
        let node = NodeShared::new(0, &GravelConfig::small(1, 8), Arc::new(AmRegistry::new()));
        let msgs = [Message::inc(0, 1, 5).encode(), Message::put(0, 2, 6).encode()];
        let good = Packet::from_words(0, 0, msgs.as_flattened());
        // An INC run that claims nine records and carries one.
        let torn = [run_header(RunKind::Inc, 9), 3, 4];
        let mut bytes = good.payload.to_vec();
        bytes.extend(torn.iter().flat_map(|w| w.to_le_bytes()));
        let pkt = Packet::from_payload(0, 0, bytes.into());
        let mut cursor = 0;
        apply_packet(&node, &pkt, &mut cursor, None);
        assert_eq!((cursor, node.applied.get()), (0, 2));
        assert_eq!(node.heap.snapshot()[..3], [0, 5, 6]);
        let q = node.quarantine.drain();
        assert_eq!(q.len(), 1);
        assert_eq!(
            (q[0].reason, q[0].index, q[0].words),
            (QuarantineReason::PartialPayload, 2, [torn[0], 3, 4, 0])
        );
        // A replay skips the same malformed rest, so logging the whole
        // packet is exact.
        let keeper = Arc::new(crate::ha::Keeper::default());
        keeper.tap(0).on_packet_applied(&pkt);
        let log = keeper.recover(0);
        assert_eq!(log.packets.len(), 1);
        let replayed = gravel_pgas::SymmetricHeap::new(8);
        log.replay(&replayed, &node.ams).expect("no baseline to refuse");
        assert_eq!(replayed.snapshot(), node.heap.snapshot());
        assert_eq!(replayed.snapshot()[..3], [0, 5, 6]);
    }

    #[test]
    fn exits_on_close() {
        let (node, transport, errors) = setup(AmRegistry::new());
        let handle = spawn(&node, &transport, &errors);
        transport.close();
        handle.join().unwrap();
    }

    #[test]
    fn exits_on_cluster_error() {
        let (node, transport, errors) = setup(AmRegistry::new());
        let handle = spawn(&node, &transport, &errors);
        errors.set(crate::error::RuntimeError::WorkerPanic {
            thread: "t".into(),
            message: "m".into(),
        });
        handle.join().unwrap();
        assert!(!transport.is_closed());
    }

    /// The server's second hand-off is to the wire, not to its lane
    /// thread: with none running, a frame of GETs is answered on the
    /// wire only if the network thread's own express pass sent the
    /// replies — all of them as one packet, since the pass runs once
    /// per frame, not per reply.
    #[test]
    fn a_frame_of_gets_is_answered_by_the_network_threads_own_express_pass() {
        use crate::aggregator::Lane;
        use gravel_gq::Band;
        use gravel_pgas::{split_wire_lane, wire_lane, FlushPolicy};

        const GETS: u64 = 4;
        let mut cfg = GravelConfig::small(2, 8);
        // Each reply is a slot of its own: with no lane thread to drain
        // it, the express ring must hold them all.
        cfg.queue.slots = 8 * GETS as usize;
        let node = Arc::new(NodeShared::new(0, &cfg, Arc::new(AmRegistry::new())));
        for addr in 0..GETS {
            node.heap.store(addr, 500 + addr);
        }
        let transport = Arc::new(ChannelTransport::new(2, 1, 64));
        let errors = Arc::new(ErrorSlot::default());
        let policy = FlushPolicy::Fixed(Duration::from_secs(600));
        let lane = Lane::new(node.clone(), 0, transport.clone(), 1 << 20, policy, errors.clone());
        let handle = {
            let (node, transport, errors) = (node.clone(), transport.clone(), errors.clone());
            let (state, lane) = (Arc::new(Mutex::new(RecvState::new())), Some(Arc::new(lane)));
            std::thread::spawn(move || {
                run_with(node, transport, errors, state, None, None, None, lane)
            })
        };
        let gets: Vec<u64> = (0..GETS).flat_map(|a| Message::get(0, a, 40 + a, 1).encode()).collect();
        let mut get = Packet::from_words(1, 0, &gets);
        get.lane = wire_lane(0, Band::Express);
        get.seq = 0;
        transport.send_data(get.seal(0, WireIntegrity::Crc32c), Duration::from_secs(1));

        let reply = match transport.recv_data(1, Duration::from_secs(5)) {
            RecvStatus::Msg(f) => {
                assert!(f.is_express());
                f.open(WireIntegrity::Crc32c).expect("frame verifies")
            }
            other => panic!("expected the REPLY frame, got {other:?}"),
        };
        assert_eq!((reply.src, reply.dest), (0, 1));
        assert_eq!((split_wire_lane(reply.lane), reply.seq), ((0, Band::Express), 0));
        let replies: Vec<Option<Message>> = reply.messages().map(Message::decode).collect();
        let want: Vec<Option<Message>> =
            (0..GETS).map(|a| Some(Message::reply(1, 40 + a, 500 + a))).collect();
        assert_eq!(replies, want);
        transport.close();
        handle.join().unwrap();
        assert_eq!(node.queue.express().backlog(), 0);
        assert_eq!((node.rpc_replies_sent.get(), node.agg_express_packets.get()), (GETS, 1));
    }

    /// K bulk frames are already queued in the node's ingress when a GET
    /// arrives. The GET is served first — its reply is in the express
    /// ring before a single bulk message has applied — and nothing is
    /// out of order about that: it is the first packet of its own flow.
    #[test]
    fn a_get_is_served_ahead_of_the_bulk_frames_queued_before_it() {
        use gravel_gq::Band;
        use gravel_pgas::{split_wire_lane, wire_lane};

        struct Tap {
            node: Arc<NodeShared>,
            /// Per applied packet: band, seq, and the node's applied
            /// and offloaded totals right after it.
            seen: Mutex<Vec<(Band, u64, u64, u64)>>,
        }
        impl PacketTap for Tap {
            fn on_packet_applied(&self, pkt: &Packet) {
                let n = &self.node;
                self.seen.lock().unwrap().push((
                    split_wire_lane(pkt.lane).1,
                    pkt.seq,
                    n.applied.get(),
                    n.offloaded.get(),
                ));
            }
        }

        const K: u64 = 6;
        let cfg = GravelConfig::small(2, 8);
        let node = Arc::new(NodeShared::new(0, &cfg, Arc::new(AmRegistry::new())));
        node.heap.store(5, 555);
        let transport = Arc::new(ChannelTransport::new(2, 1, 64));
        let errors = Arc::new(ErrorSlot::default());
        let from_peer = |lane: u32, seq: u64, words: &[u64]| {
            let mut p = Packet::from_words(1, 0, words);
            p.lane = lane;
            p.seq = seq;
            p.seal(0, WireIntegrity::Crc32c)
        };
        let mut incs = Vec::new();
        for _ in 0..3 {
            incs.extend(Message::inc(0, 2, 1).encode());
        }
        for seq in 0..K {
            transport.send_data(from_peer(0, seq, &incs), Duration::from_secs(1));
        }
        let get = from_peer(
            wire_lane(0, Band::Express),
            0,
            &Message::get(0, 5, 42, 1).encode(),
        );
        assert!(get.is_express());
        transport.send_data(get, Duration::from_secs(1));

        // Only now does the network thread start.
        let tap = Arc::new(Tap {
            node: node.clone(),
            seen: Mutex::new(Vec::new()),
        });
        let handle = {
            let (node, transport, errors, tap) =
                (node.clone(), transport.clone(), errors.clone(), tap.clone());
            let state = Arc::new(Mutex::new(RecvState::new()));
            std::thread::spawn(move || {
                run_with(node, transport, errors, state, None, Some(tap), None, None)
            })
        };
        // The thread acks a packet after counting it applied: wait for
        // the last ack too, or closing the transport can drop it.
        assert!(crate::backoff::wait_for(Duration::from_secs(5), || {
            node.applied.get() == 1 + 3 * K && node.net_acks_sent.get() == 1 + K
        }));
        transport.close();
        handle.join().unwrap();

        let seen = tap.seen.lock().unwrap().clone();
        assert_eq!(
            seen[0],
            (Band::Express, 0, 1, 1),
            "GET applied first, its reply offloaded, no bulk message applied yet"
        );
        let bulk: Vec<_> = seen[1..].iter().map(|s| (s.0, s.1, s.2)).collect();
        let want: Vec<_> = (0..K)
            .map(|k| (Band::Bulk, k, 1 + 3 * (k + 1)))
            .collect();
        assert_eq!(bulk, want, "then the bulk frames, in their own order");
        assert_eq!(node.heap.load(2), 3 * K);
        // The reply went out through the express ring, to the requester.
        let mut out = Vec::new();
        assert_eq!(
            node.queue.express().try_consume_into(&mut out),
            gravel_gq::Consumed::Batch(1)
        );
        assert_eq!(
            Message::decode([out[0], out[1], out[2], out[3]]),
            Some(Message::reply(1, 42, 555))
        );
        assert_eq!(node.queue.ring(0).backlog(), 0);
        assert_eq!(node.net_express_frames.get(), 1);
        assert_eq!(
            node.net_ooo_parked.get(),
            0,
            "overtaking another band is not reordering"
        );
        // Both flows were acked into the one mailbox of the peer's lane
        // 0, each under its own wire lane.
        let mut acked = std::collections::BTreeMap::new();
        while let Some(a) = transport.try_recv_ack(1, 0) {
            let (a, held) = a.open(WireIntegrity::Crc32c).unwrap();
            assert_eq!(held, 0, "nothing was ever parked");
            acked.insert(a.lane, a.cum_seq);
        }
        assert_eq!(
            acked.into_iter().collect::<Vec<_>>(),
            vec![(0, K - 1), (wire_lane(0, Band::Express), 0)]
        );
    }
}

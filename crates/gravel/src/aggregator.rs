//! The aggregator thread (paper §3.4, §6).
//!
//! One CPU thread per node — the lane — drains the producer/consumer
//! queue and repacks messages into per-destination queues, which are
//! flushed when full or after the 125 µs timeout.
//! Flushed packets are handed to the lane's [`Sender`]
//! ([`crate::flow`]), which owns sequencing, acks and retransmission; a
//! flow that exhausts its retries is reported through the shared
//! [`ErrorSlot`], which unwinds the whole cluster instead of hanging
//! quiescence. The loop keeps draining the GPU ring and the ack mailbox
//! while a link is stalled, so backpressure can never deadlock the
//! reply path (netthread → ring → aggregator → netthread).
//!
//! The lane also drains the node's **express ring** (request-reply
//! traffic, DESIGN.md §15). It polls that ring first on every
//! iteration, and while it works through a bulk claim it looks at it
//! after every slot and puts the rest of the claim aside if something
//! is ready — so a GET or reply waits for at most the one bulk slot in
//! hand — and flushes the express queues the moment the ring reads
//! empty: whatever accumulated while the lane was busy leaves as one
//! packet, and nothing ever waits on a flush timer.
//!
//! That express pass is one function, `express_pass`, and the lane
//! thread is not its only caller: whoever publishes express traffic —
//! a host requester, the network thread that just enqueued replies —
//! runs it too, through [`Lane::try_express_pass`], whenever the lane's
//! state is free. A request then reaches the wire without waking the
//! lane thread at either end.

use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use gravel_gq::{
    Band, Claim, Consumed, GravelQueue, Message, ReplySink, ReplyState, RpcFailure, MSG_ROWS,
    NUM_BANDS,
};
use gravel_net::{ChaosPlan, Transport};
use gravel_pgas::{FlushPolicy, NodeQueues, Packet, QuarantineReason, QuarantinedMessage};

use crate::backoff::Backoff;
use crate::error::ErrorSlot;
use crate::flow::{Flow, FlowGauges, Sender};
use crate::node::NodeShared;

/// Park cap while waiting for in-flight packets to drain at shutdown.
const DRAIN_POLL: Duration = Duration::from_micros(200);

/// Park cap while flows still hold unacked packets (the ack mailbox has
/// no wakeup channel, so cap the nap to keep ack servicing snappy).
const UNACKED_POLL: Duration = Duration::from_micros(50);

/// Parks shorter than this aren't worth a condvar round-trip; spin
/// through them instead.
const MIN_PARK: Duration = Duration::from_micros(5);

/// Ring slots the lane claims per read-index CAS. Batching the claim
/// amortizes the consumer's synchronization the same way work-group
/// reservation amortizes the producer's.
const DRAIN_BATCH_SLOTS: usize = 8;

/// Index of the express and the bulk queue set in [`LaneState::nodeqs`].
const EXPRESS: usize = Band::Express.index();
const BULK: usize = Band::Bulk.index();

/// The slots a lane still holds claimed on one ring — each goes back to
/// the producers, and out of the claim, when its last message is in a
/// queue — and how many messages of the first of them are in the queues
/// already.
#[derive(Default)]
struct Cursor {
    claim: Claim,
    msg: usize,
}

impl Cursor {
    fn is_done(&self) -> bool {
        self.claim.slots == 0
    }
}

/// Restartable state of one aggregator lane, hoisted out of the thread
/// so a supervised restart resumes exactly where the predecessor died:
/// the per-destination aggregation queues, the sender's flows, and the
/// cursors into partially aggregated ring claims. The lane thread locks
/// it once per loop iteration and an inline express pass
/// ([`Lane::try_express_pass`]) only when it is free, so the lock never
/// makes anyone wait long; a panic mid-iteration leaves it poisoned,
/// which the restarted thread recovers from — injected chaos only
/// panics at message boundaries, where the state is consistent by
/// construction.
struct LaneState {
    /// Per-destination aggregation queues, one set per band (index =
    /// [`Band::index`]).
    nodeqs: Vec<NodeQueues>,
    flows: Vec<Flow>,
    /// The current bulk-ring claim.
    bulk: Cursor,
    /// The current express-ring claim.
    express: Cursor,
    /// Reusable flush scratch: timeout and flush-all packets travel
    /// queue → sender through this one vector, so the steady-state
    /// drain loop allocates nothing per batch.
    scratch: Vec<Packet>,
}

/// One aggregator lane: what its thread needs, and what an inline
/// express pass needs to stand in for it. Built once per lane and
/// shared (`Arc`) by the lane thread — across supervised restarts —
/// and by whoever publishes express traffic on the node.
pub struct Lane {
    node: Arc<NodeShared>,
    /// The lane's id on the wire: the sequence space its flows number
    /// in and the ack mailbox they are acknowledged through.
    slot: u32,
    transport: Arc<dyn Transport>,
    errors: Arc<ErrorSlot>,
    gauges: FlowGauges,
    state: Mutex<LaneState>,
}

impl Lane {
    /// Lane `slot` of `node` over `transport`: per-destination queues of
    /// `queue_bytes` flushed by `policy` (bulk; the express queues flush
    /// when the express ring reads empty), failures reported to
    /// `errors`. `slot` is 0 unless the node's transport carries another
    /// sender beside this one (`gravel-node`'s bulk packetizer is lane
    /// 0, its RPC lane 1).
    pub fn new(
        node: Arc<NodeShared>,
        slot: usize,
        transport: Arc<dyn Transport>,
        queue_bytes: usize,
        policy: FlushPolicy,
        errors: Arc<ErrorSlot>,
    ) -> Self {
        // One queue set per band: a packet's band is its set's. Every
        // set shares the node's `AggCounters`: one increment per flush
        // event, so per-slot snapshots can never drift.
        let nodeqs = (0..NUM_BANDS)
            .map(|_| {
                NodeQueues::with_policy(node.id, node.nodes, queue_bytes, policy, node.agg.clone())
                    .with_pool(node.pool.clone())
            })
            .collect();
        Lane {
            gauges: FlowGauges::of(&node),
            state: Mutex::new(LaneState {
                nodeqs,
                flows: Vec::new(),
                bulk: Cursor::default(),
                express: Cursor::default(),
                scratch: Vec::new(),
            }),
            node,
            slot: slot as u32,
            transport,
            errors,
        }
    }

    /// The node this lane drains.
    pub fn node(&self) -> &Arc<NodeShared> {
        &self.node
    }

    /// Run `express_pass` on the calling thread if the lane's state is
    /// free: take in the lane's acks, claim and aggregate the express
    /// ring until it reads empty, flush the express queues, and seal and
    /// send through the lane's own express flows. Called by whoever has
    /// just published express traffic. If the state is busy — the lane
    /// thread mid-iteration, or another publisher's pass — nothing is
    /// left waiting: the lane thread runs the pass at the top of every
    /// iteration, and the publish has already ended any park of it (both
    /// rings share its wait cell, and its park checks the express ring).
    /// Passes made here do not tick the lane's `ChaosPlan`: injected
    /// aggregator kills fire on the lane thread only.
    pub fn try_express_pass(&self) {
        // A frame of replies publishes nothing at the requester: no
        // lock, no empty claim.
        if !self.node.queue.express().has_ready() {
            return;
        }
        let mut st = match self.state.try_lock() {
            Ok(st) => st,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        let LaneState {
            nodeqs,
            flows,
            express,
            scratch,
            ..
        } = &mut *st;
        let (node, transport) = (&*self.node, self.transport.as_ref());
        let mut sender = Sender::new(node, self.slot, transport, flows, &self.gauges);
        // The acks of earlier passes free their frames (and pooled
        // buffers) now, not at the lane thread's next look.
        sender.drain_acks();
        express_pass(node, self.slot, None, express, nodeqs, scratch, &mut sender);
    }

    /// Issue one blocking request from this lane's node — a GET or
    /// value-returning AM call that `build` makes from its token and
    /// deadline — and run the express pass that puts it on the wire.
    /// Returns the reply's value, or the failure the pending-reply
    /// table assigned (timeout, restart, table full).
    pub fn host_rpc(&self, build: impl FnOnce(u64, u16) -> Message) -> Result<u64, RpcFailure> {
        let node = &self.node;
        let sink = Arc::new(ReplySink::new(1));
        let deadline = Instant::now() + node.rpc_timeout;
        let token = node
            .rpc
            .register(sink.clone(), 0, deadline)
            .map_err(|_| RpcFailure::TableFull)?;
        let deadline_ms = node.rpc_timeout.as_millis().min(u128::from(u16::MAX)) as u16;
        node.host_send(build(token, deadline_ms));
        self.try_express_pass();
        // The pending-table sweep enforces the real deadline (it fails
        // the slot as TimedOut); the wait bound here is a generous
        // backstop so a wedged cluster cannot park the caller forever.
        sink.wait_all(node.rpc_timeout * 2 + Duration::from_secs(1));
        match sink.get(0) {
            ReplyState::Ok(v) => Ok(v),
            ReplyState::Failed(f) => Err(f),
            ReplyState::Pending => Err(RpcFailure::TimedOut),
        }
    }
}

fn lock_state(state: &Mutex<LaneState>) -> MutexGuard<'_, LaneState> {
    state.lock().unwrap_or_else(|p| p.into_inner())
}

/// Run the aggregation loop until the queue is closed and every flow is
/// drained (or the cluster failed). This is the body of each node's
/// aggregator thread; see [`Lane::new`] for the arguments.
pub fn run(
    node: Arc<NodeShared>,
    slot: usize,
    transport: Arc<dyn Transport>,
    queue_bytes: usize,
    policy: FlushPolicy,
    errors: Arc<ErrorSlot>,
) {
    let lane = Lane::new(node, slot, transport, queue_bytes, policy, errors);
    run_supervised(Arc::new(lane), None);
}

/// `pkt`, flushed from `band`'s queue set, leaves through `sender`.
fn submit(node: &NodeShared, band: Band, pkt: Packet, sender: &mut Sender<'_>) {
    if band == Band::Express {
        node.agg_express_packets.add(1);
    }
    sender.submit(band, pkt);
}

/// The packets waiting in `scratch`, flushed from `band`'s queue set,
/// leave through `sender`.
fn submit_all(node: &NodeShared, band: Band, scratch: &mut Vec<Packet>, sender: &mut Sender<'_>) {
    for pkt in scratch.drain(..) {
        submit(node, band, pkt, sender);
    }
}

/// Aggregate `cur`'s claim on `ring` from its cursor to the end (fresh,
/// or inherited mid-way from a predecessor that panicked at the cursor)
/// in one pass: each message is read where the producer wrote it and
/// appended to the queue its band and destination select, and what
/// that fills goes to the sender at once. The chaos schedule ticks once
/// per message, before it is aggregated, so an injected kill leaves the
/// cursor on exactly the message the successor must start with. With
/// something ready on `urgent` (the express ring, while this is the
/// bulk ring's claim) the pass returns at the next slot boundary and
/// the rest of the claim waits in `cur`: a claim is up to eight slots,
/// and a request under a storm of bulk would wait for all of them at
/// the lane of either end. Kept a function: as a closure inside
/// `run_supervised` the per-message loop measured 2 ns slower.
#[allow(clippy::too_many_arguments)]
fn aggregate(
    node: &NodeShared,
    lane: u32,
    chaos: Option<&ChaosPlan>,
    ring: &GravelQueue,
    urgent: Option<&GravelQueue>,
    cur: &mut Cursor,
    nodeqs: &mut [NodeQueues],
    sender: &mut Sender<'_>,
) {
    let now = Instant::now();
    while !cur.is_done() {
        let seq = cur.claim.first;
        for words in ring.claimed(seq).messages::<MSG_ROWS>(cur.msg) {
            if chaos.is_some_and(|c| c.agg_tick(node.id, lane)) {
                panic!(
                    "chaos: aggregator {}/{} killed at injected drain step",
                    node.id, lane
                );
            }
            let dest = words[1] as usize;
            if dest < node.nodes {
                // The band picks the queue set; from here on only the
                // flow's lane bit records it.
                let band = Band::of_command_word(words[0]);
                if let Some(pkt) = nodeqs[band.index()].push(dest, &words, now) {
                    submit(node, band, pkt, sender);
                }
            } else {
                // No such node: as with a bad address at the receiver,
                // evidence of a sender bug and no reason to take the lane
                // down. Counted offloaded, so counted disposed.
                node.quarantine.push(QuarantinedMessage {
                    src: node.id,
                    lane,
                    seq,
                    index: cur.msg,
                    words,
                    reason: QuarantineReason::UnknownDest,
                });
                node.note_applied(1);
            }
            cur.msg += 1;
        }
        ring.release(seq);
        cur.claim.first += 1;
        cur.claim.slots -= 1;
        cur.msg = 0;
        if urgent.is_some_and(|u| u.has_ready() && !u.is_closed()) {
            // The rest of the claim waits in the cursor.
            return;
        }
    }
    // One wake for the whole claim. A lane killed above leaves the
    // slots it released unannounced; its successor gets here.
    ring.wake_producers();
}

/// The express pass: claim and aggregate the express ring (`cur` holds
/// the claim, fresh or inherited mid-way) until it reads empty, then
/// flush the express queue set, so whatever accumulated leaves as one
/// packet per destination — GETs, replies and AM calls together, in
/// publish order. The lane thread runs it at the
/// top of every iteration and a publisher through
/// [`Lane::try_express_pass`]; this is the only express code path.
/// Returns `false` once the express ring is closed and drained, leaving
/// the final flush to the lane's shutdown.
fn express_pass(
    node: &NodeShared,
    lane: u32,
    chaos: Option<&ChaosPlan>,
    cur: &mut Cursor,
    nodeqs: &mut [NodeQueues],
    scratch: &mut Vec<Packet>,
    sender: &mut Sender<'_>,
) -> bool {
    let express = node.queue.express();
    loop {
        if cur.is_done() {
            match express.try_claim(DRAIN_BATCH_SLOTS) {
                Consumed::Batch(claim) => *cur = Cursor { claim, msg: 0 },
                Consumed::Empty => break,
                Consumed::Closed => return false,
            }
        }
        let _span = node.tracer.span("agg.express", "aggregate", node.id);
        aggregate(node, lane, chaos, express, None, cur, nodeqs, sender);
    }
    scratch.clear();
    nodeqs[EXPRESS].flush_all_into(scratch);
    submit_all(node, Band::Express, scratch, sender);
    true
}

/// [`run`] on a [`Lane`] built by the caller (so a supervised restart
/// resumes the predecessor's flows and claim cursors exactly, and the
/// caller can hand the same lane to the node's express publishers),
/// with optional process-fault injection from `chaos`. Chaos panics
/// fire at the drain-step boundary *before* the message at the cursor
/// is aggregated, which is what makes restart-resume exact: the
/// restarted lane re-processes precisely that message.
pub fn run_supervised(lane: Arc<Lane>, chaos: Option<Arc<ChaosPlan>>) {
    let Lane {
        node,
        slot,
        transport,
        errors,
        gauges,
        state,
    } = &*lane;
    let (node, slot, chaos) = (&**node, *slot, chaos.as_deref());
    let ring = node.queue.ring(0);
    let express = node.queue.express();
    let mut idle = Backoff::new(Duration::from_millis(1));
    loop {
        // One short lock per iteration, never held while parked; an
        // inline express pass only ever try-locks it.
        let mut st = lock_state(state);
        let LaneState {
            nodeqs,
            flows,
            bulk,
            express: fast,
            scratch,
        } = &mut *st;
        let mut sender = Sender::new(node, slot, transport.as_ref(), flows, gauges);
        sender.drain_acks();
        if let Err(e) = sender.poll_retransmits() {
            errors.set(e);
            return;
        }
        if errors.is_set() {
            return;
        }
        // Express lane first. Strict priority cannot starve bulk: what
        // the express ring can hold is bounded by the pending-reply
        // table and by requesters that wait for their replies. No
        // `idle.reset()` for express work: a requester's next message
        // is a round trip away, far past the spin window, and its
        // publish ends a park anyway. A fresh yield loop per GET cost a
        // third of the bulk rate beside it.
        let express_open = express_pass(node, slot, chaos, fast, nodeqs, scratch, &mut sender);
        if !bulk.is_done() {
            let _span = node.tracer.span("agg.drain", "aggregate", node.id);
            aggregate(node, slot, chaos, ring, Some(express), bulk, nodeqs, &mut sender);
            // Once per batch, not only when the ring runs empty: a lone
            // message for a sparse destination must not wait for as
            // long as a dense stream elsewhere keeps the ring busy.
            let now = Instant::now();
            scratch.clear();
            nodeqs[BULK].poll_timeouts_into(now, scratch);
            submit_all(node, Band::Bulk, scratch, &mut sender);
            continue;
        }
        match ring.try_claim(DRAIN_BATCH_SLOTS) {
            Consumed::Batch(claim) => {
                // Aggregated by the cursor branch on the next iteration,
                // after another look at the express ring.
                *bulk = Cursor { claim, msg: 0 };
                node.agg_polls_hit.add(1);
                idle.reset();
            }
            Consumed::Empty => {
                node.agg_polls_empty.add(1);
                let now = Instant::now();
                scratch.clear();
                nodeqs[BULK].poll_timeouts_into(now, scratch);
                if !scratch.is_empty() {
                    let _span = node.tracer.span("agg.flush", "aggregate", node.id);
                    submit_all(node, Band::Bulk, scratch, &mut sender);
                }
                // Idle: spin briefly (work usually arrives within
                // microseconds on the hot path), then park on the ring's
                // wait cell instead of burning the core — the paper's
                // APU spent 65 % of it polling here. The park is bounded
                // by the earliest pending flush deadline (the express
                // queues are empty by now, they never hold a deadline),
                // and kept short while acks are outstanding (no wakeup
                // channel there).
                let deadline = nodeqs[BULK].next_deadline(now);
                let drained = sender.is_drained();
                drop(st);
                if idle.should_spin() {
                    node.net_spin_spins.add(1);
                    std::thread::yield_now();
                } else {
                    let mut park = idle.next_park();
                    if let Some(d) = deadline {
                        park = park.min(d);
                    }
                    if !drained {
                        park = park.min(UNACKED_POLL);
                    }
                    if park < MIN_PARK {
                        node.net_spin_spins.add(1);
                        std::thread::yield_now();
                    } else {
                        node.net_spin_parks.add(1);
                        // The express ring shares this ring's wait
                        // cell: a publish on either ends the park.
                        ring.park_for_ready_or(park, || express.has_ready());
                    }
                }
            }
            Consumed::Closed => {
                if express_open {
                    // `close()` shuts the express ring first, so it is
                    // closed by now; go round until it reads drained.
                    continue;
                }
                for band in Band::ALL {
                    scratch.clear();
                    nodeqs[band.index()].flush_all_into(scratch);
                    if !scratch.is_empty() {
                        let _span = node.tracer.span("agg.flush", "aggregate", node.id);
                        submit_all(node, band, scratch, &mut sender);
                    }
                }
                // Drain phase: hold the thread until every flow is
                // acknowledged, so shutdown cannot lose in-flight
                // packets. Bounded by the retry budget per flow.
                let mut bo = Backoff::new(DRAIN_POLL);
                while !sender.is_drained() && !errors.is_set() && !transport.is_closed() {
                    if let Err(e) = sender.service() {
                        errors.set(e);
                        break;
                    }
                    if bo.should_spin() {
                        node.net_spin_spins.add(1);
                    } else {
                        node.net_spin_parks.add(1);
                        bo.park_sleep();
                    }
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GravelConfig;
    use crate::error::RuntimeError;
    use gravel_net::{ChannelTransport, RecvStatus, RetryConfig, SendStatus};
    use gravel_pgas::{AmRegistry, WireIntegrity};

    fn spawn_node(nodes: usize) -> (Arc<NodeShared>, Arc<ChannelTransport>, Arc<ErrorSlot>) {
        let mut cfg = GravelConfig::small(nodes, 16);
        // Fast retry budget so the retransmission tests finish quickly.
        cfg.retry = RetryConfig {
            window: 64,
            backoff: Duration::from_micros(500),
            backoff_max: Duration::from_millis(5),
            max_retries: 10,
        };
        let transport = Arc::new(ChannelTransport::new(nodes, 1, 64));
        let node = Arc::new(NodeShared::new(0, &cfg, Arc::new(AmRegistry::new())));
        (node, transport, Arc::new(ErrorSlot::default()))
    }

    fn recv(t: &ChannelTransport, node: u32) -> Packet {
        match t.recv_data(node, Duration::from_secs(5)) {
            RecvStatus::Msg(f) => f.open(WireIntegrity::Crc32c).expect("frame verifies"),
            other => panic!("expected packet, got {other:?}"),
        }
    }

    fn send_ack(t: &ChannelTransport, src: u32, dest: u32, lane: u32, cum_seq: u64) {
        t.send_ack(
            gravel_net::Ack {
                src,
                dest,
                lane,
                cum_seq,
            }
            .seal(0, WireIntegrity::Crc32c),
        );
    }

    /// Ack every packet queued for `node`, returning them.
    fn ack_all(t: &ChannelTransport, node: u32) -> Vec<Packet> {
        let mut pkts = Vec::new();
        loop {
            match t.recv_data(node, Duration::from_millis(50)) {
                RecvStatus::Msg(f) => {
                    let p = f.open(WireIntegrity::Crc32c).expect("frame verifies");
                    send_ack(t, p.dest, p.src, p.lane, p.seq);
                    pkts.push(p);
                }
                _ => return pkts,
            }
        }
    }

    #[test]
    fn aggregator_routes_by_destination_and_flushes_on_close() {
        let (node, transport, errors) = spawn_node(3);
        for i in 0..5 {
            node.host_send(Message::inc(1, i, 1));
        }
        node.host_send(Message::put(2, 9, 9));
        node.queue.close();
        let handle = {
            let (node, transport, errors) = (node.clone(), transport.clone(), errors.clone());
            std::thread::spawn(move || {
                run(
                    node,
                    0,
                    transport,
                    1 << 20,
                    FlushPolicy::Fixed(Duration::from_millis(10)),
                    errors,
                )
            })
        };
        let p1 = recv(&transport, 1);
        assert_eq!(p1.msg_count(), 5);
        assert_eq!((p1.lane, p1.seq), (0, 0));
        send_ack(&transport, 1, 0, 0, 0);
        let p2 = recv(&transport, 2);
        assert_eq!(p2.msg_count(), 1);
        send_ack(&transport, 2, 0, 0, 0);
        handle.join().unwrap();
        assert!(!errors.is_set());
        let stats = node.stats().agg;
        assert_eq!(stats.packets, 2);
        assert_eq!(stats.messages, 6);
        assert_eq!(node.net_acks_received.get(), 2);
    }

    #[test]
    fn full_queue_flushes_before_close() {
        let (node, transport, errors) = spawn_node(2);
        // A run header and two INC records fill a 40-byte queue.
        let agg = {
            let (node, transport, errors) = (node.clone(), transport.clone(), errors.clone());
            std::thread::spawn(move || {
                run(
                    node,
                    0,
                    transport,
                    40,
                    FlushPolicy::Fixed(Duration::from_secs(10)),
                    errors,
                )
            })
        };
        for i in 0..4 {
            node.host_send(Message::inc(1, i, 1));
        }
        // Two full packets must arrive even though the queue stays open,
        // with consecutive sequence numbers.
        let a = recv(&transport, 1);
        let b = recv(&transport, 1);
        assert_eq!((a.len(), a.msg_count(), a.seq), (40, 2, 0));
        assert_eq!((b.len(), b.msg_count(), b.seq), (40, 2, 1));
        send_ack(&transport, 1, 0, 0, 1);
        node.queue.close();
        agg.join().unwrap();
    }

    #[test]
    fn timeout_flushes_partial_packet() {
        let (node, transport, errors) = spawn_node(2);
        let agg = {
            let (node, transport, errors) = (node.clone(), transport.clone(), errors.clone());
            std::thread::spawn(move || {
                run(
                    node,
                    0,
                    transport,
                    1 << 20,
                    FlushPolicy::Fixed(Duration::from_micros(100)),
                    errors,
                )
            })
        };
        node.host_send(Message::inc(1, 0, 1));
        // One lone message must arrive via the timeout path.
        let p = recv(&transport, 1);
        assert_eq!(p.msg_count(), 1);
        send_ack(&transport, 1, 0, 0, p.seq);
        node.queue.close();
        agg.join().unwrap();
        assert_eq!(node.stats().agg.timeout_flushes, 1);
    }

    #[test]
    fn unacked_packets_are_retransmitted() {
        let (node, transport, errors) = spawn_node(2);
        node.host_send(Message::inc(1, 0, 1));
        node.queue.close();
        let agg = {
            let (node, transport, errors) = (node.clone(), transport.clone(), errors.clone());
            std::thread::spawn(move || {
                run(
                    node,
                    0,
                    transport,
                    1 << 20,
                    FlushPolicy::Fixed(Duration::from_millis(1)),
                    errors,
                )
            })
        };
        // Swallow the first copy without acking; a retransmit must come.
        let first = recv(&transport, 1);
        let second = recv(&transport, 1);
        assert_eq!(first.seq, second.seq);
        assert_eq!(first.words(), second.words());
        // Ack it so the drain phase can finish.
        send_ack(&transport, 1, 0, 0, second.seq);
        agg.join().unwrap();
        assert!(!errors.is_set());
        // Read after the join: the sender counts a retransmission when
        // `send_data` returns, which is after the copy can be received.
        assert!(node.net_retransmits.get() >= 1);
    }

    #[test]
    fn retry_exhaustion_surfaces_as_error_not_hang() {
        let (node, transport, errors) = spawn_node(2);
        node.host_send(Message::inc(1, 0, 1));
        node.queue.close();
        let agg = {
            let (node, transport, errors) = (node.clone(), transport.clone(), errors.clone());
            std::thread::spawn(move || {
                run(
                    node,
                    0,
                    transport,
                    1 << 20,
                    FlushPolicy::Fixed(Duration::from_millis(1)),
                    errors,
                )
            })
        };
        // Never ack. The flow must exhaust its retries and die.
        agg.join().unwrap();
        assert!(errors.is_set());
        match errors.take() {
            Some(RuntimeError::RetryExhausted {
                src, dest, lane, ..
            }) => {
                assert_eq!((src, dest, lane), (0, 1, 0));
            }
            other => panic!("expected RetryExhausted, got {other:?}"),
        }
    }

    #[test]
    fn acked_flows_drain_cleanly_under_load() {
        let (node, transport, errors) = spawn_node(2);
        let acker = {
            let transport = transport.clone();
            std::thread::spawn(move || ack_all(&transport, 1))
        };
        // Aggregator first: 500 messages overflow the producer queue, so
        // the sends below need a live consumer.
        let agg = {
            let (node, transport, errors) = (node.clone(), transport.clone(), errors.clone());
            std::thread::spawn(move || {
                run(
                    node,
                    0,
                    transport,
                    64,
                    FlushPolicy::Fixed(Duration::from_millis(1)),
                    errors,
                )
            })
        };
        for i in 0..500 {
            node.host_send(Message::inc(1, i % 16, 1));
        }
        node.queue.close();
        agg.join().unwrap();
        let pkts = acker.join().unwrap();
        assert!(!errors.is_set());
        // A slow acker can trigger legitimate retransmissions; dedupe by
        // sequence number before checking delivery.
        let uniq: std::collections::BTreeMap<u64, usize> = pkts
            .iter()
            .map(|p| (p.seq, p.msg_count()))
            .collect();
        let msgs: usize = uniq.values().sum();
        assert_eq!(msgs, 500);
        // Sequence numbers are consecutive from 0.
        let seqs: Vec<u64> = uniq.keys().copied().collect();
        assert_eq!(seqs, (0..uniq.len() as u64).collect::<Vec<_>>());
    }

    /// A `ChannelTransport` that also records every data frame in the
    /// order it was put on the wire. The order-asserting tests below
    /// run with a window (the widest there is) and a channel wider than
    /// their traffic and a retransmit timer longer than their lifetime,
    /// so a packet is on the wire the moment the lane submits it,
    /// exactly once.
    struct WireLog {
        inner: ChannelTransport,
        sent: Mutex<Vec<Packet>>,
    }

    impl Transport for WireLog {
        fn nodes(&self) -> usize {
            self.inner.nodes()
        }
        fn lanes(&self) -> usize {
            self.inner.lanes()
        }
        fn send_data(&self, frame: gravel_pgas::DataFrame, timeout: Duration) -> SendStatus {
            let pkt = frame.open(WireIntegrity::Crc32c).expect("frame verifies");
            self.sent.lock().unwrap().push(pkt);
            self.inner.send_data(frame, timeout)
        }
        fn recv_data(&self, node: u32, timeout: Duration) -> RecvStatus<gravel_pgas::DataFrame> {
            self.inner.recv_data(node, timeout)
        }
        fn send_ack(&self, ack: gravel_net::AckFrame) {
            self.inner.send_ack(ack)
        }
        fn try_recv_ack(&self, node: u32, lane: u32) -> Option<gravel_net::AckFrame> {
            self.inner.try_recv_ack(node, lane)
        }
        fn close(&self) {
            self.inner.close()
        }
        fn is_closed(&self) -> bool {
            self.inner.is_closed()
        }
        fn data_depths(&self) -> Vec<usize> {
            self.inner.data_depths()
        }
        fn ack_depths(&self, node: u32) -> usize {
            self.inner.ack_depths(node)
        }
    }

    /// Node 0 of `nodes` on a [`WireLog`] fabric, its lane not started.
    fn logged_node(nodes: usize) -> (Arc<NodeShared>, Arc<WireLog>, Arc<ErrorSlot>) {
        let mut cfg = GravelConfig::small(nodes, 16);
        cfg.retry = RetryConfig {
            window: gravel_pgas::ACK_MAP_BITS,
            backoff: Duration::from_secs(600),
            backoff_max: Duration::from_secs(600),
            max_retries: 1,
        };
        let transport = Arc::new(WireLog {
            inner: ChannelTransport::new(nodes, 1, 4096),
            sent: Mutex::new(Vec::new()),
        });
        let node = Arc::new(NodeShared::new(0, &cfg, Arc::new(AmRegistry::new())));
        (node, transport, Arc::new(ErrorSlot::default()))
    }

    /// Start lane 0, wait until it has flushed `packets` packets, close
    /// the ring, acknowledge everything on the wire so the lane can
    /// exit, and return the wire log.
    fn run_logged(
        node: &Arc<NodeShared>,
        transport: &Arc<WireLog>,
        errors: &Arc<ErrorSlot>,
        queue_bytes: usize,
        policy: FlushPolicy,
        packets: u64,
    ) -> Vec<Packet> {
        let agg = {
            let (node, transport, errors) = (node.clone(), transport.clone(), errors.clone());
            std::thread::spawn(move || run(node, 0, transport, queue_bytes, policy, errors))
        };
        assert!(
            crate::backoff::wait_for(Duration::from_secs(30), || node.stats().agg.packets
                >= packets),
            "lane flushed {} of {packets} packets",
            node.stats().agg.packets
        );
        node.queue.close();
        ack_until_exit(agg, transport);
        assert!(!errors.is_set());
        let log = transport.sent.lock().unwrap().clone();
        log
    }

    /// The lane is past its last flush only once it is draining; ack
    /// whatever is on the wire until it exits.
    fn ack_until_exit(lane: std::thread::JoinHandle<()>, transport: &WireLog) {
        while !lane.is_finished() {
            let log = transport.sent.lock().unwrap().clone();
            for p in &log {
                send_ack(&transport.inner, p.dest, p.src, p.lane, p.seq);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        lane.join().expect("the lane exits cleanly");
    }

    #[test]
    fn a_get_behind_a_ring_of_bulk_is_the_first_frame_on_the_wire() {
        let (node, transport, errors) = logged_node(2);
        // Twelve bulk slots ahead of it in time, then one GET — all
        // offloaded before the lane takes its first look.
        for i in 0..12 {
            node.host_send(Message::inc(1, i, 1));
        }
        node.host_send(Message::get(1, 3, 77, 1));
        assert_eq!(
            (node.queue.ring(0).backlog(), node.queue.express().backlog()),
            (12, 1)
        );
        let log = run_logged(
            &node,
            &transport,
            &errors,
            1 << 20,
            FlushPolicy::Fixed(Duration::from_millis(1)),
            2,
        );
        assert_eq!(log.len(), 2, "one GET packet, one bulk packet");
        let (get, bulk) = (&log[0], &log[1]);
        assert_eq!(get.msg_count(), 1);
        assert_eq!(
            (gravel_pgas::split_wire_lane(get.lane), get.seq),
            ((0, gravel_gq::Band::Express), 0)
        );
        // The bulk flow numbers its packets on its own, from 0, on the
        // plain lane number.
        assert_eq!((bulk.lane, bulk.seq, bulk.msg_count()), (0, 0, 12));
        assert_eq!(node.agg_express_packets.get(), 1);
        assert_eq!(
            node.stats().agg.timeout_flushes,
            1,
            "only the bulk packet waited for a timer"
        );
    }

    #[test]
    fn a_work_groups_gets_leave_as_one_packet_when_the_express_ring_runs_empty() {
        let (node, transport, errors) = logged_node(2);
        let gets: Vec<Message> = (0..40).map(|i| Message::get(1, i % 16, i, 1)).collect();
        node.host_send_batch(&gets);
        assert_eq!(
            node.queue.express().backlog(),
            1,
            "one slot holds the whole batch"
        );
        let log = run_logged(
            &node,
            &transport,
            &errors,
            1 << 20,
            FlushPolicy::Fixed(Duration::from_secs(600)),
            1,
        );
        assert_eq!(log.len(), 1);
        assert_eq!(
            (gravel_pgas::split_wire_lane(log[0].lane).1, log[0].msg_count()),
            (Band::Express, 40)
        );
        assert_eq!(
            node.stats().agg.timeout_flushes,
            0,
            "no flush timer involved"
        );
    }

    /// A GET's first hand-off is to the wire, not to the lane thread:
    /// with no lane thread (and no network thread) running, the frame
    /// is there only if the requester's own express pass sent it.
    #[test]
    fn a_host_get_with_no_lane_thread_is_put_on_the_wire_by_its_caller() {
        let (node, transport, errors) = logged_node(2);
        let policy = FlushPolicy::Fixed(Duration::from_secs(600));
        let lane = Arc::new(Lane::new(node.clone(), 0, transport.clone(), 1 << 20, policy, errors));
        let caller = {
            let lane = lane.clone();
            std::thread::spawn(move || lane.host_rpc(|token, dl| Message::get(1, 3, token, dl)))
        };
        let get = recv(&transport.inner, 1);
        assert_eq!(get.msg_count(), 1);
        assert_eq!(
            (gravel_pgas::split_wire_lane(get.lane), get.seq),
            ((0, gravel_gq::Band::Express), 0)
        );
        let words = get.messages().next().expect("one message");
        let req = Message::decode(words).expect("a GET");
        assert_eq!((req.dest, req.addr), (1, 3));
        assert_eq!(node.queue.express().backlog(), 0, "the caller claimed it");
        assert_eq!(node.agg_express_packets.get(), 1);
        assert_eq!(transport.sent.lock().unwrap().len(), 1);
        // Complete it as the network thread would on the REPLY frame.
        assert!(node.rpc.complete(req.value, 555));
        assert_eq!(caller.join().unwrap(), Ok(555));
        assert_eq!((node.rpc.issued.get(), node.rpc.completed.get()), (1, 1));
    }

    /// One express pass that finds a GET, a REPLY and an AM_CALL for the
    /// same destination puts one packet on the wire — the three in
    /// publish order, on the express flow — and the receiver serves
    /// each of them.
    #[test]
    fn an_express_pass_sends_a_get_a_reply_and_an_am_call_as_one_packet() {
        use crate::netthread::{run_with, RecvState};
        let (node, transport, errors) = logged_node(2);
        // The receiver: node 1, with a returning handler and a pending
        // request for the REPLY to complete.
        let mut ams = AmRegistry::new();
        let double = ams.register_returning(Box::new(|h, a| 2 * h.load(a)));
        let peer = Arc::new(NodeShared::new(1, &GravelConfig::small(2, 16), Arc::new(ams)));
        peer.heap.store(3, 21);
        peer.heap.store(4, 50);
        let sink = Arc::new(ReplySink::new(1));
        let far = Instant::now() + Duration::from_secs(600);
        let token = peer.rpc.register(sink.clone(), 0, far).expect("room");
        let sent = [
            Message::get(1, 3, 70, 1),
            Message::reply(1, token, 99),
            Message::am_call(1, double, 4, 71, 1),
        ];
        // One slot: the express ring of this node holds two.
        node.host_send_batch(&sent);
        let policy = FlushPolicy::Fixed(Duration::from_secs(600));
        let lane = Lane::new(node.clone(), 0, transport.clone(), 1 << 20, policy, errors.clone());
        lane.try_express_pass();
        let log = transport.sent.lock().unwrap().clone();
        assert_eq!(log.len(), 1, "one packet for the whole pass");
        let pkt = &log[0];
        assert_eq!(
            (gravel_pgas::split_wire_lane(pkt.lane), pkt.seq),
            ((0, Band::Express), 0)
        );
        let got: Vec<Option<Message>> = pkt.messages().map(Message::decode).collect();
        assert_eq!(got, sent.map(Some));
        assert_eq!(node.agg_express_packets.get(), 1);

        let handle = {
            let (peer, transport) = (peer.clone(), transport.clone());
            let state = Arc::new(Mutex::new(RecvState::new()));
            std::thread::spawn(move || {
                run_with(peer, transport, errors, state, None, None, None, None)
            })
        };
        assert!(crate::backoff::wait_for(Duration::from_secs(5), || {
            peer.net_acks_sent.get() == 1
        }));
        transport.close();
        handle.join().unwrap();
        assert_eq!(sink.get(0), ReplyState::Ok(99), "the REPLY completed its request");
        let mut out = Vec::new();
        while let Consumed::Batch(_) = peer.queue.express().try_consume_into(&mut out) {}
        let replies: Vec<Option<Message>> =
            out.chunks_exact(MSG_ROWS).map(|w| Message::decode(w.try_into().unwrap())).collect();
        assert_eq!(
            replies,
            [Some(Message::reply(0, 70, 21)), Some(Message::reply(0, 71, 100))],
            "the GET and the AM_CALL answered, in order"
        );
    }

    /// A kill at every message of a three-slot claim: the lane dies with
    /// the slots before the cursor released and the rest still claimed,
    /// and its successor delivers every message exactly once.
    #[test]
    fn a_lane_killed_at_any_message_of_a_claim_resumes_on_that_message() {
        use gravel_net::ProcessFault;
        use gravel_pgas::{apply, SymmetricHeap};
        // Partial slots, weighted increments: a message applied twice or
        // not at all shows in the heap.
        let slots: [Vec<Message>; 3] = [3usize, 1, 4].map(|n| {
            (0..n as u64)
                .map(|i| Message::inc(1, (n as u64 + i) % 16, 1 + (n as u64 * 7 + i) * 1000))
                .collect()
        });
        let total: usize = slots.iter().map(Vec::len).sum();
        let heap_of = |msgs: &mut dyn Iterator<Item = Message>| {
            let heap = SymmetricHeap::new(16);
            for m in msgs {
                apply(&m, 0, &heap, &AmRegistry::new(), &mut |_| {});
            }
            heap.snapshot()
        };
        let want = heap_of(&mut slots.iter().flatten().copied());
        for kill_at in 1..=total {
            let (node, transport, errors) = logged_node(2);
            for slot in &slots {
                node.host_send_batch(slot);
            }
            node.queue.close();
            let lane = Arc::new(Lane::new(
                node.clone(),
                0,
                transport.clone(),
                64,
                FlushPolicy::Fixed(Duration::from_secs(600)),
                errors.clone(),
            ));
            let chaos = Arc::new(ChaosPlan::new(vec![ProcessFault::PanicAggregator {
                node: 0,
                slot: 0,
                at_step: kill_at as u64,
            }]));
            let spawn_lane = || {
                let (lane, chaos) = (lane.clone(), chaos.clone());
                std::thread::spawn(move || run_supervised(lane, Some(chaos)))
            };
            assert!(spawn_lane().join().is_err(), "kill {kill_at} fired");
            // The ledger: exactly the slots whose every message was
            // aggregated before the kill have gone back to the producers.
            let aggregated = kill_at - 1;
            let mut released = 0;
            for n in slots.iter().map(Vec::len) {
                if released + n > aggregated {
                    break;
                }
                released += n;
            }
            let stats = node.queue.stats.snapshot();
            assert_eq!(stats.messages_consumed, released as u64, "kill {kill_at}");
            assert_eq!(
                (stats.consumer_rmws, stats.consumer_hits),
                (1, 3),
                "one claim took all three slots"
            );
            // The successor inherits the claim and finishes it.
            ack_until_exit(spawn_lane(), &transport);
            assert!(!errors.is_set());
            assert_eq!(node.queue.stats.snapshot().messages_consumed, total as u64);
            let log = transport.sent.lock().unwrap().clone();
            let got = heap_of(
                &mut log
                    .iter()
                    .flat_map(|p| p.messages())
                    .map(|w| Message::decode(w).expect("an INC")),
            );
            assert_eq!(got, want, "kill {kill_at}");
            assert_eq!(node.stats().agg.messages, total as u64, "kill {kill_at}");
        }
    }

    /// The lone PUT for sparse destination 2 must leave when its
    /// timeout passes, not when the dense stream to destination 1 lets
    /// the ring run empty. The ring is preloaded with two drain batches
    /// and closed, so it never reads `Empty`: the only timeout poll
    /// that can flush the PUT is the one between the batches.
    #[test]
    fn a_lone_put_is_timeout_flushed_between_batches_of_a_busy_ring() {
        let (node, transport, errors) = logged_node(3);
        let batch = DRAIN_BATCH_SLOTS;
        node.host_send(Message::put(2, 9, 9));
        // Slots of two INCs for node 1: the rest of the first drain
        // batch, and all of a second one. (Thin slots keep the whole
        // stream — fifteen packets — inside the bulk window, so wire
        // order is flush order; how full a slot is plays no part in
        // when the lane polls its timeouts.)
        let dense: Vec<Message> = (0..(2 * batch - 1) * 2)
            .map(|i| Message::inc(1, (i % 16) as u64, 1))
            .collect();
        for slot in dense.chunks(2) {
            node.host_send_batch(slot);
        }
        assert_eq!(node.queue.ring(0).backlog(), 2 * batch as u64);
        node.queue.close();
        // Two INC records per packet, and an effective timeout of zero:
        // due at the first poll after the buffer opened.
        let dense_packets = dense.len() / 2;
        let log = run_logged(
            &node,
            &transport,
            &errors,
            40,
            FlushPolicy::Fixed(Duration::ZERO),
            dense_packets as u64 + 1,
        );
        assert_eq!(log.len(), dense_packets + 1);
        let first_batch_packets = batch - 1;
        assert_eq!(
            log.iter().position(|p| p.dest == 2),
            Some(first_batch_packets),
            "the PUT leaves right behind the first batch, ahead of the second"
        );
        let stats = node.stats().agg;
        assert_eq!(
            (stats.timeout_flushes, stats.full_flushes),
            (1, dense_packets as u64)
        );
    }
}

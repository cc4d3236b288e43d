//! The copy-out drain, kept as the differential oracle.
//!
//! Until PR 17 a lane drained in three passes: `try_consume_batch`
//! transposed the claimed slots into a vector, a scan cut the vector into
//! runs of one destination and class, and `push_run` packed each run.
//! [`aggregate_by_runs`] is that path, with the class now a band. The
//! property below
//! holds the one-pass [`aggregate`](super::aggregate) to it on a
//! single-threaded rig — same ring traffic, same claims — and demands the
//! same packets on the wire in the same order (flow — the wire lane, band
//! bit and all — sequence number, payload bytes), the same flush-reason
//! counters and the same queue statistics.

use std::collections::VecDeque;

use gravel_gq::{Command, Message, QueueConfig, StatsSnapshot};
use gravel_net::{Ack, AckFrame, RecvStatus, RetryConfig, SendStatus};
use gravel_pgas::{AggStats, AmRegistry, DataFrame, WireIntegrity};
use proptest::prelude::*;

use super::*;
use crate::config::GravelConfig;

/// Drain up to `max_slots` ready slots the way the lane did at PR 16.
fn aggregate_by_runs(
    node: &NodeShared,
    ring: &GravelQueue,
    max_slots: usize,
    nodeqs: &mut [NodeQueues],
    scratch: &mut Vec<Packet>,
    sender: &mut Sender<'_>,
) {
    let mut pending = Vec::new();
    if !matches!(
        ring.try_consume_batch(&mut pending, max_slots),
        Consumed::Batch(_)
    ) {
        return;
    }
    let rows = node.queue.config().rows;
    let now = Instant::now();
    let mut pos = 0;
    while pos < pending.len() {
        let dest = pending[pos + 1] as usize;
        let band = Band::of_command_word(pending[pos]);
        let mut end = pos;
        while end < pending.len()
            && pending[end + 1] as usize == dest
            && Band::of_command_word(pending[end]) == band
        {
            end += rows;
        }
        scratch.clear();
        nodeqs[band.index()].push_run(dest, &pending[pos..end], rows, now, scratch);
        submit_all(node, band, scratch, sender);
        pos = end;
    }
}

/// A fabric that keeps what it is sent and acknowledges it at once.
#[derive(Default)]
struct Wire {
    sent: Mutex<Vec<Packet>>,
    acks: Mutex<VecDeque<AckFrame>>,
}

impl Transport for Wire {
    fn nodes(&self) -> usize {
        8
    }
    fn lanes(&self) -> usize {
        1
    }
    fn send_data(&self, frame: DataFrame, _timeout: Duration) -> SendStatus {
        let pkt = frame.open(WireIntegrity::Crc32c).expect("frame verifies");
        let ack = Ack {
            src: pkt.dest,
            dest: pkt.src,
            lane: pkt.lane,
            cum_seq: pkt.seq,
        };
        self.acks
            .lock()
            .unwrap()
            .push_back(ack.seal(0, WireIntegrity::Crc32c));
        self.sent.lock().unwrap().push(pkt);
        SendStatus::Sent
    }
    fn recv_data(&self, _node: u32, _timeout: Duration) -> RecvStatus<DataFrame> {
        RecvStatus::TimedOut
    }
    fn send_ack(&self, _ack: AckFrame) {}
    fn try_recv_ack(&self, _node: u32, _lane: u32) -> Option<AckFrame> {
        self.acks.lock().unwrap().pop_front()
    }
    fn close(&self) {}
    fn is_closed(&self) -> bool {
        false
    }
    fn data_depths(&self) -> Vec<usize> {
        vec![0; 8]
    }
    fn ack_depths(&self, _node: u32) -> usize {
        self.acks.lock().unwrap().len()
    }
}

/// One ring slot's messages, then how many slots the lane may claim.
type Round = (Vec<Vec<Message>>, usize);

/// What a run leaves behind: the wire log (flow, sequence number,
/// payload) and both statistics blocks.
type Outcome = (Vec<(u32, u32, u64, Vec<u8>)>, AggStats, StatsSnapshot);

const LANE_WIDTH: usize = 8;
const RING_SLOTS: usize = 8;

/// Feed `rounds` through lane 0 of node 0 of `nodes`, draining with
/// `drain`, then flush what is left.
fn run_rig(
    nodes: usize,
    queue_bytes: usize,
    rounds: &[Round],
    drain: impl Fn(&NodeShared, usize, &mut [NodeQueues], &mut Vec<Packet>, &mut Sender<'_>),
) -> Outcome {
    let mut cfg = GravelConfig::small(nodes, 16);
    cfg.queue = QueueConfig {
        slots: RING_SLOTS,
        lane_width: LANE_WIDTH,
        rows: MSG_ROWS,
    };
    // No timer ever fires: the wire loses nothing.
    cfg.retry = RetryConfig {
        window: gravel_pgas::ACK_MAP_BITS,
        backoff: Duration::from_secs(600),
        backoff_max: Duration::from_secs(600),
        max_retries: 1,
    };
    let node = NodeShared::new(0, &cfg, Arc::new(AmRegistry::new()));
    let wire = Wire::default();
    let gauges = FlowGauges::of(&node);
    let mut flows = Vec::new();
    let mut scratch = Vec::new();
    let mut nodeqs: Vec<NodeQueues> = (0..NUM_BANDS)
        .map(|_| {
            NodeQueues::with_policy(
                0,
                nodes,
                queue_bytes,
                FlushPolicy::Fixed(Duration::from_secs(600)),
                node.agg.clone(),
            )
        })
        .collect();
    let ring = node.queue.ring(0);
    for (slots, max_slots) in rounds {
        // Both bands through the one ring: the lane's pass is the same
        // function for both rings, and a slot of mixed bands is its
        // hardest input.
        for slot in slots {
            let words: Vec<u64> = slot.iter().flat_map(|m| m.encode()).collect();
            ring.produce_batch(&words, slot.len());
        }
        let mut sender = Sender::new(&node, 0, &wire, &mut flows, &gauges);
        while ring.has_ready() {
            sender.drain_acks();
            drain(&node, *max_slots, &mut nodeqs, &mut scratch, &mut sender);
        }
    }
    let mut sender = Sender::new(&node, 0, &wire, &mut flows, &gauges);
    for band in Band::ALL {
        scratch.clear();
        nodeqs[band.index()].flush_all_into(&mut scratch);
        submit_all(&node, band, &mut scratch, &mut sender);
    }
    while !sender.is_drained() {
        sender.service().expect("nothing is lost");
    }
    let log = wire
        .sent
        .lock()
        .unwrap()
        .iter()
        .map(|p| (p.dest, p.lane, p.seq, p.payload.to_vec()))
        .collect();
    (log, node.agg.snapshot(), node.queue.stats.snapshot())
}

fn arb_message(nodes: usize) -> impl Strategy<Value = Message> {
    (0..nodes as u32, 0u64..16, any::<u64>(), 0u8..10).prop_map(|(dest, addr, value, kind)| {
        let command = match kind {
            0 => Command::Get { deadline_ms: 7 },
            1 => Command::Reply,
            2 => Command::AmCall {
                handler: 3,
                deadline_ms: 7,
            },
            3 => Command::Active(1),
            4..=6 => Command::Put,
            _ => Command::Inc,
        };
        Message {
            command,
            dest,
            addr,
            value,
        }
    })
}

/// 1–8 destinations; partial and full slots; up to a ring's worth of
/// slots between drains; claims of one slot to more than are ready.
fn arb_traffic() -> impl Strategy<Value = (usize, Vec<Round>)> {
    (1usize..=8).prop_flat_map(|nodes| {
        let slot = prop::collection::vec(arb_message(nodes), 1..=LANE_WIDTH);
        let round = (prop::collection::vec(slot, 1..=RING_SLOTS), 1usize..=10);
        (Just(nodes), prop::collection::vec(round, 1..6))
    })
}

/// A request or a reply waits for the bulk *slot* in hand, not for the
/// claim: with something ready on the express ring the pass over a bulk
/// claim returns at the next slot boundary, the rest of the claim stays
/// in the cursor, and the next call carries on from there.
#[test]
fn a_bulk_claim_yields_to_a_ready_express_ring_at_the_next_slot() {
    let mut cfg = GravelConfig::small(2, 16);
    cfg.queue = QueueConfig { slots: RING_SLOTS, lane_width: LANE_WIDTH, rows: MSG_ROWS };
    let node = NodeShared::new(0, &cfg, Arc::new(AmRegistry::new()));
    let wire = Wire::default();
    let gauges = FlowGauges::of(&node);
    let mut flows = Vec::new();
    let mut nodeqs: Vec<NodeQueues> = (0..NUM_BANDS)
        .map(|_| {
            let policy = FlushPolicy::Fixed(Duration::from_secs(600));
            NodeQueues::with_policy(0, 2, 1 << 16, policy, node.agg.clone())
        })
        .collect();
    let (ring, express) = (node.queue.ring(0), node.queue.express());
    for slot in 0..3u64 {
        let words: Vec<u64> =
            (0..2).flat_map(|i| Message::inc(1, slot, 10 * slot + i).encode()).collect();
        ring.produce_batch(&words, 2);
    }
    let Consumed::Batch(claim) = ring.try_claim(8) else { panic!("three slots are ready") };
    let mut cur = Cursor { claim, msg: 0 };
    let mut sender = Sender::new(&node, 0, &wire, &mut flows, &gauges);
    let consumed = || node.queue.stats.snapshot().messages_consumed;

    express.produce_batch(&Message::get(1, 0, 0, 1).encode(), 1);
    aggregate(&node, 0, None, ring, Some(express), &mut cur, &mut nodeqs, &mut sender);
    assert_eq!((cur.claim.first, cur.claim.slots, cur.msg), (claim.first + 1, 2, 0));
    assert_eq!(consumed(), 2, "one slot went back to the producers");

    // The lane's loop serves the express ring next ...
    let Consumed::Batch(urgent) = express.try_claim(8) else { panic!("the GET is ready") };
    aggregate(&node, 0, None, express, None, &mut Cursor { claim: urgent, msg: 0 }, &mut nodeqs, &mut sender);
    assert_eq!(consumed(), 3);
    // ... and with that ring empty the rest of the claim goes in one call.
    aggregate(&node, 0, None, ring, Some(express), &mut cur, &mut nodeqs, &mut sender);
    assert!(cur.is_done());
    assert_eq!(consumed(), 7);
}

/// Cases per property: CI's `release-oracles` job runs this in `--release`.
fn cases() -> u32 {
    std::env::var("GRAVEL_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 256 } else { 4096 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn one_pass_aggregation_puts_the_copy_out_paths_packets_on_the_wire(
        traffic in arb_traffic(),
        // One whole message or two records per packet; three records;
        // a capacity that is not a whole number of records
        // (flush-before-append); sizes a slot fills mid-way and exactly;
        // one nothing here fills.
        queue_bytes in prop_oneof![
            Just(40usize), Just(56), Just(100), Just(160), Just(264), Just(1 << 16)
        ],
    ) {
        let (nodes, rounds) = traffic;
        let by_runs = run_rig(nodes, queue_bytes, &rounds, |node, max, nodeqs, scratch, sender| {
            aggregate_by_runs(node, node.queue.ring(0), max, nodeqs, scratch, sender)
        });
        let one_pass = run_rig(nodes, queue_bytes, &rounds, |node, max, nodeqs, _, sender| {
            let ring = node.queue.ring(0);
            if let Consumed::Batch(claim) = ring.try_claim(max) {
                aggregate(node, 0, None, ring, None, &mut Cursor { claim, msg: 0 }, nodeqs, sender);
            }
        });
        let messages: usize = rounds.iter().flat_map(|(slots, _)| slots).map(Vec::len).sum();
        prop_assert_eq!(one_pass.1.messages, messages as u64);
        prop_assert_eq!(one_pass.2.messages_consumed, messages as u64);
        prop_assert_eq!(one_pass, by_runs);
    }
}

//! The per-message apply loop, kept as the differential oracle.
//!
//! Until PR 22 the network thread copied every message's words out of
//! the payload, ran them through `Message::decode`, tested for a reply
//! and dispatched through `pgas::apply` — what `apply_message` still
//! does for the words a run leaves it. [`apply_packet_by_message`] is
//! that loop over every message `Packet::messages` decodes. The
//! properties below hold the run-wise
//! [`apply_packet`](super::apply_packet) to it on packets that mix every
//! command with every way a message can be poison, and every way a
//! payload can stop making sense — same heap, same quiescence counts,
//! same quarantine entries, same replies in the same order, same
//! reply-table completions — and kill the run-wise loop before every
//! message of such a packet to see its successor finish the packet
//! exactly once.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gravel_gq::{Consumed, GravelQueue, QueueConfig, ReplySink, ReplyState, MSG_ROWS};
use gravel_net::ProcessFault;
use gravel_pgas::runs::{run_header, RunKind};
use gravel_pgas::AmRegistry;
use proptest::prelude::*;

use super::*;
use crate::config::GravelConfig;

const HEAP: u64 = 16;
/// Reply-table entries registered before the packet applies; their
/// tokens are `0..TOKENS` on a fresh node.
const TOKENS: u64 = 4;

/// Apply `pkt` the way the network thread did until PR 22: every
/// message, PUTs and INCs included, through one decode and one dispatch
/// ([`apply_message`]), counted one by one.
fn apply_packet_by_message(node: &NodeShared, pkt: &Packet) {
    let mut done = 0;
    let mut messages = pkt.messages();
    for (index, words) in messages.by_ref().enumerate() {
        if !apply_message(node, pkt, index, words) {
            node.note_applied(done);
            return;
        }
        done += 1;
    }
    if let Some(at) = messages.malformed_at() {
        let words = runs::fragment(&pkt.payload, at);
        quarantine(node, pkt, done as usize, words, QuarantineReason::PartialPayload);
    }
    node.note_applied(done);
}

/// A plain handler, a replying handler that emits one bulk and one
/// express message, and a returning handler.
fn handlers() -> AmRegistry {
    let mut ams = AmRegistry::new();
    ams.register(Box::new(|h, a, v| {
        h.fetch_add(a % HEAP, v);
    }));
    ams.register_replying(Box::new(|h, a, v, reply| {
        h.store(a % HEAP, v);
        reply(Message::inc(1, a % HEAP, v));
        reply(Message::reply(1, a, h.load((a + 1) % HEAP)));
    }));
    ams.register_returning(Box::new(|h, a| h.load(a % HEAP) ^ 0x55));
    ams
}

/// A fresh node 0 of a two-node cluster with a distinctive heap, rings
/// deep enough that a packet's replies never wait for a consumer, and
/// `TOKENS` pending replies; with the sink they complete into.
fn rig() -> (NodeShared, Arc<ReplySink>) {
    let mut cfg = GravelConfig::small(2, HEAP as usize);
    cfg.queue = QueueConfig {
        slots: 1024,
        lane_width: 4,
        rows: MSG_ROWS,
    };
    let node = NodeShared::new(0, &cfg, Arc::new(handlers()));
    for a in 0..HEAP {
        node.heap.store(a, 1000 * (a + 1));
    }
    let sink = Arc::new(ReplySink::new(TOKENS as usize));
    let deadline = Instant::now() + Duration::from_secs(3600);
    for slot in 0..TOKENS {
        let token = node.rpc.register(sink.clone(), slot as usize, deadline);
        assert_eq!(token.ok(), Some(slot));
    }
    (node, sink)
}

/// One message as raw words: every command, addressed in and out of
/// range, and every kind of word `Message::decode` refuses.
fn arb_words() -> impl Strategy<Value = [u64; MSG_ROWS]> {
    // In range mostly; just past the end; far past it.
    let addr = prop_oneof![8 => 0..HEAP, 1 => HEAP..HEAP + 2, 1 => any::<u64>()];
    // PUT and INC decode from the low half of the command word alone.
    let put_inc = (0u64..2, prop_oneof![6 => Just(0u64), 1 => any::<u64>()])
        .prop_map(|(op, high)| op | high << 32);
    // Handler 2 is unknown in both tables' id spaces below.
    let command = prop_oneof![
        16 => put_inc,
        2 => (0u32..3).prop_map(|h| Command::Active(h).encode()),
        2 => any::<u16>().prop_map(|deadline_ms| Command::Get { deadline_ms }.encode()),
        2 => Just(Command::Reply.encode()),
        2 => (0u32..2, any::<u16>())
            .prop_map(|(handler, deadline_ms)| Command::AmCall { handler, deadline_ms }.encode()),
        // Junk above the opcode byte of a PUT or INC, reserved bits set
        // on a request-reply opcode, unknown opcodes.
        1 => (0u64..2, 1u64..1 << 24).prop_map(|(op, junk)| op | junk << 8),
        1 => (4u64..7, 1u64..256).prop_map(|(op, junk)| op | junk << 8),
        1 => (5u64..6, 1u64..u64::from(u32::MAX)).prop_map(|(op, junk)| op | junk << 32),
        1 => any::<u64>().prop_map(|w| w | 8),
    ];
    // A REPLY's address is its token: pending, spent twice, unknown, or
    // from another generation.
    let token = prop_oneof![4 => 0..TOKENS + 2, 1 => (0..TOKENS).prop_map(|t| t | 1 << 56)];
    (command, any::<u32>(), addr, token, 0u64..1000).prop_map(|(cmd, dest, addr, token, value)| {
        let addr = if cmd == Command::Reply.encode() {
            token
        } else {
            addr
        };
        [cmd, u64::from(dest), addr, value]
    })
}

/// The end of a payload that stops making sense (a sender other than
/// the runtime's sealed it so): a header of an unknown kind, a run of
/// no records, a run whose records overrun the payload, or bytes short
/// of a header — each with some junk behind it.
fn arb_torn_tail() -> impl Strategy<Value = Vec<u8>> {
    let header = prop_oneof![
        any::<u32>().prop_map(|code| u64::from(code.max(4))),
        (1u32..4).prop_map(|kind| run_header(RunKind::of_code(kind).unwrap(), 0)),
        (1u32..4).prop_map(|kind| run_header(RunKind::of_code(kind).unwrap(), 9)),
    ];
    let junk = prop::collection::vec(any::<u8>(), 0..24);
    prop_oneof![
        (header, junk).prop_map(|(h, mut junk)| {
            junk.truncate(junk.len() / 8 * 8);
            [h.to_le_bytes().to_vec(), junk].concat()
        }),
        prop::collection::vec(any::<u8>(), 1..8),
    ]
}

/// A packet from node 1 to node 0: up to `max` messages — exact PUT and
/// INC command words travel as records — rarely one shutdown sentinel
/// among them, and (with integrity off on the wire) sometimes a
/// malformed end.
fn arb_packet(max: usize) -> impl Strategy<Value = Packet> {
    let shutdown = prop_oneof![9 => Just(None), 1 => any::<usize>().prop_map(Some)];
    let tail = prop_oneof![3 => Just(Vec::new()), 1 => arb_torn_tail()];
    (prop::collection::vec(arb_words(), 0..=max), shutdown, tail).prop_map(
        |(mut msgs, shutdown, tail)| {
            if let Some(at) = shutdown.filter(|_| !msgs.is_empty()) {
                let at = at % msgs.len();
                msgs[at] = Message::shutdown().encode();
            }
            let encoded = Packet::from_words(1, 0, msgs.as_flattened());
            let bytes = [encoded.payload.to_vec(), tail].concat();
            let mut pkt = Packet::from_payload(1, 0, bytes::Bytes::from(bytes));
            (pkt.lane, pkt.seq) = (3, 9);
            pkt
        },
    )
}

fn drain(ring: &GravelQueue) -> Vec<u64> {
    let mut out = Vec::new();
    while let Consumed::Batch(_) = ring.try_consume_into(&mut out) {}
    out
}

/// Everything applying a packet leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    heap: Vec<u64>,
    applied: u64,
    offloaded: u64,
    quarantined: Vec<QuarantinedMessage>,
    /// Reply messages in ring order: the express ring, the bulk ring.
    replies: [Vec<u64>; 2],
    replies_sent: u64,
    /// `rpc.completed`, `rpc.orphan_replies`, `rpc.stale_rejected`.
    rpc: [u64; 3],
    sink: Vec<ReplyState>,
}

fn outcome(node: &NodeShared, sink: &ReplySink) -> Outcome {
    Outcome {
        heap: node.heap.snapshot(),
        applied: node.applied.get(),
        offloaded: node.offloaded.get(),
        quarantined: node.quarantine.drain(),
        replies: [drain(node.queue.express()), drain(node.queue.ring(0))],
        replies_sent: node.rpc_replies_sent.get(),
        rpc: [
            node.rpc.completed.get(),
            node.rpc.orphan_replies.get(),
            node.rpc.stale_rejected.get(),
        ],
        sink: (0..TOKENS as usize).map(|slot| sink.get(slot)).collect(),
    }
}

fn by_message(pkt: &Packet) -> Outcome {
    let (node, sink) = rig();
    apply_packet_by_message(&node, pkt);
    outcome(&node, &sink)
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
    fn run_wise_apply_leaves_what_the_per_message_loop_leaves(pkt in arb_packet(96)) {
        let (node, sink) = rig();
        let mut cursor = 0;
        apply_packet(&node, &pkt, &mut cursor, None);
        prop_assert_eq!(cursor, 0, "a finished packet leaves no resume point");
        prop_assert_eq!(outcome(&node, &sink), by_message(&pkt));
    }

    /// Every message index of a mixed packet, killed there once: the
    /// dying call has disposed of exactly the messages before it and
    /// says so in the cursor and the quiescence count; the successor
    /// resumes on that message and the packet ends up applied once.
    #[test]
    fn a_thread_killed_before_any_message_resumes_on_that_message(pkt in arb_packet(12)) {
        let want = by_message(&pkt);
        // The loop ticks before every message it reads: all of them, or
        // up to and including a shutdown sentinel.
        let ticks = (want.applied as usize + 1).min(pkt.msg_count());
        for kill_at in 1..=ticks {
            let chaos = ChaosPlan::new(vec![ProcessFault::PanicNet {
                node: 0,
                at_step: kill_at as u64,
            }]);
            let (node, sink) = rig();
            let mut cursor = 0;
            let died = catch_unwind(AssertUnwindSafe(|| {
                apply_packet(&node, &pkt, &mut cursor, Some(&chaos))
            }));
            prop_assert!(died.is_err(), "kill {} fired", kill_at);
            prop_assert_eq!(cursor, kill_at - 1);
            prop_assert_eq!(node.applied.get(), kill_at as u64 - 1);
            apply_packet(&node, &pkt, &mut cursor, Some(&chaos));
            prop_assert_eq!(cursor, 0);
            let got = outcome(&node, &sink);
            // The malformed end is evidence only the call that reaches
            // it records: once.
            prop_assert_eq!(&got, &want, "kill {}", kill_at);
        }
    }
}

/// A handler that panics takes the thread down mid-packet like a kill
/// does, from inside the general path: the cursor names its message and
/// the messages before it are counted.
#[test]
fn a_panicking_handler_leaves_the_cursor_on_its_message() {
    let mut ams = AmRegistry::new();
    ams.register(Box::new(|_, _, _| panic!("handler bug")));
    let node = NodeShared::new(0, &GravelConfig::small(2, 8), Arc::new(ams));
    let mut words = Vec::new();
    words.extend(Message::inc(0, 1, 5).encode());
    words.extend(Message::put(0, 2, 6).encode());
    words.extend(Message::active(0, 0, 0, 0).encode());
    words.extend(Message::inc(0, 1, 5).encode());
    let pkt = Packet::from_words(1, 0, &words);
    let mut cursor = 0;
    let died = catch_unwind(AssertUnwindSafe(|| {
        apply_packet(&node, &pkt, &mut cursor, None)
    }));
    assert!(died.is_err());
    assert_eq!((cursor, node.applied.get()), (2, 2));
    assert_eq!(node.heap.snapshot()[..3], [0, 5, 6]);
}

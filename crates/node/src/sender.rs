//! Deterministic GUPS sender flows over the socket transport.
//!
//! The update stream is *packetized deterministically*: node `i`'s
//! updates (a pure function of the seed) are mapped to messages, split
//! by destination in stream order, and chunked into packets of a fixed
//! message count. Packet `k` of flow `i → j` therefore has identical
//! bytes on every run — which is what makes restart trivial: a
//! restarted sender re-sends from sequence 0, receivers recognize
//! already-applied sequences as duplicates, re-ack them, and the window
//! fast-forwards to where it was. No sender-side durable state at all.
//!
//! Delivery is the core go-back-N engine ([`gravel_core::flow`]) — the
//! same one the in-process aggregator runs; this module only decides
//! *what* the packets are. The binary configures it with no retry
//! budget: a dead peer is expected to come back (that is the whole
//! point of this binary), so the sender retries until the run
//! deadline. The node's own updates loop back through the transport as
//! a normal sequenced flow — one delivery path, not two.

use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use gravel_apps::gups::{self, GupsInput};
use gravel_core::flow::{in_flight_gauge, Sender};
use gravel_core::{ErrorSlot, NodeShared};
use gravel_gq::Message;
use gravel_net::Transport;
use gravel_pgas::Packet;

/// One destination flow's precomputed packets (message words, 4 per
/// message, up to `msgs_per_packet` messages each).
pub struct FlowPlan {
    pub dest: u32,
    pub packets: Vec<Vec<u64>>,
}

/// Deterministically packetize this node's GUPS update stream: one flow
/// per destination that receives at least one update, packets chunked
/// in stream order.
pub fn plan_flows(
    input: &GupsInput,
    nodes: usize,
    me: u32,
    msgs_per_packet: usize,
) -> Vec<FlowPlan> {
    assert!(msgs_per_packet > 0);
    let dir = gups::directory(input, nodes);
    let mut streams: Vec<Vec<Message>> = vec![Vec::new(); nodes];
    for g in gups::node_updates(input, nodes, me as usize) {
        let r = dir.route(g);
        streams[r.dest as usize].push(Message::inc(r.dest, r.offset, 1));
    }
    streams
        .into_iter()
        .enumerate()
        .filter(|(_, msgs)| !msgs.is_empty())
        .map(|(dest, msgs)| FlowPlan {
            dest: dest as u32,
            packets: msgs
                .chunks(msgs_per_packet)
                .map(|chunk| chunk.iter().flat_map(|m| m.encode()).collect())
                .collect(),
        })
        .collect()
}

/// How many packets flow `src → dest` carries — the receiver's
/// termination condition is `expected == this` for every source, and
/// it is computable on any node without communication.
pub fn expected_packets(
    input: &GupsInput,
    nodes: usize,
    src: u32,
    dest: u32,
    msgs_per_packet: usize,
) -> u64 {
    let dir = gups::directory(input, nodes);
    let msgs = gups::node_updates(input, nodes, src as usize)
        .into_iter()
        .filter(|&g| dir.route(g).dest == dest)
        .count();
    msgs.div_ceil(msgs_per_packet) as u64
}

/// Drive every flow to full acknowledgement: feed the plans' packets,
/// in order, to the shared go-back-N engine on wire lane 0 as its
/// window opens. Returns `true` when every packet is acked; `false` on
/// stop/deadline/transport-close (or a flow error, left in `errors`).
///
/// A restarted process calls this with the same plan and fresh engine
/// state: it restamps from sequence 0, the peers' cumulative acks
/// report how far the previous incarnation got, and the engine retires
/// everything below that without resending it.
pub fn run_sender(
    transport: &dyn Transport,
    node: &NodeShared,
    plans: &[FlowPlan],
    errors: &ErrorSlot,
    stop: &AtomicBool,
    deadline: Instant,
) -> bool {
    let in_flight = in_flight_gauge(node);
    let mut flows = Vec::new();
    let mut sender = Sender::new(node, 0, transport, &mut flows, &in_flight);
    // Next unsubmitted packet of each plan.
    let mut cursors = vec![0usize; plans.len()];
    loop {
        let fed = plans.iter().zip(&cursors).all(|(p, &c)| c == p.packets.len());
        if fed && sender.is_drained() {
            return true;
        }
        if stop.load(Relaxed) || Instant::now() >= deadline || transport.is_closed() {
            return false;
        }
        if let Err(e) = sender.service() {
            errors.set(e);
            return false;
        }
        let mut progressed = false;
        for (plan, cursor) in plans.iter().zip(&mut cursors) {
            while *cursor < plan.packets.len() && sender.has_room(plan.dest as usize) {
                let words = &plan.packets[*cursor];
                node.note_offloaded((words.len() / gravel_gq::MSG_ROWS) as u64);
                sender.submit(Packet::from_words(node.id, plan.dest, words));
                *cursor += 1;
                progressed = true;
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_cover_every_update() {
        let input = GupsInput { updates: 1000, table_len: 64, seed: 9 };
        let a = plan_flows(&input, 3, 1, 8);
        let b = plan_flows(&input, 3, 1, 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.dest, y.dest);
            assert_eq!(x.packets, y.packets);
        }
        let msgs: usize = a
            .iter()
            .flat_map(|f| &f.packets)
            .map(|p| p.len() / gravel_gq::MSG_ROWS)
            .sum();
        assert_eq!(msgs, gups::node_updates(&input, 3, 1).len());
    }

    #[test]
    fn expected_packets_matches_the_plan() {
        let input = GupsInput { updates: 777, table_len: 32, seed: 3 };
        for src in 0..3u32 {
            let plans = plan_flows(&input, 3, src, 5);
            for dest in 0..3u32 {
                let planned = plans
                    .iter()
                    .find(|f| f.dest == dest)
                    .map_or(0, |f| f.packets.len() as u64);
                assert_eq!(expected_packets(&input, 3, src, dest, 5), planned);
            }
        }
    }
}

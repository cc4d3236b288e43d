//! Deterministic GUPS sender flows over the socket transport.
//!
//! The update stream is *packetized deterministically*: node `i`'s
//! updates (a pure function of the seed) are mapped to messages, split
//! by destination in stream order, and chunked into packets of a fixed
//! message count. A packet is what the paper's aggregator would hand
//! the NIC: by default one full per-destination queue,
//! [`DEFAULT_MSGS_PER_PACKET`] messages = 64 kB, so the sealed frame,
//! the buddy forward and the ack it costs are paid once per 2048
//! updates (`--msgs-per-packet` shrinks it for tests that need many
//! packets to aim a kill at). Packet `k` of flow `i → j` has identical
//! bytes on every run — which is what makes restart trivial: a
//! restarted sender re-sends from sequence 0, receivers recognize
//! already-applied sequences as duplicates, re-ack them, and the window
//! fast-forwards to where it was. No sender-side durable state at all.
//!
//! Delivery is the core flow engine ([`gravel_core::flow`]) — the
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
use gravel_core::flow::{FlowGauges, Sender};
use gravel_core::{ErrorSlot, NodeShared};
use gravel_gq::{Message, MSG_BYTES, MSG_ROWS};
use gravel_net::Transport;
use gravel_pgas::{Packet, ACK_MAP_BITS, DEFAULT_QUEUE_BYTES};

/// Messages per packet unless `--msgs-per-packet` says otherwise: the
/// paper's 64 kB per-node queue, full.
pub const DEFAULT_MSGS_PER_PACKET: usize = DEFAULT_QUEUE_BYTES / MSG_BYTES;

/// Update bytes a flow keeps in flight to one destination — on the wire
/// and not yet reported by the receiver, cumulatively or in an ack's
/// map — at most: a few times what a stream socket buffers, so the pipe
/// stays full, and little enough that a receiver fed by every peer at
/// once works its queue off well inside the retransmit timer. (At 32 ×
/// 64 kB per flow it does not on a loaded two-core host, and every
/// expiry re-sends the 2 MB the receiver has yet to report for
/// nothing.) A socket loses nothing, so here the receiver reports only
/// cumulatively and this is everything unacknowledged. Under loss,
/// frames parked behind a hole are reported and stop counting, and the
/// flow may run up to twice this past the cumulative point
/// (`gravel_core::flow`'s span) — which is also the most a receiver's
/// reorder buffer holds of one flow.
const IN_FLIGHT_BYTES: usize = 512 * 1024;

/// Most packets a flow keeps in flight, however small they are.
const IN_FLIGHT_PACKETS: usize = 32;

/// The delivery window for flows of `msgs_per_packet`-message packets.
/// The update streams are bulk flows, whose window is half of it, so
/// this is twice the packets allowed in flight: [`IN_FLIGHT_BYTES`]
/// worth, but never more than [`IN_FLIGHT_PACKETS`] (small packets are
/// bounded by count, as they always were) and never fewer than 2. The
/// widest window still fits an ack's selective map, which is what
/// `GravelConfig::validate` asks of any window, and so does the span
/// of the bulk flows it makes (twice their window: this number again).
pub fn window_for(msgs_per_packet: usize) -> usize {
    const _: () = assert!(2 * IN_FLIGHT_PACKETS <= ACK_MAP_BITS);
    2 * (IN_FLIGHT_BYTES / (msgs_per_packet * MSG_BYTES)).clamp(2, IN_FLIGHT_PACKETS)
}

/// One destination flow's whole message stream, encoded: `MSG_ROWS`
/// words per message, in stream order.
pub struct FlowPlan {
    pub dest: u32,
    pub words: Vec<u64>,
}

impl FlowPlan {
    /// The flow's packets: the stream in runs of `msgs_per_packet`
    /// messages (the last one may be short).
    pub fn packets(&self, msgs_per_packet: usize) -> std::slice::Chunks<'_, u64> {
        assert!(msgs_per_packet > 0);
        self.words.chunks(msgs_per_packet * MSG_ROWS)
    }
}

/// Deterministically route this node's GUPS update stream: one flow per
/// destination that receives at least one update, each update encoded
/// straight into its flow's word buffer in stream order.
pub fn plan_flows(input: &GupsInput, nodes: usize, me: u32) -> Vec<FlowPlan> {
    let dir = gups::directory(input, nodes);
    let updates = gups::update_stream(input, nodes, me as usize);
    // Uniform scatter: a little over an even share each.
    let share = (updates.len() / nodes + updates.len() / (8 * nodes) + 16) * MSG_ROWS;
    let mut plans: Vec<FlowPlan> = (0..nodes as u32)
        .map(|dest| FlowPlan { dest, words: Vec::with_capacity(share) })
        .collect();
    for g in updates {
        let r = dir.route(g);
        plans[r.dest as usize].words.extend(Message::inc(r.dest, r.offset, 1).encode());
    }
    plans.retain(|p| !p.words.is_empty());
    plans
}

/// How many packets each flow `src → dest` carries, indexed by `src` —
/// the receiver's termination condition is `expected == this` for
/// every source, and it is computable on any node without
/// communication: one counting pass over every source's stream.
pub fn expected_packets(
    input: &GupsInput,
    nodes: usize,
    dest: u32,
    msgs_per_packet: usize,
) -> Vec<u64> {
    let dir = gups::directory(input, nodes);
    (0..nodes)
        .map(|src| {
            let msgs = gups::update_stream(input, nodes, src)
                .filter(|&g| dir.route(g).dest == dest)
                .count();
            msgs.div_ceil(msgs_per_packet) as u64
        })
        .collect()
}

/// Drive every flow to full acknowledgement: feed the plans' packets,
/// in order, to the shared flow engine on wire lane 0 as its
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
    msgs_per_packet: usize,
    errors: &ErrorSlot,
    stop: &AtomicBool,
    deadline: Instant,
) -> bool {
    let gauges = FlowGauges::of(node);
    let mut flows = Vec::new();
    let mut sender = Sender::new(node, 0, transport, &mut flows, &gauges);
    // Unsubmitted packets of each plan.
    let mut unsent: Vec<_> = plans.iter().map(|p| p.packets(msgs_per_packet)).collect();
    loop {
        if let Err(e) = sender.service() {
            errors.set(e);
            return false;
        }
        let mut progressed = false;
        for (plan, packets) in plans.iter().zip(&mut unsent) {
            while sender.has_room(plan.dest as usize) {
                let Some(words) = packets.next() else { break };
                node.note_offloaded((words.len() / MSG_ROWS) as u64);
                sender.submit(Packet::from_words_in(
                    node.id,
                    plan.dest,
                    words,
                    Some(&node.pool),
                ));
                progressed = true;
            }
        }
        // Checked right behind `service`, before any sleep: the acks
        // for the last packets are usually in by the time they are out.
        if unsent.iter().all(|p| p.len() == 0) && sender.is_drained() {
            return true;
        }
        if stop.load(Relaxed) || Instant::now() >= deadline || transport.is_closed() {
            return false;
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
    fn a_default_packet_is_the_papers_64_kb_queue() {
        assert_eq!(DEFAULT_MSGS_PER_PACKET * MSG_BYTES, DEFAULT_QUEUE_BYTES);
        assert_eq!(DEFAULT_MSGS_PER_PACKET, 2048);
        let input = GupsInput { updates: 30_000, table_len: 64, seed: 5 };
        let largest = plan_flows(&input, 3, 0)
            .iter()
            .flat_map(|f| f.packets(DEFAULT_MSGS_PER_PACKET))
            .map(|p| p.len() * 8)
            .max();
        assert_eq!(largest, Some(64 * 1024));
    }

    #[test]
    fn the_window_keeps_bytes_not_packets_in_flight() {
        // The kill-window tests' shape is what it always was…
        assert_eq!(window_for(8), 64);
        // …a default packet is 64 kB, and eight of them are in flight.
        assert_eq!(window_for(DEFAULT_MSGS_PER_PACKET), 16);
        assert_eq!(window_for(1 << 20), 4, "even one huge packet pipelines");
    }

    #[test]
    fn plans_are_deterministic_and_cover_every_update() {
        let input = GupsInput { updates: 1000, table_len: 64, seed: 9 };
        let a = plan_flows(&input, 3, 1);
        let b = plan_flows(&input, 3, 1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.dest, y.dest);
            assert_eq!(x.words, y.words);
        }
        // Every update is in exactly one flow, towards its owner, in
        // stream order.
        let dir = gups::directory(&input, 3);
        let mut next = [0usize; 3];
        for g in gups::node_updates(&input, 3, 1) {
            let r = dir.route(g);
            let flow = a.iter().find(|f| f.dest == r.dest).expect("a flow per owner");
            let at = next[r.dest as usize];
            next[r.dest as usize] += MSG_ROWS;
            assert_eq!(flow.words[at..at + MSG_ROWS], Message::inc(r.dest, r.offset, 1).encode());
        }
        for f in &a {
            assert_eq!(f.words.len(), next[f.dest as usize], "flow {} has extra messages", f.dest);
            let msgs: usize = f.packets(8).map(|p| p.len() / MSG_ROWS).sum();
            assert_eq!(msgs, f.words.len() / MSG_ROWS);
        }
    }

    #[test]
    fn expected_packets_matches_the_plan() {
        let input = GupsInput { updates: 777, table_len: 32, seed: 3 };
        for dest in 0..3u32 {
            let planned: Vec<u64> = (0..3u32)
                .map(|src| {
                    plan_flows(&input, 3, src)
                        .iter()
                        .find(|f| f.dest == dest)
                        .map_or(0, |f| f.packets(5).count() as u64)
                })
                .collect();
            assert_eq!(expected_packets(&input, 3, dest, 5), planned);
        }
    }
}

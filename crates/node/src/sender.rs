//! The node's one packetizer: its update stream, routed through its
//! [`Directory`], cut into packets per destination and fed to the core
//! flow engine ([`gravel_core::flow`]) on wire lane 0 — the same engine
//! the in-process aggregator runs. This module only decides *what* the
//! packets are; a static and an elastic node differ only in the
//! directory, the stream and the bounce source they hand to [`run`].
//!
//! The stream is routed once, up front, into one queue per destination
//! of `(offset, value)` pairs. A packet is what the paper's aggregator
//! would hand the NIC: the head of a destination's queue written
//! straight into one run of INC records, by default one full 64 kB
//! queue ([`DEFAULT_MSGS_PER_PACKET`] messages), so the sealed frame,
//! the buddy forward and the ack it costs are paid once per 4095
//! updates (`--msgs-per-packet` shrinks it for tests that need many
//! packets to aim a kill at). A queue's short tail goes once nothing
//! more is queued for that destination.
//!
//! Over a fixed directory, packet `k` of flow `i → j` has identical
//! bytes on every run — which is what makes restart trivial: a
//! restarted sender re-sends from sequence 0, receivers recognize
//! already-applied sequences as duplicates, re-ack them, and the window
//! fast-forwards to where it was. No sender-side durable state at all.
//! The binary configures the engine with no retry budget: a dead peer
//! is expected to come back (that is the whole point of this binary),
//! so the sender retries until it is stopped. The node's own updates
//! loop back through the transport as a normal sequenced flow — one
//! delivery path, not two.
//!
//! Over an elastic directory the map can change under the stream
//! (DESIGN.md §16): whatever is still queued is routed again when the
//! map version moves, and messages a receiver refused come back through
//! the bounce source and join their new owner's queue.

use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::time::Duration;

use gravel_apps::gups::{self, GupsInput};
use gravel_core::flow::{FlowGauges, Sender};
use gravel_core::{NodeShared, RuntimeError};
use gravel_gq::{Band, Message};
use gravel_net::{Transport, MAX_FRAME_BYTES};
use gravel_pgas::{
    Directory, Packet, Route, ACK_MAP_BITS, DEFAULT_QUEUE_BYTES, FRAME_OVERHEAD, PAIR_BYTES,
    RUN_HEADER_BYTES,
};

use crate::proto::FWD_HEAD_WORDS;

/// Messages per packet unless `--msgs-per-packet` says otherwise: the
/// paper's 64 kB per-node queue, full of INC records.
pub const DEFAULT_MSGS_PER_PACKET: usize = (DEFAULT_QUEUE_BYTES - RUN_HEADER_BYTES) / PAIR_BYTES;

/// The most messages a packet may carry: its buddy forward — the
/// `OP_FWD` header words and the payload in one control frame, larger
/// than the data frame itself — still fits in the [`MAX_FRAME_BYTES`]
/// a socket peer accepts.
pub const MAX_MSGS_PER_PACKET: usize =
    (MAX_FRAME_BYTES - FRAME_OVERHEAD - 8 * FWD_HEAD_WORDS - RUN_HEADER_BYTES) / PAIR_BYTES;

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

/// The delivery window for flows of `msgs_per_packet`-message packets
/// (at most [`MAX_MSGS_PER_PACKET`]). The update streams are bulk
/// flows, whose window is half of it, so this is twice the packets
/// allowed in flight: `IN_FLIGHT_BYTES` worth, but never more than
/// `IN_FLIGHT_PACKETS` (small packets are bounded by count, as they
/// always were) and never fewer than 2. The widest window still fits an
/// ack's selective map, which is what `GravelConfig::validate` asks of
/// any window, and so does the span of the bulk flows it makes (twice
/// their window: this number again).
pub fn window_for(msgs_per_packet: usize) -> usize {
    const _: () = assert!(2 * IN_FLIGHT_PACKETS <= ACK_MAP_BITS);
    2 * (IN_FLIGHT_BYTES / (msgs_per_packet * PAIR_BYTES)).clamp(2, IN_FLIGHT_PACKETS)
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

/// Where messages a receiver refused come back from, to be routed
/// again: an elastic node's `ElasticState`.
pub trait Bounces {
    /// Every message handed back since the last call, encoded.
    fn take_bounced(&self) -> Vec<[u64; 4]>;
}

/// Per destination, the messages routed there and not yet submitted:
/// `(address, value)`, in stream order.
type Queues = Vec<VecDeque<(u64, u64)>>;

/// `dir` as one pass routes through it: its map version and a router
/// that takes no lock — a fixed directory routes as it is, an elastic
/// one through a single snapshot of its map.
fn snapshot(dir: &Directory) -> (u64, impl Fn(u64) -> Route + '_) {
    let map = dir.current_map();
    let version = map.as_ref().map_or(0, |m| m.version);
    let route = move |g: u64| match &map {
        Some(map) => map.route(g),
        None => dir.route(g as usize),
    };
    (version, route)
}

/// Queue an INC of `value` at global index `g` for its owner.
fn enqueue(queues: &mut Queues, route: &impl Fn(u64) -> Route, g: u64, value: u64) {
    let r = route(g);
    queues[r.dest as usize].push_back((r.offset, value));
}

/// The next packet from `src` to `dest`: the first `msgs_per_packet`
/// pairs of its queue, or all of them if fewer, as one run of INC
/// records in a buffer from `pool`.
fn cut(
    queue: &mut VecDeque<(u64, u64)>,
    src: u32,
    dest: u32,
    msgs_per_packet: usize,
    pool: Option<&gravel_gq::BufferPool>,
) -> Packet {
    let n = queue.len().min(msgs_per_packet);
    Packet::from_incs_in(src, dest, queue.drain(..n), pool)
}

/// Send `updates` — `(global index, value)` INCs, in stream order —
/// routed through `dir`, as packets of up to `msgs_per_packet`
/// messages, each submitted to its destination's flow as the flow's
/// window opens. Every pass publishes in `drained` whether everything
/// is delivered: nothing queued, nothing handed back, every packet
/// acknowledged.
///
/// Without a bounce source nothing can come back, so the sender returns
/// once drained. With one (an elastic node) a bounce may arrive whenever
/// another node reshards, so it runs until `stop` and `drained` may
/// fall again. Re-routing and bounces read a queued message's address
/// as its global index: what an elastic directory's offsets are (a
/// fixed directory never changes, so nothing is routed twice).
///
/// A restarted process calls this with the same stream over the same
/// fixed directory and fresh engine state: it restamps from sequence 0,
/// the peers' cumulative acks report how far the previous incarnation
/// got, and the engine retires everything below that without resending
/// it.
#[allow(clippy::too_many_arguments)]
pub fn run(
    transport: &dyn Transport,
    node: &NodeShared,
    dir: &Directory,
    updates: impl IntoIterator<Item = (u64, u64)>,
    bounces: Option<&dyn Bounces>,
    msgs_per_packet: usize,
    stop: &AtomicBool,
    drained: &AtomicBool,
) -> Result<(), RuntimeError> {
    assert!((1..=MAX_MSGS_PER_PACKET).contains(&msgs_per_packet));
    let gauges = FlowGauges::of(node);
    let mut flows = Vec::new();
    let mut sender = Sender::new(node, 0, transport, &mut flows, &gauges);
    let mut queues: Queues = vec![VecDeque::new(); node.nodes];
    let (mut routed_at, route) = snapshot(dir);
    let mut offloaded = 0;
    for (g, value) in updates {
        enqueue(&mut queues, &route, g, value);
        offloaded += 1;
    }
    // Counted once, here: a bounced message is never offloaded again.
    node.note_offloaded(offloaded);
    let mut bounced = Vec::new();
    loop {
        sender.service()?;
        let (version, route) = snapshot(dir);
        if version != routed_at {
            routed_at = version;
            let queued: Vec<_> = queues.iter_mut().flat_map(|q| q.drain(..)).collect();
            for (g, value) in queued {
                enqueue(&mut queues, &route, g, value);
            }
        }
        for quad in bounced.drain(..) {
            if let Some(m) = Message::decode(quad) {
                enqueue(&mut queues, &route, m.addr, m.value);
            }
        }
        let mut progressed = false;
        for (dest, queue) in queues.iter_mut().enumerate() {
            while !queue.is_empty() && sender.has_room(dest) {
                let pkt = cut(queue, node.id, dest as u32, msgs_per_packet, Some(&node.pool));
                sender.submit(Band::Bulk, pkt);
                progressed = true;
            }
        }
        // Taken here and routed next pass: a bounce installs its map
        // before it is queued, so the next snapshot is at least that
        // new — and `idle` below counts what came back meanwhile.
        if let Some(source) = bounces {
            bounced = source.take_bounced();
        }
        // Checked right behind `service`, before any sleep: the acks
        // for the last packets are usually in by the time they are out.
        let idle =
            bounced.is_empty() && queues.iter().all(VecDeque::is_empty) && sender.is_drained();
        drained.store(idle, SeqCst);
        if (idle && bounces.is_none()) || stop.load(Relaxed) || transport.is_closed() {
            return Ok(());
        }
        if !progressed && bounced.is_empty() {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_pgas::runs::run_header;
    use gravel_pgas::RunKind;

    /// `node`'s GUPS stream over a fixed directory, as [`run`] packs
    /// it: every destination's packets, in order.
    fn packets(input: &GupsInput, nodes: usize, node: usize, k: usize) -> Vec<Vec<Packet>> {
        let dir = gups::directory(input, nodes);
        let (_, route) = snapshot(&dir);
        let mut queues: Queues = vec![VecDeque::new(); nodes];
        for g in gups::update_stream(input, nodes, node) {
            enqueue(&mut queues, &route, g as u64, 1);
        }
        let mut out = vec![Vec::new(); nodes];
        for (dest, queue) in queues.iter_mut().enumerate() {
            while !queue.is_empty() {
                out[dest].push(cut(queue, node as u32, dest as u32, k, None));
            }
        }
        out
    }

    #[test]
    fn a_default_packet_fills_the_papers_64_kb_queue_with_inc_records() {
        assert_eq!(DEFAULT_MSGS_PER_PACKET, 4095);
        let input = GupsInput { updates: 60_000, table_len: 64, seed: 5 };
        let largest = packets(&input, 3, 0, DEFAULT_MSGS_PER_PACKET)
            .iter()
            .flatten()
            .map(Packet::len)
            .max()
            .unwrap();
        assert!(largest <= DEFAULT_QUEUE_BYTES, "a {largest}-byte payload");
        assert!(largest + PAIR_BYTES > DEFAULT_QUEUE_BYTES, "one more INC would still fit");
    }

    #[test]
    fn the_window_keeps_bytes_not_packets_in_flight() {
        // The kill-window tests' shape is what it always was…
        assert_eq!(window_for(8), 64);
        // …a default packet is 64 kB, and eight of them are in flight.
        assert_eq!(window_for(DEFAULT_MSGS_PER_PACKET), 16);
        assert_eq!(window_for(MAX_MSGS_PER_PACKET), 4, "even one huge packet pipelines");
    }

    #[test]
    fn the_largest_packet_and_its_forward_fit_a_frame() {
        use gravel_pgas::{seal_control_into, WireIntegrity::Crc32c};
        let pairs = std::iter::repeat_n((0, 0), MAX_MSGS_PER_PACKET);
        let pkt = Packet::from_incs_in(0, 1, pairs, None);
        // What the buddy forwarder writes for it.
        let head = crate::proto::fwd_head(0, 0, 0, pkt.len() / 8);
        let mut fwd = Vec::new();
        seal_control_into(&mut fwd, 1, 2, 0, &head, &pkt.payload, Crc32c);
        assert!(pkt.seal(0, Crc32c).len() < fwd.len() && fwd.len() <= MAX_FRAME_BYTES);
        assert!(fwd.len() + PAIR_BYTES > MAX_FRAME_BYTES, "one message more would still fit");
    }

    /// Packet `k` of flow `i → j` is the `k`-th `msgs_per_packet`-message
    /// slice of `i`'s stream towards `j`, as one run of INC records — a
    /// pure function of the seed, which a restarted sender's
    /// fast-forward and `expected_packets` both rest on.
    #[test]
    fn packets_are_the_streams_slices_per_destination() {
        let input = GupsInput { updates: 1000, table_len: 64, seed: 9 };
        let dir = gups::directory(&input, 3);
        for k in [1, 5, 8] {
            let got = packets(&input, 3, 1, k);
            let payloads = |flows: &[Vec<Packet>]| -> Vec<Vec<_>> {
                flows.iter().map(|f| f.iter().map(|p| p.payload.clone()).collect()).collect()
            };
            assert_eq!(payloads(&got), payloads(&packets(&input, 3, 1, k)), "not deterministic");
            for (dest, flow) in got.iter().enumerate() {
                let stream: Vec<[u64; 4]> = gups::node_updates(&input, 3, 1)
                    .into_iter()
                    .map(|g| dir.route(g))
                    .filter(|r| r.dest == dest as u32)
                    .map(|r| Message::inc(r.dest, r.offset, 1).encode())
                    .collect();
                let slices: Vec<Vec<[u64; 4]>> = stream.chunks(k).map(<[_]>::to_vec).collect();
                let sent: Vec<Vec<[u64; 4]>> =
                    flow.iter().map(|p| p.messages().collect()).collect();
                assert_eq!(sent, slices, "flow 1 → {dest} at {k} per packet");
                for p in flow {
                    let one_run = run_header(RunKind::Inc, p.msg_count() as u32);
                    assert_eq!(p.words()[0], one_run, "one INC run");
                }
            }
        }
    }

    #[test]
    fn expected_packets_counts_the_packets_sent() {
        let input = GupsInput { updates: 777, table_len: 32, seed: 3 };
        for dest in 0..3 {
            let sent: Vec<u64> =
                (0..3).map(|src| packets(&input, 3, src, 5)[dest].len() as u64).collect();
            assert_eq!(expected_packets(&input, 3, dest as u32, 5), sent);
        }
    }
}

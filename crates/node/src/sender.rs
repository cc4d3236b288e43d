//! The node's sender: its update stream, routed through its
//! [`Directory`] into a [`Packetizer`] (`gravel_core::reshard`, the
//! queues `ha::sim` drives too), cut into packets per destination and fed
//! to the core flow engine ([`gravel_core::flow`]) on wire lane 0 — the
//! same engine the in-process aggregator runs. A static and an elastic
//! node differ only in the directory, the stream and the bounce source
//! they hand to [`run`].
//!
//! The stream is routed as packets leave, as the paper's producers hand
//! each message to the aggregator as they make it: the sender pulls from
//! it only until some destination with an open window holds a full
//! packet, cuts that packet, and repeats. A packet is what the paper's
//! aggregator would hand the NIC: the head of a destination's queue
//! written straight into one run of INC records, by default one full
//! 64 kB queue ([`DEFAULT_MSGS_PER_PACKET`] messages), so the sealed
//! frame, the buddy forward and the ack it costs are paid once per 4095
//! updates (`--msgs-per-packet` shrinks it for tests that need many
//! packets to aim a kill at). A queue's short tail goes only once the
//! stream is exhausted.
//!
//! Over a fixed directory, packet `k` of flow `i → j` has identical
//! bytes on every run — the `k`-th full slice of `i`'s stream towards
//! `j` — which is what makes restart trivial: a restarted sender
//! re-sends from sequence 0, receivers recognize already-applied
//! sequences as duplicates, re-ack them, and the window fast-forwards
//! to where it was. No sender-side durable state at all. It is also
//! what makes completion cheap: once a static sender has cut its whole
//! stream it knows each flow's packet count and publishes it for the
//! node to announce (`OP_FLOW_END`), the same number in every
//! incarnation; a receiver is complete once each source's cursor
//! reaches it ([`FlowEnds`]). The binary configures the engine with no
//! retry budget: a dead peer is expected to come back (that is the
//! whole point of this binary), so the sender retries until it is
//! stopped. The node's own updates loop back through the transport as a
//! normal sequenced flow — one delivery path, not two.
//!
//! Over an elastic directory the map can change under the stream
//! (DESIGN.md §16): the packetizer routes whatever is still queued again
//! when the map version moves, and messages a receiver refused come back
//! through the bounce source and join their new owner's queue. Its
//! counts are not final while a bounce may come back, so an elastic
//! sender announces none.

use std::collections::HashMap;
use std::iter::Peekable;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::OnceLock;
use std::time::Duration;

use gravel_core::flow::{FlowGauges, Sender};
use gravel_core::reshard::Packetizer;
use gravel_core::{NodeShared, RuntimeError};
use gravel_gq::{Band, BufferPool};
use gravel_net::{Transport, MAX_FRAME_BYTES};
use gravel_pgas::{
    Directory, Packet, ACK_MAP_BITS, DEFAULT_QUEUE_BYTES, FRAME_OVERHEAD, PAIR_BYTES,
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

/// What the static senders announced to this receiver: each inbound
/// flow's packet count, keyed by `(src, lane)`.
#[derive(Default)]
pub struct FlowEnds {
    counts: HashMap<(u32, u32), u64>,
}

impl FlowEnds {
    /// Record that `src`'s flow on `lane` carries `packets` packets.
    /// Over a fixed directory every incarnation of a sender announces
    /// the same count, so one that disagrees with the first is an error:
    /// `Err` holds the first.
    pub fn record(&mut self, src: u32, lane: u32, packets: u64) -> Result<(), u64> {
        match *self.counts.entry((src, lane)).or_insert(packets) {
            first if first != packets => Err(first),
            _ => Ok(()),
        }
    }

    /// Whether every one of `nodes` sources has announced its lane-0
    /// flow and `cursor(src)` — its next expected sequence number — has
    /// reached the count.
    pub fn complete(&self, nodes: usize, cursor: impl Fn(u32) -> u64) -> bool {
        (0..nodes as u32).all(|src| self.counts.get(&(src, 0)).is_some_and(|&n| cursor(src) >= n))
    }
}

/// Where messages a receiver refused come back from, to be routed
/// again: an elastic node's `ElasticState`.
pub trait Bounces {
    /// Every message handed back since the last call, encoded.
    fn take_bounced(&self) -> Vec<[u64; 4]>;
}

/// Send `updates` — `(global index, value)` INCs, in stream order —
/// routed through `dir` as packets leave, as packets of up to
/// `msgs_per_packet` messages, each submitted to its destination's flow
/// as the flow's window opens. Every pass publishes in `drained` whether
/// everything is delivered: the stream exhausted, nothing queued,
/// nothing handed back, every packet acknowledged.
///
/// Without a bounce source nothing can come back, so once the stream is
/// exhausted and every queue cut the sender sets `flow_ends` to the
/// packets each destination's flow carries (indexed by destination),
/// and it returns once drained. With one (an elastic node) a bounce may
/// arrive whenever another node reshards, so `flow_ends` stays unset,
/// the sender runs until `stop` and `drained` may fall again.
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
    flow_ends: &OnceLock<Vec<u64>>,
) -> Result<(), RuntimeError> {
    assert!((1..=MAX_MSGS_PER_PACKET).contains(&msgs_per_packet));
    let gauges = FlowGauges::of(node);
    let mut flows = Vec::new();
    let mut sender = Sender::new(node, 0, transport, &mut flows, &gauges);
    let mut queues = Packetizer::new(node.nodes);
    let mut stream = updates.into_iter().peekable();
    let mut packets = vec![0u64; node.nodes];
    let mut bounced = Vec::new();
    loop {
        sender.service()?;
        queues.reroute(dir, bounced.drain(..));
        let mut windows = Windows { sender: &mut sender, pool: &node.pool, packets: &mut packets };
        let pass = cut_pass(&mut queues, dir, &mut stream, node.id, msgs_per_packet, &mut windows);
        // Counted once, here: a bounced message is never offloaded again.
        node.note_offloaded(pass.pulled);
        if pass.exhausted && bounces.is_none() && queues.is_empty() {
            flow_ends.get_or_init(|| packets.clone());
        }
        // Taken here and routed next pass: a bounce installs its map
        // before it is queued, so the next snapshot is at least that
        // new — and `idle` below counts what came back meanwhile.
        if let Some(source) = bounces {
            bounced = source.take_bounced();
        }
        // Checked right behind `service`, before any sleep: the acks
        // for the last packets are usually in by the time they are out.
        let idle = pass.exhausted && bounced.is_empty() && queues.is_empty() && sender.is_drained();
        drained.store(idle, SeqCst);
        if (idle && bounces.is_none()) || stop.load(Relaxed) || transport.is_closed() {
            return Ok(());
        }
        if pass.cut == 0 && bounced.is_empty() {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// The flows a [`cut_pass`] feeds: whether a destination's window has
/// room, a packet handed to it, and the buffers packets are cut into.
trait Flows {
    fn has_room(&self, dest: u32) -> bool;
    fn submit(&mut self, pkt: Packet);
    fn pool(&self) -> Option<&BufferPool>;
}

/// The flow engine's windows, counting each flow's packets.
struct Windows<'s, 'a> {
    sender: &'s mut Sender<'a>,
    pool: &'s BufferPool,
    packets: &'s mut [u64],
}

impl Flows for Windows<'_, '_> {
    fn has_room(&self, dest: u32) -> bool {
        self.sender.has_room(dest as usize)
    }
    fn submit(&mut self, pkt: Packet) {
        self.packets[pkt.dest as usize] += 1;
        self.sender.submit(Band::Bulk, pkt);
    }
    fn pool(&self) -> Option<&BufferPool> {
        Some(self.pool)
    }
}

/// What one [`cut_pass`] did.
struct Pass {
    /// Pairs routed from the stream.
    pulled: u64,
    /// Packets handed to the flows.
    cut: u64,
    /// The stream has nothing left.
    exhausted: bool,
}

/// Cut every packet an open window admits, routing the stream only as
/// far as that takes: while some destination's window has room, pull
/// until one of them holds a full packet ([`Packetizer::fill`]), cut it,
/// and repeat. Short tails go once the stream is exhausted.
fn cut_pass<I: Iterator<Item = (u64, u64)>>(
    queues: &mut Packetizer,
    dir: &Directory,
    stream: &mut Peekable<I>,
    src: u32,
    msgs_per_packet: usize,
    flows: &mut impl Flows,
) -> Pass {
    let mut pass = Pass { pulled: 0, cut: 0, exhausted: false };
    loop {
        pass.exhausted = stream.peek().is_none();
        for dest in 0..queues.slots() {
            while flows.has_room(dest) {
                let pool = flows.pool();
                let Some(pkt) = queues.cut(src, dest, msgs_per_packet, pass.exhausted, pool) else {
                    break;
                };
                flows.submit(pkt);
                pass.cut += 1;
            }
        }
        if pass.exhausted {
            return pass;
        }
        match queues.fill(dir, stream, msgs_per_packet, |dest| flows.has_room(dest)) {
            0 => return pass,
            pulled => pass.pulled += pulled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_apps::gups::{self, GupsInput};
    use gravel_gq::Message;
    use gravel_pgas::runs::run_header;
    use gravel_pgas::RunKind;

    /// Flows whose windows open at seeded moments: before each pass,
    /// every destination's window gains room for zero to two packets.
    struct Acks {
        rng: u64,
        room: Vec<u64>,
        sent: Vec<Vec<Packet>>,
    }

    impl Acks {
        fn next(&mut self) -> u64 {
            // SplitMix64.
            self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.rng ^ (self.rng >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    impl Flows for Acks {
        fn has_room(&self, dest: u32) -> bool {
            self.room[dest as usize] > 0
        }
        fn submit(&mut self, pkt: Packet) {
            self.room[pkt.dest as usize] -= 1;
            self.sent[pkt.dest as usize].push(pkt);
        }
        fn pool(&self) -> Option<&BufferPool> {
            None
        }
    }

    /// `node`'s GUPS stream over a fixed directory, cut by [`cut_pass`]
    /// as windows open at moments drawn from `seed`: every destination's
    /// packets, in order.
    fn packets(
        input: &GupsInput,
        nodes: usize,
        node: usize,
        k: usize,
        seed: u64,
    ) -> Vec<Vec<Packet>> {
        let dir = gups::directory(input, nodes);
        let mut queues = Packetizer::new(nodes);
        let mut stream = gups::update_stream(input, nodes, node).map(|g| (g as u64, 1)).peekable();
        let mut acks = Acks { rng: seed, room: vec![0; nodes], sent: vec![Vec::new(); nodes] };
        for passes in 0.. {
            for dest in 0..nodes {
                acks.room[dest] += acks.next() % 3;
            }
            let pass = cut_pass(&mut queues, &dir, &mut stream, node as u32, k, &mut acks);
            if passes == 0 && input.updates >= 10 * nodes * k {
                assert!(!pass.exhausted, "the first pass routed the whole stream");
            }
            for dest in 0..nodes as u32 {
                let full = queues.queued(dest) >= k;
                assert!(!(full && acks.has_room(dest)), "an open window left a full packet");
            }
            if pass.exhausted && queues.is_empty() {
                break;
            }
        }
        acks.sent
    }

    #[test]
    fn a_default_packet_fills_the_papers_64_kb_queue_with_inc_records() {
        assert_eq!(DEFAULT_MSGS_PER_PACKET, 4095);
        let input = GupsInput { updates: 60_000, table_len: 64, seed: 5 };
        let largest = packets(&input, 3, 0, DEFAULT_MSGS_PER_PACKET, 1)
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
    /// slice of `i`'s stream towards `j`, as one run of INC records,
    /// however the windows open — a pure function of the seed, which a
    /// restarted sender's fast-forward and its announced packet counts
    /// both rest on.
    #[test]
    fn packets_are_the_streams_slices_per_destination() {
        let input = GupsInput { updates: 1000, table_len: 64, seed: 9 };
        let dir = gups::directory(&input, 3);
        for k in [1, 5, 8] {
            let got = packets(&input, 3, 1, k, 1);
            let payloads = |flows: &[Vec<Packet>]| -> Vec<Vec<_>> {
                flows.iter().map(|f| f.iter().map(|p| p.payload.clone()).collect()).collect()
            };
            for seed in 2..6 {
                let other = packets(&input, 3, 1, k, seed);
                assert_eq!(payloads(&got), payloads(&other), "windows at seed {seed}");
            }
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
    fn a_receiver_completes_on_the_announced_counts() {
        let mut ends = FlowEnds::default();
        let cursors = [3, 5, 0];
        assert!(!ends.complete(3, |src| cursors[src as usize]), "nothing announced");
        assert_eq!(ends.record(0, 0, 3), Ok(()));
        assert_eq!(ends.record(1, 0, 5), Ok(()));
        assert_eq!(ends.record(2, 1, 0), Ok(()), "another lane's flow");
        assert!(!ends.complete(3, |src| cursors[src as usize]), "node 2's lane 0 is unknown");
        assert_eq!(ends.record(2, 0, 0), Ok(()));
        assert!(ends.complete(3, |src| cursors[src as usize]));
        assert!(!ends.complete(3, |src| cursors[src as usize].saturating_sub(1)));
        assert_eq!(ends.record(1, 0, 5), Ok(()), "a repeat");
        assert_eq!(ends.record(1, 0, 6), Err(5), "another incarnation disagrees");
        assert_eq!(ends.record(1, 0, 5), Ok(()), "the first count stands");
    }
}

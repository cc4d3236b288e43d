//! In-process coverage of `sender::run` on the shared flow engine: a
//! node's stream, routed through its directory, over a seeded lossy
//! fabric into `netthread` — then a sender "restart" against receivers
//! that kept their cursors, and an elastic map flip mid-stream behind a
//! stale-routing gate. These are the paths `tests/cluster.rs` and
//! `tests/reshard.rs` only reach with real processes, a real `kill -9`,
//! and wall-clock waits.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use gravel_apps::gups::{self, GupsInput};
use gravel_core::backoff::wait_for;
use gravel_core::netthread::{self, ApplyGate, RecvState};
use gravel_core::reshard;
use gravel_core::{ErrorSlot, GravelConfig, NodeShared};
use gravel_net::{
    AckFrame, ChannelTransport, FaultConfig, FaultStats, RecvStatus, RetryConfig, SendStatus,
    Transport, UnreliableTransport,
};
use gravel_node::elastic;
use gravel_node::sender::{self, Bounces};
use gravel_pgas::{AmRegistry, DataFrame, Directory, FencedInstall, Packet, ShardMap};

const NODES: usize = 3;
/// The flows' delivery window; a bulk flow keeps half of it in flight.
const WINDOW: usize = 8;
/// Failsafe only: every wait below ends on a protocol event.
const LIMIT: Duration = Duration::from_secs(60);

/// The lossy fabric, counting the receive polls each network thread
/// starts. A thread answers the frame in its hands before it polls
/// again, which is what lets [`Cluster::run_dry`] tell when the last
/// frame of a stopped sender has been acknowledged.
struct Fabric {
    inner: UnreliableTransport<ChannelTransport>,
    polls: [AtomicU64; NODES],
}

impl Transport for Fabric {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }
    fn lanes(&self) -> usize {
        self.inner.lanes()
    }
    fn send_data(&self, frame: DataFrame, timeout: Duration) -> SendStatus {
        self.inner.send_data(frame, timeout)
    }
    fn recv_data(&self, node: u32, timeout: Duration) -> RecvStatus<DataFrame> {
        self.polls[node as usize].fetch_add(1, SeqCst);
        self.inner.recv_data(node, timeout)
    }
    fn send_ack(&self, ack: AckFrame) {
        self.inner.send_ack(ack)
    }
    fn try_recv_ack(&self, node: u32, lane: u32) -> Option<AckFrame> {
        self.inner.try_recv_ack(node, lane)
    }
    fn close(&self) {
        self.inner.close()
    }
    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
    fn data_depths(&self) -> Vec<usize> {
        self.inner.data_depths()
    }
    fn ack_depths(&self, node: u32) -> usize {
        self.inner.ack_depths(node)
    }
}

struct Cluster {
    nodes: Vec<Arc<NodeShared>>,
    transport: Arc<Fabric>,
    errors: Arc<ErrorSlot>,
    net: Vec<JoinHandle<()>>,
}

/// One sender incarnation: its node, its stream and its bounce source.
type SenderSpec<'a> = (usize, Vec<(u64, u64)>, Option<&'a (dyn Bounces + Sync)>);

impl Cluster {
    /// Three nodes of `heap_len` words over one drop + dup + reorder
    /// fabric, each with a live network thread — behind `gate(node)`,
    /// if it has one — whose receive state outlives any sender.
    fn start(
        heap_len: usize,
        seed: u64,
        gate: impl Fn(u32) -> Option<Arc<dyn ApplyGate>>,
    ) -> Cluster {
        let mut cfg = GravelConfig::small(NODES, heap_len);
        // The node binary's shape (no retry budget), scaled to test time.
        cfg.retry = RetryConfig {
            window: WINDOW,
            backoff: Duration::from_millis(1),
            backoff_max: Duration::from_millis(10),
            max_retries: u32::MAX,
        };
        let transport = Arc::new(Fabric {
            inner: UnreliableTransport::new(
                ChannelTransport::new(NODES, 1, 256),
                FaultConfig::mixed(seed, 0.1),
            ),
            polls: Default::default(),
        });
        let errors = Arc::new(ErrorSlot::default());
        let ams = Arc::new(AmRegistry::new());
        let nodes: Vec<Arc<NodeShared>> = (0..NODES as u32)
            .map(|id| Arc::new(NodeShared::new(id, &cfg, ams.clone())))
            .collect();
        let net = nodes
            .iter()
            .map(|node| {
                let (n, e) = (node.clone(), errors.clone());
                let t: Arc<dyn Transport> = transport.clone();
                let state = Arc::new(Mutex::new(RecvState::new()));
                let g = gate(node.id);
                std::thread::spawn(move || netthread::run_with(n, t, e, state, None, None, g, None))
            })
            .collect();
        Cluster { nodes, transport, errors, net }
    }

    /// Run `senders`, each with fresh engine state and routing through
    /// `dir`, until every one reads drained. Returns the packet counts
    /// each published for its flows (`None` with a bounce source).
    fn run_senders(
        &self,
        dir: &Directory,
        msgs_per_packet: usize,
        senders: Vec<SenderSpec>,
    ) -> Vec<Option<Vec<u64>>> {
        let stop = AtomicBool::new(false);
        let drained: Vec<AtomicBool> = senders.iter().map(|_| AtomicBool::new(false)).collect();
        let mut ends: Vec<OnceLock<Vec<u64>>> = senders.iter().map(|_| OnceLock::new()).collect();
        std::thread::scope(|s| {
            for (((me, updates, bounces), done), ends) in
                senders.into_iter().zip(&drained).zip(&ends)
            {
                let (node, stop) = (&self.nodes[me], &stop);
                s.spawn(move || {
                    let bounces = bounces.map(|b| b as &dyn Bounces);
                    let t = &*self.transport;
                    let k = msgs_per_packet;
                    if let Err(e) = sender::run(t, node, dir, updates, bounces, k, stop, done, ends)
                    {
                        self.errors.set(e);
                    }
                });
            }
            let all = wait_for(LIMIT, || drained.iter().all(|d| d.load(SeqCst)));
            // The failsafe's way out for a sender that never drains.
            stop.store(true, SeqCst);
            assert!(all, "a sender did not drain before the failsafe");
        });
        assert!(!self.errors.is_set(), "flow error: {:?}", self.errors.take());
        ends.iter_mut().map(OnceLock::take).collect()
    }

    /// With every sender stopped: wait until the fabric has delivered
    /// the late copies it still holds and the receivers have answered
    /// them, then empty `node`'s ack mailbox — what `kill -9` does to a
    /// process's socket. (Without this an ack the old incarnation left
    /// behind can fast-forward the new one before it has sent a thing.)
    fn run_dry(&self, node: usize) {
        let empty = || self.transport.data_depths().iter().all(|&d| d == 0);
        assert!(wait_for(LIMIT, empty), "the fabric never emptied");
        // Nothing enters an empty fabric with the senders stopped, so a
        // poll started from here on follows the thread's last answer.
        let polls = || self.transport.polls.each_ref().map(|p| p.load(SeqCst));
        let seen = polls();
        let polled_again = || polls().iter().zip(&seen).all(|(now, then)| now > then);
        assert!(wait_for(LIMIT, polled_again), "a network thread stopped polling");
        while self.transport.try_recv_ack(node as u32, 0).is_some() {}
    }

    fn heaps(&self) -> Vec<Vec<u64>> {
        self.nodes.iter().map(|n| n.heap.snapshot()).collect()
    }

    fn total(&self, f: impl Fn(&NodeShared) -> u64) -> u64 {
        self.nodes.iter().map(|n| f(n)).sum()
    }

    fn stop(self) {
        self.transport.close();
        for h in self.net {
            h.join().expect("network thread");
        }
    }
}

/// `node`'s GUPS stream: one INC of 1 per update.
fn gups_stream(input: &GupsInput, node: usize) -> Vec<(u64, u64)> {
    gups::node_updates(input, NODES, node).into_iter().map(|g| (g as u64, 1)).collect()
}

/// The sequential truth, laid out as per-node heaps.
fn expected_heaps(input: &GupsInput, heap_len: usize) -> Vec<Vec<u64>> {
    let part = gups::partition(input, NODES);
    let mut heaps = vec![vec![0u64; heap_len]; NODES];
    for node in 0..NODES {
        for g in gups::node_updates(input, NODES, node) {
            heaps[part.owner(g)][part.local_offset(g) as usize] += 1;
        }
    }
    heaps
}

/// Deliver `input` over the lossy fabric in packets of
/// `msgs_per_packet` messages, then restart node 0's sender.
fn bit_exact_then_restart(input: GupsInput, msgs_per_packet: usize) {
    let part = gups::partition(&input, NODES);
    let heap_len = (0..NODES).map(|n| part.local_len(n)).max().unwrap();
    let cluster = Cluster::start(heap_len, 0xFA57, |_| None);
    let dir = gups::directory(&input, NODES);
    let streams = |who: &[usize]| who.iter().map(|&n| (n, gups_stream(&input, n), None)).collect();

    let ends = cluster.run_senders(&dir, msgs_per_packet, streams(&[0, 1, 2]));
    let heaps = cluster.heaps();
    assert_eq!(heaps, expected_heaps(&input, heap_len), "heap not bit-exact");
    assert_eq!(cluster.total(|n| n.applied.get()), input.updates as u64);
    assert!(
        cluster.total(|n| n.net_retransmits.get()) > 0,
        "the fabric never dropped anything: the test exercised no recovery"
    );
    assert_eq!(cluster.total(|n| n.net_fast_forwarded.get()), 0, "nothing restarted yet");

    // Each sender published what its flows carry: the stream's share
    // towards each destination, in full packets and one short tail.
    let ends: Vec<Vec<u64>> =
        ends.into_iter().map(|e| e.expect("a static sender's counts")).collect();
    for (src, ends) in ends.iter().enumerate() {
        for (dest, &packets) in ends.iter().enumerate() {
            let msgs = gups::node_updates(&input, NODES, src)
                .into_iter()
                .filter(|&g| dir.route(g).dest == dest as u32)
                .count();
            assert_eq!(packets, msgs.div_ceil(msgs_per_packet) as u64, "flow {src} → {dest}");
        }
    }

    // "kill -9 + restart" of node 0's sender: the same stream restamped
    // from sequence 0 by fresh engine state, against receivers that
    // already hold the whole stream.
    let packets: u64 = ends[0].iter().sum();
    cluster.run_dry(0);
    let dups_before = cluster.total(|n| n.net_dups_suppressed.get());
    let fabric =
        || cluster.transport.fault_stats().duplicated + cluster.nodes[0].net_retransmits.get();
    let fabric_before = fabric();
    let again = cluster.run_senders(&dir, msgs_per_packet, streams(&[0]));
    assert_eq!(again[0].as_ref(), Some(&ends[0]), "another incarnation, other counts");

    assert_eq!(cluster.heaps(), heaps, "a restarted sender double-applied");
    assert_eq!(cluster.total(|n| n.applied.get()), input.updates as u64);
    // Catch-up is by cumulative ack, not by resending: only the first
    // bulk window of each flow (plus whatever the fabric duplicated or
    // made the sender retransmit) ever reached a receiver again.
    let resent = cluster.total(|n| n.net_dups_suppressed.get()) - dups_before;
    let bound = (NODES * (WINDOW / 2)) as u64 + fabric() - fabric_before;
    assert!(resent > 0, "the restarted sender must probe each peer at least once");
    let skipped = cluster.nodes[0].net_fast_forwarded.get();
    assert!(
        skipped > packets / 2,
        "only {skipped} of {packets} packets were retired by cumulative ack"
    );
    assert!(
        resent <= bound,
        "restart re-sent {resent} of {packets} packets, more than {bound}: a bulk window a flow \
         plus the fabric's duplicates and retransmits"
    );
    cluster.stop();
}

#[test]
fn routed_streams_are_bit_exact_over_a_lossy_fabric_and_a_restart_fast_forwards() {
    bit_exact_then_restart(GupsInput { updates: 6000, table_len: 96, seed: 29 }, 4);
}

/// The same at the binary's default packet: 64 kB frames, about forty
/// to a flow, through the same drop + dup + reorder fabric.
#[test]
fn default_64_kb_packets_are_bit_exact_and_fast_forward_too() {
    let input = GupsInput { updates: 720_000, table_len: 4096, seed: 31 };
    bit_exact_then_restart(input, sender::DEFAULT_MSGS_PER_PACKET);
}

/// Messages a receiver handed back to one sender: its bounce source.
#[derive(Default)]
struct Returned {
    queue: Mutex<Vec<[u64; 4]>>,
    stripped: AtomicU64,
    redelivered: AtomicU64,
}

impl Bounces for Returned {
    fn take_bounced(&self) -> Vec<[u64; 4]> {
        let quads = std::mem::take(&mut *self.queue.lock().unwrap());
        self.redelivered.fetch_add(quads.len() as u64, SeqCst);
        quads
    }
}

/// The elastic stale-routing gate in miniature, shared by every node's
/// network thread: a receiver keeps the messages the current map
/// assigns it and hands every other one back to the packet's sender.
/// The packet whose arrival brings the cluster past `flip_at` messages
/// first installs `next` — so it, and everything still in flight under
/// the old map, is refused.
struct StaleGate {
    dir: Arc<Directory>,
    next: ShardMap,
    flip_at: u64,
    seen: AtomicU64,
    returned: [Returned; NODES],
}

struct NodeGate {
    me: u32,
    gate: Arc<StaleGate>,
}

impl ApplyGate for NodeGate {
    fn filter(&self, pkt: &Packet) -> Option<Packet> {
        let g = &self.gate;
        let n = pkt.msg_count() as u64;
        let seen = g.seen.fetch_add(n, SeqCst);
        if seen < g.flip_at && seen + n >= g.flip_at {
            let installed = g.dir.install_fenced(g.next.clone(), 0);
            assert_eq!(installed, FencedInstall::Installed, "the map flips once");
        }
        let map = g.dir.current_map().expect("an elastic directory");
        // Every shard of its own is served here: only ownership refuses.
        let (kept, refused) = reshard::gate(self.me, &map, |_| true, pkt)?;
        let back = &g.returned[pkt.src as usize];
        back.stripped.fetch_add((refused.len() / 4) as u64, SeqCst);
        let quads = refused.chunks_exact(4).map(|q| <[u64; 4]>::try_from(q).expect("a quad"));
        back.queue.lock().unwrap().extend(quads);
        Some(kept)
    }
}

/// An elastic cluster's map changes under its streams: every shard
/// moves once a third of the messages has arrived. Messages queued at
/// the senders are routed again, and those already on the wire under
/// the old map are refused, handed back and redelivered to their new
/// owner — none lost, none applied twice.
#[test]
fn a_map_flip_mid_stream_reroutes_the_queues_and_redelivers_every_bounce() {
    let input = GupsInput { updates: 6000, table_len: 96, seed: 37 };
    let everyone = [0, 1, 2];
    let first = ShardMap::initial(&everyone, 8);
    let next = ShardMap {
        version: first.version + 1,
        owners: first.owners.iter().map(|&o| (o + 1) % NODES as u32).collect(),
        members: first.members.clone(),
    };
    let streams: Vec<Vec<(u64, u64)>> =
        (0..NODES as u32).map(|n| elastic::elastic_plan(&input, NODES, n)).collect();
    let messages: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let gate = Arc::new(StaleGate {
        dir: Arc::new(Directory::elastic(input.table_len, first)),
        next,
        flip_at: messages / 3,
        seen: AtomicU64::new(0),
        returned: Default::default(),
    });
    let cluster = Cluster::start(input.table_len, 0xE1A5, |me| {
        Some(Arc::new(NodeGate { me, gate: gate.clone() }))
    });

    let senders = streams
        .into_iter()
        .enumerate()
        .map(|(n, s)| (n, s, Some(&gate.returned[n] as &(dyn Bounces + Sync))))
        .collect();
    cluster.run_senders(&gate.dir, 4, senders);

    assert_eq!(gate.dir.version(), 2, "the map never flipped");
    let heaps = cluster.heaps();
    let total: Vec<u64> = (0..input.table_len).map(|g| heaps.iter().map(|h| h[g]).sum()).collect();
    assert_eq!(total, elastic::expected_table(&input, NODES, &everyone), "heap not exact");
    let stripped: u64 = gate.returned.iter().map(|r| r.stripped.load(SeqCst)).sum();
    let redelivered: u64 = gate.returned.iter().map(|r| r.redelivered.load(SeqCst)).sum();
    assert!(stripped > 0, "no message was in flight across the flip");
    // Only what was on the wire at the flip comes back: a queue routed
    // under the old map would send about two thirds of the stream to
    // the wrong owner.
    assert!(stripped < messages / 10, "{stripped} of {messages} messages were refused");
    assert_eq!(stripped, redelivered, "a refused message was lost or delivered twice");
    cluster.stop();
}

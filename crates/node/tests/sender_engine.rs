//! In-process coverage of the deterministic sender on the shared
//! flow engine: `plan_flows` → `run_sender` → a seeded lossy
//! fabric → `netthread`, then a sender "restart" against receivers that
//! kept their cursors — the path `tests/cluster.rs` only reaches with
//! real processes, a real `kill -9`, and wall-clock waits.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gravel_apps::gups::{self, GupsInput};
use gravel_core::backoff::wait_for;
use gravel_core::netthread::{self, RecvState};
use gravel_core::{ErrorSlot, GravelConfig, NodeShared};
use gravel_net::{
    AckFrame, ChannelTransport, FaultConfig, FaultStats, RecvStatus, RetryConfig, SendStatus,
    Transport, UnreliableTransport,
};
use gravel_node::sender::{self, FlowPlan};
use gravel_pgas::{AmRegistry, DataFrame};

const NODES: usize = 3;
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

impl Cluster {
    /// Three nodes over one drop + dup + reorder fabric, each with a
    /// live network thread whose receive state outlives any sender.
    fn start(input: &GupsInput, seed: u64) -> Cluster {
        let part = gups::partition(input, NODES);
        let heap_len = (0..NODES).map(|n| part.local_len(n)).max().unwrap();
        let mut cfg = GravelConfig::small(NODES, heap_len);
        // The node binary's shape (no retry budget), scaled to test time.
        cfg.retry = RetryConfig {
            window: 8,
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
                std::thread::spawn(move || netthread::run_with(n, t, e, state, None, None, None))
            })
            .collect();
        Cluster { nodes, transport, errors, net }
    }

    /// One sender incarnation per listed node, each with fresh engine
    /// state, run to full acknowledgement.
    fn run_senders(&self, input: &GupsInput, msgs_per_packet: usize, who: &[usize]) {
        let stop = AtomicBool::new(false);
        let deadline = Instant::now() + LIMIT;
        std::thread::scope(|s| {
            let handles: Vec<_> = who
                .iter()
                .map(|&me| {
                    let plans = plans(input, me);
                    let (node, stop) = (&self.nodes[me], &stop);
                    s.spawn(move || {
                        sender::run_sender(
                            &*self.transport,
                            node,
                            &plans,
                            msgs_per_packet,
                            &self.errors,
                            stop,
                            deadline,
                        )
                    })
                })
                .collect();
            for (h, me) in handles.into_iter().zip(who) {
                assert!(h.join().unwrap(), "sender {me} did not drain before the failsafe");
            }
        });
        assert!(!self.errors.is_set(), "flow error: {:?}", self.errors.take());
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

fn plans(input: &GupsInput, me: usize) -> Vec<FlowPlan> {
    sender::plan_flows(input, NODES, me as u32)
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
    let cluster = Cluster::start(&input, 0xFA57);
    let everyone: Vec<usize> = (0..NODES).collect();

    cluster.run_senders(&input, msgs_per_packet, &everyone);
    let heaps = cluster.heaps();
    assert_eq!(heaps, expected_heaps(&input, heaps[0].len()), "heap not bit-exact");
    assert_eq!(cluster.total(|n| n.applied.get()), input.updates as u64);
    assert!(
        cluster.total(|n| n.net_retransmits.get()) > 0,
        "the fabric never dropped anything: the test exercised no recovery"
    );
    assert_eq!(cluster.total(|n| n.net_fast_forwarded.get()), 0, "nothing restarted yet");

    // "kill -9 + restart" of node 0's sender: the same plan restamped
    // from sequence 0 by fresh engine state, against receivers that
    // already hold the whole stream.
    let packets: usize =
        plans(&input, 0).iter().map(|p| p.packets(msgs_per_packet).count()).sum();
    cluster.run_dry(0);
    let dups_before = cluster.total(|n| n.net_dups_suppressed.get());
    cluster.run_senders(&input, msgs_per_packet, &[0]);

    assert_eq!(cluster.heaps(), heaps, "a restarted sender double-applied");
    assert_eq!(cluster.total(|n| n.applied.get()), input.updates as u64);
    // Catch-up is by cumulative ack, not by resending: only the first
    // window of each flow (plus whatever the fabric duplicated or made
    // the sender retransmit) ever reached a receiver again.
    let resent = cluster.total(|n| n.net_dups_suppressed.get()) - dups_before;
    assert!(resent > 0, "the restarted sender must probe each peer at least once");
    let skipped = cluster.nodes[0].net_fast_forwarded.get();
    assert!(
        skipped > packets as u64 / 2,
        "only {skipped} of {packets} packets were retired by cumulative ack"
    );
    assert!(
        resent < packets as u64 / 4,
        "restart re-sent {resent} of {packets} packets instead of fast-forwarding"
    );
    cluster.stop();
}

#[test]
fn planned_flows_are_bit_exact_over_a_lossy_fabric_and_a_restart_fast_forwards() {
    bit_exact_then_restart(GupsInput { updates: 6000, table_len: 96, seed: 29 }, 4);
}

/// The same at the binary's default packet: 64 kB frames, about forty
/// to a flow, through the same drop + dup + reorder fabric.
#[test]
fn default_64_kb_packets_are_bit_exact_and_fast_forward_too() {
    let input = GupsInput { updates: 720_000, table_len: 4096, seed: 31 };
    bit_exact_then_restart(input, sender::DEFAULT_MSGS_PER_PACKET);
}

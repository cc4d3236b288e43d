//! `gravel-node` — one cluster member as a real OS process.
//!
//! ```text
//! gravel-node --node 2 --nodes 4 --dir /tmp/cluster --updates 4096 \
//!             --table 512 --out /tmp/cluster/node2.json
//! ```
//!
//! N such processes form a mesh over Unix-domain sockets (`--dir`) or
//! TCP (`--tcp-base`), run the GUPS update streams deterministically,
//! and continuously protect each other: every applied packet is
//! forwarded to the next node in the ring before it is acked, and
//! epoch checkpoints truncate the forwarded log. A member killed with
//! `kill -9` and restarted with the *same* command line replays its
//! recovery log (baseline + forwarded packets) from its buddy over the
//! socket, restoring heap and flow cursors, and rejoins — the final
//! cluster heap is bit-exact with a no-fault run (asserted by
//! `tests/cluster.rs`).
//!
//! Exit codes: 0 success (including graceful SIGTERM/SIGINT shutdown),
//! 2 deadline expired before completion, 3 cluster error (a buddy-held
//! baseline of another heap size among them), 64 usage.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use gravel_apps::gups::{self, GupsInput};
use gravel_core::ha::{heartbeat, HaMachine, RecoveryLog};
use gravel_core::netthread::{self, PacketTap, RecvState};
use gravel_core::{
    aggregator, ErrorSlot, FailureDetector, GravelConfig, HeartbeatConfig, NodeShared,
};
use gravel_net::{
    ChaosPlan, LinkSchedule, PeerEvent, ProcessFault, RecvStatus, RetryConfig, SocketAddrSpec,
    SocketConfig, SocketTransport, Transport,
};
use gravel_pgas::{AmRegistry, FlushPolicy};
use gravel_telemetry::Counter;

use gravel_node::elastic::{self, ElasticCtx, ElasticState};
use gravel_node::forward::Forwarder;
use gravel_node::gets::{self, RPC_LANE};
use gravel_node::proto::{self, OP_CKPT, OP_FWD, OP_RECOVER_REQ, OP_RECOVER_RESP, OP_REFUSED};
use gravel_node::report::{write_report, OutReport, OutStats, QuarantineEntry};
use gravel_node::sender::{self, Bounces};
use gravel_node::signal;
use gravel_node::store::WardStores;

struct Args {
    node: u32,
    nodes: usize,
    dir: Option<PathBuf>,
    tcp_base: Option<u16>,
    updates: usize,
    table: usize,
    seed: u64,
    msgs_per_packet: usize,
    ckpt_every: u64,
    kill_at: Option<u64>,
    deadline_secs: u64,
    gets: usize,
    out: PathBuf,
    /// Elastic mode: the initial active membership is `0..active`
    /// (slots `active..nodes` are capacity for joiners). `None` =
    /// static cluster, the pre-elastic behavior bit for bit.
    active: Option<usize>,
    /// This process dials into a running elastic cluster (its slot is
    /// outside the initial membership); it knocks on whichever member
    /// of the same `--dir`/`--tcp-base` mesh holds the coordinator
    /// lease.
    join: bool,
    /// Coordinator: evict a member continuously dead this long.
    evict_grace_ms: u64,
    /// Chaos: SIGKILL while installing the Kth migrated shard (words
    /// written, epoch not yet cut — the worst mid-migration window).
    kill_on_migrate: Option<u64>,
    /// Chaos: the lease holder SIGKILLs itself right after broadcasting
    /// its next moves-carrying TOPO — a deterministic coordinator death
    /// mid-shard-migration (the failover acceptance window).
    kill_on_commit: bool,
    /// Chaos: a declarative link-fault schedule, e.g.
    /// `part:0|1|2:500:2500;oneway:2:3:100:900;delay:0:1:5:3`, parsed
    /// and checked against `--nodes` before anything starts.
    link_chaos: Option<Arc<LinkSchedule>>,
}

fn usage() -> ! {
    eprintln!(
        "usage: gravel-node --node I --nodes N (--dir PATH | --tcp-base PORT) [--updates U] \
         [--table T] [--seed S] [--msgs-per-packet K] \
         [--ckpt-every P] [--kill-at N] [--deadline-secs D] [--gets G] [--out FILE] \
         [--active M] [--join] [--evict-grace-ms E] [--kill-on-migrate K] \
         [--kill-on-commit] [--link-chaos SPEC]"
    );
    std::process::exit(64);
}

fn parse_args() -> Args {
    let mut a = Args {
        node: u32::MAX,
        nodes: 0,
        dir: None,
        tcp_base: None,
        updates: 4096,
        table: 512,
        seed: 42,
        msgs_per_packet: sender::DEFAULT_MSGS_PER_PACKET,
        ckpt_every: 16,
        kill_at: None,
        deadline_secs: 60,
        gets: 0,
        out: PathBuf::new(),
        active: None,
        join: false,
        evict_grace_ms: 1500,
        kill_on_migrate: None,
        kill_on_commit: false,
        link_chaos: None,
    };
    let mut chaos_spec = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--node" => a.node = val().parse().unwrap_or_else(|_| usage()),
            "--nodes" => a.nodes = val().parse().unwrap_or_else(|_| usage()),
            "--dir" => a.dir = Some(PathBuf::from(val())),
            "--tcp-base" => a.tcp_base = Some(val().parse().unwrap_or_else(|_| usage())),
            "--updates" => a.updates = val().parse().unwrap_or_else(|_| usage()),
            "--table" => a.table = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--msgs-per-packet" => a.msgs_per_packet = val().parse().unwrap_or_else(|_| usage()),
            "--ckpt-every" => a.ckpt_every = val().parse().unwrap_or_else(|_| usage()),
            "--kill-at" => a.kill_at = Some(val().parse().unwrap_or_else(|_| usage())),
            "--deadline-secs" => a.deadline_secs = val().parse().unwrap_or_else(|_| usage()),
            "--gets" => a.gets = val().parse().unwrap_or_else(|_| usage()),
            "--out" => a.out = PathBuf::from(val()),
            "--active" => a.active = Some(val().parse().unwrap_or_else(|_| usage())),
            "--join" => a.join = true,
            "--evict-grace-ms" => a.evict_grace_ms = val().parse().unwrap_or_else(|_| usage()),
            "--kill-on-migrate" => {
                a.kill_on_migrate = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--kill-on-commit" => a.kill_on_commit = true,
            "--link-chaos" => chaos_spec = Some(val()),
            _ => usage(),
        }
    }
    if a.node == u32::MAX || a.nodes == 0 || a.node as usize >= a.nodes {
        usage();
    }
    // The update streams draw indices from `0..table`.
    if a.table == 0 {
        usage();
    }
    if let Some(spec) = chaos_spec {
        // Same seed on every node: symmetric faults really are
        // symmetric, and the partition islands agree across processes.
        match LinkSchedule::parse(a.seed, &spec, a.nodes) {
            Ok(sched) => a.link_chaos = Some(Arc::new(sched)),
            Err(e) => {
                eprintln!("[gravel-node {}] bad --link-chaos spec: {e}", a.node);
                usage();
            }
        }
    }
    // A packet, and its buddy forward, must fit in one socket frame.
    if !(1..=sender::MAX_MSGS_PER_PACKET).contains(&a.msgs_per_packet) {
        usage();
    }
    if a.dir.is_none() && a.tcp_base.is_none() {
        usage();
    }
    if let Some(active) = a.active {
        if active == 0 || active > a.nodes {
            usage();
        }
        // A slot outside the initial membership must opt into joining;
        // an initial member must not claim to join.
        if ((a.node as usize) >= active) != a.join {
            usage();
        }
        if a.gets > 0 {
            eprintln!("[gravel-node {}] --gets is not supported in elastic mode", a.node);
            usage();
        }
    } else if a.join || a.kill_on_migrate.is_some() || a.kill_on_commit {
        // Elastic-only flags: a static cluster has no shard migration
        // to die in and no coordinator to kill.
        usage();
    }
    if a.out.as_os_str().is_empty() {
        a.out = PathBuf::from(format!("gravel-node-{}.json", a.node));
    }
    a
}

fn addrs(a: &Args) -> Vec<SocketAddrSpec> {
    (0..a.nodes)
        .map(|i| match (&a.dir, a.tcp_base) {
            (Some(dir), _) => SocketAddrSpec::Uds(dir.join(format!("node{i}.sock"))),
            (None, Some(base)) => SocketAddrSpec::Tcp(format!("127.0.0.1:{}", base + i as u16)),
            (None, None) => unreachable!("parse_args requires one"),
        })
        .collect()
}

/// Membership counters, created up front so the report sees zeros
/// rather than missing metrics.
struct Membership {
    joins: Counter,
    losses: Counter,
    rejoins: Counter,
}

/// Control-plane service loop: store the ward's forwards and cuts,
/// serve recovery requests, route recovery responses to `resp_tx` —
/// and, in elastic mode, dispatch the TOPO/MIGRATE/BOUNCE family.
fn ctrl_loop(
    transport: Arc<SocketTransport>,
    stores: Arc<WardStores>,
    resp_tx: mpsc::Sender<RecoveryLog>,
    errors: Arc<ErrorSlot>,
    elastic: Option<Arc<ElasticCtx>>,
) {
    loop {
        let msg = match transport.recv_control(Duration::from_millis(50)) {
            RecvStatus::Msg(m) => m,
            RecvStatus::TimedOut => {
                if errors.is_set() {
                    return;
                }
                continue;
            }
            RecvStatus::Closed => return,
        };
        if let Some(ctx) = &elastic {
            if elastic::handle_ctrl(ctx, msg.src, &msg.words) {
                continue;
            }
        }
        match msg.words.first().copied() {
            Some(OP_FWD) => {
                // The message's own word vector becomes the log entry.
                if let Some(p) = proto::decode_fwd(msg.words) {
                    stores.on_fwd(msg.src, p);
                }
            }
            Some(OP_CKPT) => {
                if let Some(c) = proto::decode_ckpt(&msg.words) {
                    stores.on_ckpt(msg.src, c);
                }
            }
            Some(OP_REFUSED) => {
                if let Some(r) = proto::decode_refused(msg.words) {
                    stores.on_refused(msg.src, r);
                }
            }
            Some(OP_RECOVER_REQ) => {
                let resp = stores.recover(msg.src);
                transport.send_control(msg.src, &proto::encode_recover_resp(&resp));
            }
            Some(OP_RECOVER_RESP) => {
                if let Some(r) = proto::decode_recover_resp(&msg.words) {
                    let _ = resp_tx.send(r);
                }
            }
            // Unknown op from a newer (or confused) peer: ignore —
            // version skew on the control plane must not wedge a node.
            _ => {}
        }
    }
}

/// Membership loop: mirror connection events into counters, un-latch
/// the failure detector when a dead peer's new incarnation handshakes,
/// and re-baseline our buddy-held checkpoint when the buddy returns.
///
/// Every rebaseline here is gated on `started`: until the main thread
/// has finished startup recovery and seeded the heap, a cut would ship
/// an *empty* baseline — at best a useless ward, at worst (the buddy
/// link coming up mid-startup, which is the common case on a fresh
/// cluster) it overwrites the very checkpoint recovery is about to
/// read, turning a cold boot into a phantom "restart" with an empty
/// ready-set. The post-recovery cut in `run` covers any Up event
/// suppressed by this gate.
#[allow(clippy::too_many_arguments)]
fn membership_loop(
    transport: Arc<SocketTransport>,
    detector: Arc<FailureDetector>,
    forwarder: Arc<Forwarder>,
    counters: Membership,
    buddy: u32,
    nodes: usize,
    rebaseline_on_first_up: bool,
    started: Arc<AtomicBool>,
) {
    let mut seen_down = vec![false; nodes];
    while !transport.is_closed() {
        let Some(ev) = transport.poll_event(Duration::from_millis(50)) else {
            continue;
        };
        match ev {
            PeerEvent::Up(peer) => {
                if seen_down[peer as usize] {
                    seen_down[peer as usize] = false;
                    counters.rejoins.inc();
                    detector.reset_peer(peer, Instant::now());
                    if peer == buddy && started.load(Ordering::SeqCst) {
                        // The buddy missed every forward while it was
                        // down; a fresh full checkpoint supersedes them.
                        forwarder.rebaseline();
                    }
                } else {
                    counters.joins.inc();
                    if rebaseline_on_first_up && peer == buddy && started.load(Ordering::SeqCst) {
                        // Elastic: the buddy slot may be a joiner that
                        // just started — hand it our baseline now that
                        // someone exists to protect us.
                        forwarder.rebaseline();
                    }
                }
            }
            PeerEvent::Down(peer) => {
                seen_down[peer as usize] = true;
                counters.losses.inc();
            }
        }
    }
}

/// How long a starting elastic node waits for its buddy's link before
/// treating startup as a cold boot: a joiner's buddy slot may not exist
/// yet.
const ELASTIC_BUDDY_WAIT: Duration = Duration::from_secs(2);

/// Ask the buddy for our stored state, retrying the request until a
/// response arrives (the buddy may still be starting). Uniform across
/// cold boot and restart: a cold cluster answers "nothing stored". An
/// elastic node waits at most [`ELASTIC_BUDDY_WAIT`] for the buddy's
/// link — a bounded wait then a cold boot, instead of blocking to the
/// deadline.
fn recover_from_buddy(
    transport: &SocketTransport,
    buddy: u32,
    me: u32,
    resp_rx: &mpsc::Receiver<RecoveryLog>,
    deadline: Instant,
    elastic: bool,
) -> Option<RecoveryLog> {
    let mut wait = deadline.saturating_duration_since(Instant::now());
    if elastic {
        wait = wait.min(ELASTIC_BUDDY_WAIT);
    }
    if buddy != me && !transport.wait_connected(buddy, wait) {
        // Elastic: no buddy yet — nothing can be stored for us.
        // Static: an unreachable buddy is fatal.
        return elastic.then(RecoveryLog::default);
    }
    loop {
        transport.send_control(buddy, &proto::encode_recover_req());
        match resp_rx.recv_timeout(Duration::from_millis(300)) {
            Ok(r) => return Some(r),
            Err(_) => {
                if Instant::now() >= deadline || signal::shutdown_requested() {
                    return None;
                }
            }
        }
    }
}

/// Whether every inbound flow has reached its deterministic packet
/// count.
fn receive_complete(state: &Mutex<RecvState>, expected: &[u64]) -> bool {
    let cursors: HashMap<(u32, u32), u64> = state
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .flow_cursors()
        .into_iter()
        .map(|(s, l, e)| ((s, l), e))
        .collect();
    expected
        .iter()
        .enumerate()
        .all(|(src, &want)| cursors.get(&(src as u32, 0)).copied().unwrap_or(0) >= want)
}

struct Reporter {
    args: Args,
    node: Arc<NodeShared>,
    transport: Arc<SocketTransport>,
    forwarder: Arc<Forwarder>,
    elastic: Option<Arc<ElasticCtx>>,
    sender_drained: Arc<AtomicBool>,
    recovered_from_ckpt: bool,
    recovered_log_packets: u64,
    /// Quarantined messages accumulated across report writes (each
    /// write drains the node's quarantine, so without this buffer the
    /// final report would lose what earlier writes already surfaced).
    quarantine: Mutex<Vec<QuarantineEntry>>,
}

impl Reporter {
    fn write(&self, completed: bool, graceful: bool) {
        let s = self.transport.stats();
        let snap = self.node.registry.snapshot();
        let me = self.args.node;
        let n = |suffix: &str| format!("node{me}.{suffix}");
        let map = self.elastic.as_ref().map(|ctx| ctx.state.current_map());
        let lease = self.elastic.as_ref().map_or((0, 0), |ctx| ctx.machine().lease());
        let quarantine = {
            let mut q = self.quarantine.lock().unwrap_or_else(|p| p.into_inner());
            q.extend(self.node.quarantine.drain().into_iter().map(|m| QuarantineEntry {
                src: m.src,
                lane: m.lane,
                seq: m.seq,
                index: m.index as u64,
                reason: format!("{:?}", m.reason),
            }));
            q.clone()
        };
        let report = OutReport {
            node: me as u64,
            nodes: self.args.nodes as u64,
            completed,
            graceful,
            recovered_from_ckpt: self.recovered_from_ckpt,
            updates_issued: self.node.offloaded.get(),
            applied: self.node.applied.get(),
            epoch: self.forwarder.epoch(),
            heap: self.node.heap.snapshot(),
            stats: OutStats {
                handshakes: s.handshakes,
                reconnects: s.reconnects,
                connect_failures: s.connect_failures,
                handshake_rejects: s.handshake_rejects,
                link_drops: s.link_drops,
                retransmits: self.node.net_retransmits.get(),
                dups_suppressed: self.node.net_dups_suppressed.get(),
                fast_forwarded: self.node.net_fast_forwarded.get(),
                acks_sent: self.node.net_acks_sent.get(),
                deaths_declared: snap.counter("ha.deaths_declared"),
                membership_joins: snap.counter(&n("membership.joins")),
                membership_losses: snap.counter(&n("membership.losses")),
                membership_rejoins: snap.counter(&n("membership.rejoins")),
                epochs_cut: snap.counter(&n("ha.epochs_cut")),
                fwd_sent: snap.counter(&n("fwd.sent")),
                fwd_dropped: snap.counter(&n("fwd.dropped")),
                recovered_log_packets: self.recovered_log_packets,
                gets_issued: snap.counter(&n("gets.issued")),
                gets_ok: snap.counter(&n("gets.ok")),
                gets_timed_out: snap.counter(&n("gets.timed_out")),
                gets_mismatched: snap.counter(&n("gets.mismatched")),
                rpc_replies_sent: self.node.rpc_replies_sent.get(),
                quarantined: self.node.quarantine.total(),
                reshard_stale_routed: snap.counter(&n("reshard.stale_routed")),
                reshard_redelivered: snap.counter(&n("reshard.redelivered")),
                reshard_bounce_dropped: snap.counter(&n("reshard.bounce_dropped")),
                reshard_shards_in: snap.counter(&n("reshard.shards_in")),
                reshard_shards_out: snap.counter(&n("reshard.shards_out")),
                reshard_bytes_migrated: snap.counter(&n("reshard.bytes_migrated")),
                ha_takeovers: snap.counter("ha.takeovers"),
                ha_evictions_vetoed: snap.counter("ha.evictions_vetoed"),
            },
            quarantine,
            map_version: map.as_ref().map_or(0, |m| m.version),
            members: map.as_ref().map_or_else(Vec::new, |m| m.members.clone()),
            // Owner per shard: lets a harness assemble the authoritative
            // table from the owners' heaps.
            shard_owners: map.as_ref().map_or_else(Vec::new, |m| m.owners.clone()),
            sender_drained: self.sender_drained.load(Ordering::SeqCst),
            ha_term: lease.0,
            ha_holder: lease.1,
        };
        if let Err(e) = write_report(&self.args.out, &report) {
            eprintln!("[gravel-node {me}] failed to write {}: {e}", self.args.out.display());
        }
    }
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args = parse_args();
    let me = args.node;
    let nodes = args.nodes;
    signal::install_shutdown_handler();
    let deadline = Instant::now() + Duration::from_secs(args.deadline_secs);

    let input = GupsInput { updates: args.updates, table_len: args.table, seed: args.seed };
    let part = gups::partition(&input, nodes);
    // With GET probes enabled the heap grows one sentinel word past the
    // GUPS partition (never touched by updates, so its value is a pure
    // function of the seed — the bit-exact GET target). Elastic heaps
    // are provisioned at the *full* table size: shards address by
    // global index, so ownership can move without offset translation.
    let heap_len = if args.active.is_some() {
        args.table.max(1)
    } else if args.gets > 0 {
        part.local_len(me as usize) + 1
    } else {
        part.local_len(me as usize).max(1)
    };
    let mut cfg = GravelConfig::small(nodes, heap_len);
    // Generous RPC deadline: a GET must survive a peer's kill -9 →
    // restart window before it is declared timed out.
    cfg.rpc.timeout = Duration::from_secs(5);
    // Every sender in this process is the core flow engine. No
    // retry budget: a dead peer is expected to come back, and costs one
    // `backoff_max` probe per expiry, not a storm. The window follows
    // the packet size: see `sender::window_for`.
    cfg.retry = RetryConfig {
        window: sender::window_for(args.msgs_per_packet),
        backoff: Duration::from_millis(50),
        backoff_max: Duration::from_millis(500),
        max_retries: u32::MAX,
    };
    let node = Arc::new(NodeShared::new(me, &cfg, Arc::new(AmRegistry::new())));

    let mut scfg = SocketConfig::new(me, addrs(&args));
    scfg.seed = args.seed ^ (me as u64).wrapping_mul(0x9E37_79B9);
    // The wire loops draw frame buffers from the node's arena.
    scfg.pool = node.pool.clone();
    if args.gets > 0 {
        // Lane 0 carries the deterministic GUPS flows; lane 1 carries
        // request-reply traffic (its own ack mailbox).
        scfg.lanes = 2;
    }
    scfg.link_chaos = args.link_chaos.clone();
    let transport = match SocketTransport::spawn(scfg) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[gravel-node {me}] transport spawn failed: {e}");
            return 3;
        }
    };

    let errors = Arc::new(ErrorSlot::default());
    let state = Arc::new(Mutex::new(RecvState::new()));
    let stores = Arc::new(WardStores::default());
    let buddy = ((me as usize + 1) % nodes) as u32;
    let chaos = args
        .kill_at
        .map(|at| Arc::new(ChaosPlan::new(vec![ProcessFault::KillProcess { node: me, at_step: at }])));
    let forwarder = Arc::new(Forwarder::new(
        transport.clone(),
        node.clone(),
        state.clone(),
        buddy,
        args.ckpt_every,
        chaos,
    ));

    // Liveness: heartbeats over the wire into a phi-accrual detector.
    // The interval is wider than the in-process default — N processes
    // share cores here, and a falsely latched peer stays dead until
    // its next handshake. Built before the elastic wiring: the HA
    // machine's revive threshold follows its interval, and death votes
    // are answered from its verdicts.
    let hb_cfg = HeartbeatConfig {
        interval: Duration::from_millis(15),
        suspect_phi: 4.0,
        dead_phi: 8.0,
        min_samples: 3,
    };
    let detector = Arc::new(FailureDetector::new(hb_cfg.clone()));

    // Raised once startup recovery has restored (or cold-booted) the
    // heap; the membership loop and the shard-migration ops wait for it.
    let started = Arc::new(AtomicBool::new(false));
    // Elastic mode: the shard directory, bounce gate and control-plane
    // machine. The checkpoint provider must be installed before the
    // first cut so every baseline carries its ready-shard set.
    let elastic_ctx = args.active.map(|active| {
        let nshards = gravel_pgas::DEFAULT_SHARDS.min(args.table.max(1));
        let members: Vec<u32> = (0..active as u32).collect();
        let initial = gravel_pgas::ShardMap::initial(&members, nshards);
        // Every node boots agreeing: the lowest initial member holds
        // the initial term, so fencing needs no handshake.
        let grace = Duration::from_millis(args.evict_grace_ms);
        let ha = HaMachine::new(me, &initial, nodes, args.table, grace, hb_cfg.interval);
        let (t, kill) = (transport.clone(), args.kill_on_migrate);
        let st = ElasticState::new(node.clone(), t, nodes, args.table, initial, kill);
        forwarder.set_reshard(st.clone());
        Arc::new(ElasticCtx {
            state: st,
            ha: Mutex::new(ha),
            forwarder: forwarder.clone(),
            stores: stores.clone(),
            detector: detector.clone(),
            kill_on_commit: args.kill_on_commit,
            started: started.clone(),
        })
    });
    let elastic_state = elastic_ctx.as_ref().map(|ctx| ctx.state.clone());

    // Control-plane service first: recovery requests (ours and our
    // ward's) need it running before anything blocks.
    let (resp_tx, resp_rx) = mpsc::channel();
    let ctrl = std::thread::spawn({
        let (t, s, e) = (transport.clone(), stores.clone(), errors.clone());
        let ctx = elastic_ctx.clone();
        move || ctrl_loop(t, s, resp_tx, e, ctx)
    });
    let hb = std::thread::spawn({
        let (t, d, e, r) = (transport.clone(), detector.clone(), errors.clone(), node.registry.clone());
        let n = nodes as u32;
        move || {
            heartbeat::run(hb_cfg, me, n, t, d, None, e, r, Arc::new(AtomicU64::new(0)));
        }
    });

    let membership = Membership {
        joins: node.registry.counter(&format!("node{me}.membership.joins")),
        losses: node.registry.counter(&format!("node{me}.membership.losses")),
        rejoins: node.registry.counter(&format!("node{me}.membership.rejoins")),
    };
    let memb = std::thread::spawn({
        let (t, d, f) = (transport.clone(), detector.clone(), forwarder.clone());
        let elastic = args.active.is_some();
        let started = started.clone();
        move || membership_loop(t, d, f, membership, buddy, nodes, elastic, started)
    });

    // Recover (or cold-boot) from the buddy before consuming anything.
    let Some(recovered) =
        recover_from_buddy(&transport, buddy, me, &resp_rx, deadline, args.active.is_some())
    else {
        transport.close();
        if signal::shutdown_requested() {
            eprintln!("[gravel-node {me}] graceful shutdown during startup recovery");
            return 0;
        }
        eprintln!("[gravel-node {me}] no recovery response from node {buddy} before deadline");
        return 2;
    };
    let recovered_from_ckpt = recovered.baseline.is_some();
    let recovered_log_packets = recovered.packets.len() as u64;
    // A baseline of another heap size (a restart with another --table,
    // or --gets toggled) is refused whole: restoring its cursors without
    // its heap would dup-suppress every packet it covers.
    let mut replayed = match recovered.replay(&node.heap, &node.ams) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[gravel-node {me}] refusing buddy {buddy}'s checkpoint: {e}");
            transport.close();
            return 3;
        }
    };
    node.note_applied(replayed.disposed);
    {
        let mut st = state.lock().unwrap_or_else(|p| p.into_inner());
        for &(src, lane, expected) in &replayed.cursors {
            st.seed_flow(src, lane, expected);
        }
    }
    let epoch = recovered.baseline.as_ref().map_or(0, |b| b.epoch);
    if let Some(st) = &elastic_state {
        let ready: Vec<u32> = match &recovered.baseline {
            // Restart: exactly the shards the last cut proved. A shard
            // migrated in but never cut is *absent* here and will be
            // re-pulled; the heap image just restored matches.
            Some(b) => b.app.iter().filter_map(|&w| u32::try_from(w).ok()).collect(),
            // Cold boot: an initial member starts serving its dealt
            // shards; a joiner serves nothing until migration.
            None if args.join => Vec::new(),
            None => st.current_map().shards_of(me),
        };
        st.seed_ready(&ready);
        // Before anything is consumed or cut: the cut below truncates
        // the refusals the keeper held.
        st.resend_owed(std::mem::take(&mut replayed.owed));
    }
    forwarder.seed(&replayed.cursors, epoch);
    // Recovery done: membership-event rebaselines are safe from here.
    started.store(true, Ordering::SeqCst);
    // Baseline cut: truncates the buddy's (possibly stale) log so the
    // stored state always replays from what we just restored.
    forwarder.rebaseline();
    if recovered_from_ckpt || recovered_log_packets > 0 {
        eprintln!(
            "[gravel-node {me}] recovered from buddy {buddy}: ckpt={recovered_from_ckpt} \
             log_packets={recovered_log_packets} epoch={epoch}"
        );
    }

    // The sentinel is deterministic, so (re)storing it after recovery
    // is idempotent — a restarted node and a cold boot publish the same
    // word.
    if args.gets > 0 {
        node.heap.store(
            part.local_len(me as usize) as u64,
            gets::sentinel_value(args.seed, me),
        );
    }

    // Elastic: the control loop (HA machine, shard pulls, knocks at
    // the holder) on EVERY node — any node may end up holding the
    // coordinator lease. Its machine syncs the shard map before this
    // node serves a byte of data traffic: a restarted node's built-in
    // map may predate topology changes, and applying under it could
    // accept shards that moved away.
    let stop = Arc::new(AtomicBool::new(false));
    let elastic_thread = elastic_ctx.as_ref().map(|ctx| {
        let (ctx, stop) = (ctx.clone(), stop.clone());
        std::thread::spawn(move || elastic::run_ha(&ctx, &stop, deadline))
    });
    while elastic_ctx.as_ref().is_some_and(|ctx| !ctx.machine().synced()) {
        if signal::shutdown_requested() {
            transport.close();
            return 0;
        }
        if Instant::now() >= deadline {
            eprintln!("[gravel-node {me}] no topology from lease holder before deadline");
            transport.close();
            return 2;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Request-reply plane: with `--gets`, one core aggregator lane
    // drains the offload queue (GETs we issue + replies the netthread
    // enqueues for peers) onto lane 1's express flows — packets
    // flushed as soon as the express ring reads empty, the same flow
    // engine. Only express messages flow there, so the bulk flush
    // policy is never consulted. Built before the receiver, which runs
    // its express pass after every express frame.
    let rpc_lane = (args.gets > 0).then(|| {
        let t: Arc<dyn Transport> = transport.clone();
        let policy = FlushPolicy::Fixed(cfg.flush_timeout);
        let lane = aggregator::Lane::new(
            node.clone(),
            RPC_LANE as usize,
            t,
            cfg.node_queue_bytes,
            policy,
            errors.clone(),
        );
        Arc::new(lane)
    });

    // Receiver: the shared netthread body, with the forwarder tapping
    // every applied packet before its ack — and, in elastic mode, the
    // stale-routing gate filtering each accepted packet first.
    let net = std::thread::spawn({
        let (n, t, e, s) = (node.clone(), transport.clone(), errors.clone(), state.clone());
        let tap: Arc<dyn PacketTap> = forwarder.clone();
        let gate = elastic_state
            .clone()
            .map(|st| st as Arc<dyn netthread::ApplyGate>);
        let lane = rpc_lane.clone();
        move || netthread::run_with(n, t, e, s, None, Some(tap), gate, lane)
    });

    // Sender: this node's update stream through its directory. A
    // static node's ends fully acked; an elastic node's runs until
    // `stop` and republishes `sender_drained` every pass (a bounce can
    // clear it again).
    let sender_drained = Arc::new(AtomicBool::new(false));
    let snd = std::thread::spawn({
        let (t, n, e, stop, drained) =
            (transport.clone(), node.clone(), errors.clone(), stop.clone(), sender_drained.clone());
        let elastic_state = elastic_state.clone();
        let (join, msgs_per_packet) = (args.join, args.msgs_per_packet);
        move || {
            // Routed on this thread: the main thread counts the inbound
            // flows' packets meanwhile.
            let fixed = gups::directory(&input, nodes);
            let (dir, updates, bounces): (_, Box<dyn Iterator<Item = _>>, Option<&dyn Bounces>) =
                match &elastic_state {
                    // Only initial members carry update streams; joiners
                    // (and post-drain leavers) route and serve but send
                    // nothing — which is what makes their restart/kill
                    // windows safe (an elastic sender's queues are
                    // volatile).
                    Some(st) if join => (&st.dir, Box::new(std::iter::empty()), Some(&**st)),
                    Some(st) => {
                        let plan = elastic::elastic_plan(&input, nodes, me);
                        (&st.dir, Box::new(plan.into_iter()), Some(&**st))
                    }
                    None => {
                        let stream = gups::update_stream(&input, nodes, me as usize);
                        (&fixed, Box::new(stream.map(|g| (g as u64, 1))), None)
                    }
                };
            if let Err(err) =
                sender::run(&*t, &n, dir, updates, bounces, msgs_per_packet, &stop, &drained)
            {
                e.set(err);
            }
        }
    });

    // The RPC lane's thread, and a probe stream GETting every peer's
    // sentinel through it.
    let gets_done = Arc::new(AtomicBool::new(args.gets == 0));
    let mut rpc_threads = Vec::new();
    let mut agg = None;
    if let Some(lane) = &rpc_lane {
        agg = Some(std::thread::spawn({
            let lane = lane.clone();
            move || aggregator::run_supervised(lane, None)
        }));
        rpc_threads.push(std::thread::spawn({
            let (lane, stop, done) = (lane.clone(), stop.clone(), gets_done.clone());
            let (gets, seed, input) = (args.gets, args.seed, input);
            move || {
                let n = lane.node();
                let counters = gets::GetsCounters::bound(n);
                let part = gups::partition(&input, nodes);
                let out = gets::run_gets(
                    &lane,
                    nodes,
                    gets,
                    seed,
                    |dest| part.local_len(dest as usize) as u64,
                    &stop,
                    deadline,
                    &counters,
                );
                eprintln!(
                    "[gravel-node {}] gets: issued={} ok={} timed_out={} failed={} mismatched={}",
                    n.id, out.issued, out.ok, out.timed_out, out.failed, out.mismatched
                );
                done.store(true, Ordering::SeqCst);
            }
        }));
    }

    let expected = sender::expected_packets(&input, nodes, me, args.msgs_per_packet);
    let reporter = Reporter {
        args,
        node: node.clone(),
        transport: transport.clone(),
        forwarder: forwarder.clone(),
        elastic: elastic_ctx.clone(),
        sender_drained: sender_drained.clone(),
        recovered_from_ckpt,
        recovered_log_packets,
        quarantine: Mutex::new(Vec::new()),
    };

    // Main loop: wait for local completion, then linger (serving acks,
    // forwards, and recovery for peers) until SIGTERM or deadline. An
    // elastic node also republishes its report periodically: drain
    // state, map version, and the reshard ledger move as the cluster
    // grows and shrinks, and the harness polls for convergence.
    let mut completed = false;
    let mut last_periodic = Instant::now();
    let code = loop {
        if errors.is_set() {
            eprintln!("[gravel-node {me}] cluster error: {:?}", errors.take());
            reporter.write(completed, false);
            break 3;
        }
        if signal::shutdown_requested() {
            // Graceful: quiesce the sender, cut a final epoch so the
            // buddy holds our freshest state, report, exit 0.
            stop.store(true, Ordering::SeqCst);
            forwarder.rebaseline();
            reporter.write(completed, true);
            eprintln!("[gravel-node {me}] graceful shutdown (completed={completed})");
            break 0;
        }
        let locally_done = match &elastic_ctx {
            Some(ctx) => sender_drained.load(Ordering::SeqCst) && !ctx.machine().pulling(),
            None => {
                sender_drained.load(Ordering::SeqCst)
                    && gets_done.load(Ordering::SeqCst)
                    && receive_complete(&state, &expected)
            }
        };
        if !completed && locally_done {
            completed = true;
            reporter.write(true, false);
            eprintln!("[gravel-node {me}] complete; lingering for peers");
        }
        if elastic_ctx.is_some() && last_periodic.elapsed() >= Duration::from_millis(250) {
            last_periodic = Instant::now();
            reporter.write(completed, false);
        }
        if Instant::now() >= deadline {
            if !completed {
                reporter.write(false, false);
                eprintln!("[gravel-node {me}] deadline expired before completion");
                break 2;
            }
            break 0;
        }
        // A whole job is a few hundred milliseconds: until it is done,
        // poll at about what writing the report costs, so completion is
        // published promptly; lingering needs no such hurry.
        std::thread::sleep(Duration::from_millis(if completed { 10 } else { 1 }));
    };

    stop.store(true, Ordering::SeqCst);
    transport.close();
    for h in [ctrl, hb, memb, net, snd]
        .into_iter()
        .chain(rpc_threads)
        .chain(elastic_thread)
    {
        let _ = h.join();
    }
    // The aggregator goes last: the network thread may still enqueue
    // replies while it drains, and only a live consumer keeps that
    // enqueue from blocking on a full ring.
    node.queue.close();
    if let Some(h) = agg {
        let _ = h.join();
    }
    code
}

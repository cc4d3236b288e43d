//! Elastic membership for `gravel-node` (DESIGN.md §16): live join and
//! leave with epoch-boundary heap resharding, under the same chaos the
//! static cluster already survives.
//!
//! The moving parts, all keyed off one [`gravel_pgas::Directory`]:
//!
//! * **Versioned shard map.** The table is dealt into shards
//!   (`g % nshards`); a monotonic [`ShardMap`] assigns each shard an
//!   owner. Every PUT/INC routes via the map — there is no static
//!   `dest = addr % N` anywhere in the elastic path. Heaps are
//!   provisioned at the *full* table size and addressed by global
//!   index, so a message re-routed to a different owner needs no
//!   offset translation and a shard's words are the stride
//!   `shard, shard + nshards, shard + 2·nshards, …`.
//! * **Stale-routing bounce.** The receive-side [`ApplyGate`] runs
//!   [`reshard::gate`], as `ha::sim` does: messages for shards this node
//!   does not own (stale map at the sender) or does not *yet* serve are
//!   refused, the rest applies, and the sequence number is acked either
//!   way. The forwarder ([`forward::Reshard`]) logs the refusal with the
//!   buddy, forwards the packet, then has the quads bounced to their
//!   sender with the current map, which re-queues each refusal once
//!   ([`crate::sender::Bounces`]). `reshard.stale_routed` ==
//!   `reshard.redelivered` + `reshard.bounce_dropped`.
//! * **One control-plane machine.** Every lease, vote, takeover,
//!   eviction, commit and migration decision (pulls, ward escalation,
//!   donations, installs, re-acks, snapshots, knocks) is the
//!   [`HaMachine`]'s (DESIGN.md §16, §18). [`run_ha`] and
//!   [`handle_ctrl`] feed it the detector, the map, the served shards
//!   and the control frames, and write, cut, serve and ship as it says.
//!
//! The elastic traffic model is commutative-only (INC with per-message
//! values) so bounce-redelivery reordering cannot perturb the final
//! histogram; [`expected_table`] is the sequential truth the acceptance
//! suite compares against bit-exactly.
//!
//! Documented limitations (asserted by tests, not hidden): an elastic
//! *sender's* restart is unsupported (its queues are volatile — chaos
//! targets joiners, which carry no stream, and drained evictees); a member
//! evicted while data packets to it are still unacked leaves those
//! flows probing forever (the harness drains before killing, so the
//! suite never enters that window); and a cluster without a live
//! majority of its last-committed membership deliberately freezes
//! rather than guess.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gravel_apps::gups::{self, GupsInput};
use gravel_core::ha::{Action, Event, HaMachine, LoggedPacket, Topo, TopologyChange};
use gravel_core::netthread::ApplyGate;
use gravel_core::reshard::{self, Requeued};
use gravel_core::{FailureDetector, NodeShared, PeerStatus};
use gravel_net::{SocketTransport, Transport};
use gravel_pgas::{Directory, FencedInstall, Packet, ShardMap};
use gravel_telemetry::{Counter, Gauge, Histogram};

use crate::forward::{self, Forwarder};
use crate::sender::Bounces;
use crate::proto::{
    self, BounceMsg, MigrateMsg, OP_BOUNCE, OP_DEATH_VOTE, OP_DEATH_VOTE_REQ, OP_JOIN_REQ,
    OP_LEASE, OP_LEAVE_REQ, OP_MAP_REQ, OP_MIGRATE, OP_MIGRATE_ACK, OP_MIGRATE_REQ, OP_TOPO,
    OP_WARD_MIGRATE_REQ,
};
use crate::store::WardStores;

/// The shards the gate applies locally (everything else bounces), and
/// those recorded ready in the *next* epoch cut — marked before the
/// post-migration cut, so a checkpoint's ready set never claims a
/// shard whose words it does not contain.
#[derive(Default)]
struct Shards {
    served: HashSet<u32>,
    ready: HashSet<u32>,
}

/// The elastic data plane the gate (network thread), the control
/// loop, the HA loop and the sender share.
pub struct ElasticState {
    pub me: u32,
    /// Fixed process-slot count (`--nodes`); active membership is a
    /// subset, tracked by the map.
    pub capacity: usize,
    pub table: usize,
    /// The live routing directory (elastic inner).
    pub dir: Directory,
    node: Arc<NodeShared>,
    transport: Arc<SocketTransport>,
    shards: Mutex<Shards>,
    /// Bounced message quads awaiting re-aggregation by the sender.
    bounced: Mutex<VecDeque<[u64; 4]>>,
    /// The highest refused packet re-queued per receiver and lane.
    requeued: Mutex<Requeued>,
    /// The gate's refusal of the packet being applied, until the
    /// forwarder takes it.
    refused: Mutex<Option<LoggedPacket>>,
    /// `--kill-on-migrate K`: SIGKILL while installing the Kth
    /// migrated shard, after its words land but before the epoch cut —
    /// the adversarial mid-migration window.
    kill_on_migrate: Mutex<Option<u64>>,
    stale_routed: Counter,
    redelivered: Counter,
    bounce_dropped: Counter,
    shards_in: Counter,
    shards_out: Counter,
    bytes_migrated: Counter,
    topo_fenced: Counter,
    takeovers: Counter,
    evictions_vetoed: Counter,
    map_version: Gauge,
    ha_term: Gauge,
    migration_ns: Histogram,
}

impl ElasticState {
    pub fn new(
        node: Arc<NodeShared>,
        transport: Arc<SocketTransport>,
        capacity: usize,
        table: usize,
        initial: ShardMap,
        kill_on_migrate: Option<u64>,
    ) -> Arc<Self> {
        let me = node.id;
        let name = |s: &str| format!("node{me}.reshard.{s}");
        let registry = node.registry.clone();
        let version = initial.version;
        let st = ElasticState {
            me,
            capacity,
            table,
            dir: Directory::elastic(table, initial),
            transport,
            shards: Mutex::default(),
            bounced: Mutex::new(VecDeque::new()),
            requeued: Mutex::default(),
            refused: Mutex::new(None),
            kill_on_migrate: Mutex::new(kill_on_migrate),
            stale_routed: registry.counter(&name("stale_routed")),
            redelivered: registry.counter(&name("redelivered")),
            bounce_dropped: registry.counter(&name("bounce_dropped")),
            shards_in: registry.counter(&name("shards_in")),
            shards_out: registry.counter(&name("shards_out")),
            bytes_migrated: registry.counter(&name("bytes_migrated")),
            topo_fenced: registry.counter(&name("topo_fenced")),
            takeovers: registry.counter("ha.takeovers"),
            evictions_vetoed: registry.counter("ha.evictions_vetoed"),
            map_version: registry.gauge(&name("map_version")),
            ha_term: registry.gauge(&format!("node{me}.ha.term")),
            migration_ns: registry.histogram(&name("migration_ns")),
            node,
        };
        st.map_version.set(version as i64);
        st.ha_term.set(gravel_core::ha::INITIAL_TERM as i64);
        Arc::new(st)
    }

    /// Mark shards as served *and* checkpoint-ready (startup: a cold
    /// initial member's dealt shards, or a restarted node's recovered
    /// ready set: its baseline's app words).
    pub fn seed_ready(&self, shards: &[u32]) {
        let mut s = lock(&self.shards);
        s.served.extend(shards);
        s.ready.extend(shards);
    }

    pub fn current_map(&self) -> Arc<ShardMap> {
        self.dir.current_map().expect("elastic directory")
    }

    /// Fenced map install (TOPO and BOUNCE). `Stale` means the whole
    /// frame must be ignored; `pruned`, that a ready shard left.
    fn install_map(&self, map: &ShardMap, term: u64) -> (FencedInstall, bool) {
        let outcome = self.dir.install_fenced(map.clone(), term);
        let mut pruned = false;
        if outcome == FencedInstall::Stale {
            self.topo_fenced.inc();
        } else if outcome == FencedInstall::Installed {
            self.map_version.set(map.version as i64);
            // Ownership moved: stop serving (and checkpointing) any
            // shard the new map assigns elsewhere. Without this prune a
            // shard that leaves and later returns would be served from
            // its stale pre-departure words.
            let s = &mut *lock(&self.shards);
            s.served.retain(|&x| map.owner_of_shard(x) == self.me);
            let ready = s.ready.len();
            s.ready.retain(|&x| map.owner_of_shard(x) == self.me);
            pruned = s.ready.len() < ready;
        }
        (outcome, pruned)
    }

    /// Send `shard`'s strided words, read from `word(global index)`.
    fn ship(&self, to: u32, shard: u32, word: impl Fn(usize) -> u64) {
        let map = self.current_map();
        let stride = map.nshards();
        let words: Vec<u64> = (0..map.shard_words(self.table, shard))
            .map(|k| word(shard as usize + k * stride))
            .collect();
        let n = words.len() as u64;
        let frame = proto::encode_migrate(&MigrateMsg { version: map.version, shard, words });
        if self.transport.send_control(to, &frame) {
            self.shards_out.inc();
            self.bytes_migrated.add(n * 8);
        }
    }

    fn chaos_kill_tick(&self, shard: u32) {
        let mut slot = lock(&self.kill_on_migrate);
        if let Some(k) = slot.as_mut() {
            *k -= 1;
            if *k == 0 {
                eprintln!(
                    "[gravel-node {}] chaos: SIGKILL mid-migration (shard {} written, not yet cut)",
                    self.me, shard
                );
                crate::signal::kill_self_hard();
            }
        }
    }

    /// Handle `from`'s bounce: adopt the newer map, queue the refused
    /// quads once. Returns whether the map pruned a ready shard.
    pub fn on_bounce(&self, from: u32, b: BounceMsg) -> bool {
        // Bounce maps carry no term of their own — they echo a map that
        // was originally installed under a fenced TOPO, so version
        // monotonicity suffices. Install at the current floor.
        let (_, pruned) = self.install_map(&b.map, self.dir.term());
        self.requeue(from, b.refused);
        pruned
    }

    /// Queue `r`'s quads, refused by `receiver`, for re-aggregation once.
    fn requeue(&self, receiver: u32, r: LoggedPacket) {
        if !lock(&self.requeued).fresh(receiver, r.lane(), r.seq()) {
            return;
        }
        let mut q = lock(&self.bounced);
        for quad in r.words().chunks_exact(4) {
            q.push_back(quad.try_into().expect("chunks_exact(4)"));
        }
        self.redelivered.add((r.words().len() / 4) as u64);
    }

    /// Send `r` back to its sender with the current map: to our own
    /// sender's queue on loopback. `false` if the sender's link is down.
    fn send_bounce(&self, r: LoggedPacket) -> bool {
        if r.src() == self.me {
            self.requeue(self.me, r);
            return true;
        }
        let (map, src) = ((*self.current_map()).clone(), r.src());
        self.transport.send_control(src, &proto::encode_bounce(&BounceMsg { map, refused: r }))
    }

    /// A restarted node re-sends the bounces its keeper's log says its
    /// predecessor owed, uncounted: each was counted when forwarded.
    pub fn resend_owed(&self, owed: Vec<LoggedPacket>) {
        for r in owed {
            self.send_bounce(r);
        }
    }
}

/// The sender's bounce source: what the gate, or a peer's `OP_BOUNCE`,
/// handed back, for the sender to route again.
impl Bounces for ElasticState {
    fn take_bounced(&self) -> Vec<[u64; 4]> {
        lock(&self.bounced).drain(..).collect()
    }
}

/// The receive-side stale-routing gate: [`reshard::gate`] against the
/// installed map and the served shards. The forwarder takes what it
/// refuses ([`forward::Reshard`]).
impl ApplyGate for ElasticState {
    fn filter(&self, pkt: &Packet) -> Option<Packet> {
        let map = self.dir.current_map()?;
        let (kept, quads) = {
            let shards = lock(&self.shards);
            reshard::gate(self.me, &map, |s| shards.served.contains(&s), pkt)?
        };
        *lock(&self.refused) = Some(LoggedPacket::refused(pkt.src, pkt.lane, pkt.seq, &quads));
        Some(kept)
    }
}

impl forward::Reshard for ElasticState {
    fn ready_shards(&self) -> Vec<u64> {
        let mut v: Vec<u64> = lock(&self.shards).ready.iter().map(|&s| u64::from(s)).collect();
        v.sort_unstable();
        v
    }

    fn take_refusal(&self) -> Option<LoggedPacket> {
        lock(&self.refused).take()
    }

    /// Counted here, once the refusal is durable: a kill before the
    /// forward undoes it, and the re-sent packet is gated again.
    fn bounce(&self, r: LoggedPacket) {
        let n = (r.words().len() / 4) as u64;
        self.stale_routed.add(n);
        if !self.send_bounce(r) {
            // Sender's link is down (it died): the messages are lost to
            // it — surfaced, not silent.
            self.bounce_dropped.add(n);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------
// Deterministic elastic traffic
// ---------------------------------------------------------------------

/// This node's elastic update stream: `(global_index, inc_value)`
/// pairs. Two deterministic halves — a GUPS stream (uniform singles)
/// and a PageRank-style contribution stream (weighted values) — both
/// derived from [`gups::node_updates`] so the split across `capacity`
/// slots is a pure function of the seed, independent of membership.
/// Only initial members send; joiners and leavers route and serve.
pub fn elastic_plan(input: &GupsInput, capacity: usize, me: u32) -> Vec<(u64, u64)> {
    let mut plan: Vec<(u64, u64)> = gups::node_updates(input, capacity, me as usize)
        .into_iter()
        .map(|g| (g as u64, 1))
        .collect();
    let contrib = GupsInput { seed: input.seed ^ 0xC0FF_EE00_D15C_0B0E, ..*input };
    plan.extend(
        gups::node_updates(&contrib, capacity, me as usize)
            .into_iter()
            .enumerate()
            .map(|(k, g)| (g as u64, 1 + (k as u64 % 7))),
    );
    plan
}

/// The sequential truth: the table after `senders`' full streams.
pub fn expected_table(input: &GupsInput, capacity: usize, senders: &[u32]) -> Vec<u64> {
    let mut t = vec![0u64; input.table_len];
    for &m in senders {
        for (g, v) in elastic_plan(input, capacity, m) {
            t[g as usize] = t[g as usize].wrapping_add(v);
        }
    }
    t
}

// ---------------------------------------------------------------------
// Control-plane dispatch and the HA loop
// ---------------------------------------------------------------------

/// Shared wiring the elastic control paths need.
pub struct ElasticCtx {
    pub state: Arc<ElasticState>,
    /// The control-plane state machine, stepped by the HA loop and the
    /// control loop.
    pub ha: Mutex<HaMachine>,
    pub forwarder: Arc<Forwarder>,
    pub stores: Arc<WardStores>,
    pub detector: Arc<FailureDetector>,
    /// `--kill-on-commit`: SIGKILL right after broadcasting the next
    /// moves-carrying commit, before installing it here.
    pub kill_on_commit: bool,
    /// Set once startup recovery has restored the heap. Until then this
    /// node neither installs nor donates shard words: an install would
    /// be overwritten by the recovered image (while the shard stayed
    /// marked as served), a donation would ship words not yet restored.
    /// Both pulls are re-requested until answered, so refusing is safe.
    pub started: Arc<AtomicBool>,
}

impl ElasticCtx {
    /// The machine, for a read: its lease, whether it has synced the
    /// map, whether it still pulls.
    pub fn machine(&self) -> std::sync::MutexGuard<'_, HaMachine> {
        lock(&self.ha)
    }

    /// Feed the machine one event and perform what it returns; `words`
    /// are the shard words an install writes.
    fn step(&self, event: Event<'_>, words: &[u64]) {
        let actions = {
            let mut ha = lock(&self.ha);
            let actions = ha.step(Instant::now(), event);
            self.state.ha_term.set(ha.lease().0 as i64);
            actions
        };
        self.perform(actions, words);
    }

    /// A TOPO issued by `from`: fence by term and install the map, then
    /// let the machine register, re-ack and reset what it carries.
    fn on_topo(&self, t: &Topo, from: u32) {
        let (outcome, pruned) = self.state.install_map(&t.map, t.term);
        if outcome == FencedInstall::Stale {
            return;
        }
        // A ready shard left: cut before anything can ship it, so the
        // buddy's baseline stops claiming it — a restart would otherwise
        // serve its stale words when it returns. (Until startup recovery
        // is done, its own cut does this.)
        if pruned && self.started.load(Ordering::SeqCst) {
            self.forwarder.rebaseline();
        }
        let map = self.state.current_map();
        let served: Vec<u32> = lock(&self.state.shards).served.iter().copied().collect();
        self.step(Event::Topo { from, topo: t, map: &map, served: &served }, &[]);
    }

    /// Send `words` to every other slot. Absent slots (a not-yet-started
    /// joiner) drop them; they sync on a later beat or knock.
    fn broadcast(&self, words: &[u64]) {
        for peer in (0..self.state.capacity as u32).filter(|&p| p != self.state.me) {
            self.state.transport.send_control(peer, words);
        }
    }

    /// Perform what the machine decided, in order.
    fn perform(&self, actions: Vec<Action>, words: &[u64]) {
        let (state, me) = (&self.state, self.state.me);
        let send = |to: u32, words: Vec<u64>| {
            self.state.transport.send_control(to, &words);
        };
        let log = |what: String| eprintln!("[gravel-node {me}] {what}");
        for action in actions {
            match action {
                Action::Beat { term, holder } => {
                    if holder != me {
                        log(format!("ha: handing lease to node {holder} (term {term}), leaving"));
                    }
                    self.broadcast(&proto::encode_lease(term, holder, state.dir.version()));
                }
                Action::AskVote { to, suspect } => send(to, proto::encode_death_vote_req(suspect)),
                Action::Vote { to, suspect, dead } => {
                    send(to, proto::encode_death_vote(suspect, dead))
                }
                Action::RequestMap { to } => send(to, proto::encode_map_req()),
                Action::RequestJoin { to } => send(to, proto::encode_join_req(me)),
                Action::RequestLeave { to } => send(to, proto::encode_leave_req(me)),
                Action::Revive { peer } => {
                    log(format!(
                        "ha: node {peer} beats resumed — clearing latched death (healed?)"
                    ));
                    self.detector.reset_peer(peer, Instant::now());
                }
                Action::TookOver { term, from } => {
                    state.takeovers.inc();
                    log(format!(
                        "ha: TAKEOVER — holder {from} confirmed dead by quorum, term {term}"
                    ));
                }
                Action::Vetoed { suspect } => {
                    state.evictions_vetoed.inc();
                    log(format!(
                        "ha: eviction of node {suspect} VETOED (majority still hears it — \
                         one-way or local fault)"
                    ));
                }
                Action::Evicting { peer } => log(format!(
                    "reshard: proposing EVICT of node {peer} (dead past grace, quorum-confirmed)"
                )),
                Action::Commit(t) => {
                    // The boundary ritual: cut first, so the change lands
                    // between epochs, then flip the map.
                    self.forwarder.rebaseline();
                    self.broadcast(&proto::encode_topo(&t));
                    let change = t.change.expect("a commit names its change");
                    let (v, moves) = (t.map.version, t.moves.len());
                    if self.kill_on_commit && moves > 0 {
                        log(format!(
                            "chaos: SIGKILL right after committing {change:?} v{v} ({moves} moves \
                             outstanding)"
                        ));
                        crate::signal::kill_self_hard();
                    }
                    self.on_topo(&t, me);
                    log(format!("reshard: committed {change:?} v{v} ({moves} moves)"));
                }
                Action::Redrive(t) => {
                    // Destinations already serving re-ack to us (our own
                    // through the loopback); the rest re-pull from donors.
                    self.broadcast(&proto::encode_topo(&t));
                    self.on_topo(&t, me);
                    let (v, n) = (t.map.version, t.moves.len());
                    log(format!("ha: re-driving migration v{v} ({n} moves) under term {}", t.term));
                }
                Action::SendTopo { to, topo } => send(to, proto::encode_topo(&topo)),
                Action::Pull { to, shard, ward: None } => {
                    send(to, proto::encode_migrate_req(state.dir.version(), shard))
                }
                Action::Pull { to, shard, ward: Some(w) } => {
                    send(to, proto::encode_ward_migrate_req(state.dir.version(), shard, w))
                }
                Action::Ship { to, shard, ward: None } => {
                    state.ship(to, shard, |g| state.node.heap.load(g as u64))
                }
                Action::Ship { to, shard, ward: Some(w) } => {
                    let heap = self.stores.ship_ward(w, shard).filter(|h| h.len() == state.table);
                    if let Some(heap) = heap {
                        state.ship(to, shard, |g| heap[g]);
                    }
                }
                // No lock: the gate bounces every write to a shard not
                // yet served, so nothing else touches these addresses.
                Action::Write { shard } => {
                    let stride = state.current_map().nshards() as u64;
                    for (k, &w) in words.iter().enumerate() {
                        state.node.heap.store(shard as u64 + k as u64 * stride, w);
                    }
                }
                Action::MarkReady { shard } => {
                    lock(&state.shards).ready.insert(shard);
                    state.chaos_kill_tick(shard);
                }
                // The buddy's baseline now proves the shard.
                Action::Cut => self.forwarder.rebaseline(),
                Action::Serve { shard, waited } => {
                    lock(&state.shards).served.insert(shard);
                    state.migration_ns.record(waited.as_nanos() as u64);
                    state.shards_in.inc();
                    state.bytes_migrated.add(words.len() as u64 * 8);
                    let v = state.dir.version();
                    log(format!("reshard: installed shard {shard} ({} words) v{v}", words.len()));
                }
                Action::Ack { to, shard, version } => {
                    send(to, proto::encode_migrate_ack(version, shard))
                }
                Action::Migrated => {
                    log(format!("reshard: topology change complete (v{})", state.dir.version()))
                }
            }
        }
    }
}

/// Dispatch one control frame's elastic ops. Returns `false` for ops
/// this layer does not own (the caller's static protocol handles them).
pub fn handle_ctrl(ctx: &ElasticCtx, src: u32, words: &[u64]) -> bool {
    let (state, now) = (&ctx.state, Instant::now());
    let started = ctx.started.load(Ordering::SeqCst);
    let map = || state.current_map();
    match words.first().copied() {
        Some(OP_TOPO) => {
            if let Some(t) = proto::decode_topo(words) {
                ctx.on_topo(&t, src);
            }
        }
        Some(OP_MIGRATE) if started => {
            if let Some(m) = proto::decode_migrate(words) {
                let served = lock(&state.shards).served.contains(&m.shard);
                let (shard, n, map) = (m.shard, m.words.len(), map());
                ctx.step(Event::Words { shard, words: n, served, map: &map }, &m.words);
            }
        }
        Some(OP_MIGRATE_REQ) if started => {
            if let Some((_, shard)) = proto::decode_migrate_req(words) {
                ctx.step(Event::Pull { from: src, shard }, &[]);
            }
        }
        // Before startup recovery is done: see `ElasticCtx::started`.
        Some(OP_MIGRATE | OP_MIGRATE_REQ) => {}
        Some(OP_WARD_MIGRATE_REQ) => {
            if let Some((_, shard, ward)) = proto::decode_ward_migrate_req(words) {
                let latched = ctx.detector.status(ward, now) == PeerStatus::Dead;
                let map = map();
                ctx.step(Event::WardPull { from: src, shard, ward, latched, map: &map }, &[]);
            }
        }
        Some(OP_MIGRATE_ACK) => {
            if let Some((version, shard)) = proto::decode_migrate_ack(words) {
                ctx.step(Event::MigrateAck { shard, version }, &[]);
            }
        }
        Some(OP_JOIN_REQ) => {
            if let Some(n) = proto::decode_join_req(words) {
                ctx.step(Event::MapRequest { from: src, join: Some(n), map: &map() }, &[]);
            }
        }
        Some(OP_MAP_REQ) => ctx.step(Event::MapRequest { from: src, join: None, map: &map() }, &[]),
        Some(OP_LEAVE_REQ) => {
            if let Some(n) = proto::decode_leave_req(words) {
                ctx.step(Event::Propose(TopologyChange::Leave(n)), &[]);
            }
        }
        Some(OP_BOUNCE) => {
            // As for a TOPO whose map pruned a ready shard.
            if proto::decode_bounce(words).is_some_and(|b| state.on_bounce(src, b)) && started {
                ctx.forwarder.rebaseline();
            }
        }
        Some(OP_LEASE) => {
            if let Some((term, holder, map_version)) = proto::decode_lease(words) {
                let mine = state.dir.version();
                ctx.step(Event::Lease { term, holder, map_version, mine }, &[]);
            }
        }
        Some(OP_DEATH_VOTE_REQ) => {
            if let Some(suspect) = proto::decode_death_vote_req(words) {
                let latched = ctx.detector.status(suspect, now) == PeerStatus::Dead;
                ctx.step(Event::VoteRequest { from: src, suspect, latched }, &[]);
            }
        }
        Some(OP_DEATH_VOTE) => {
            if let Some((suspect, dead)) = proto::decode_death_vote(words) {
                ctx.step(Event::Vote { from: src, suspect, dead }, &[]);
            }
        }
        _ => return false,
    }
    true
}

/// The control loop **every** elastic node runs from startup: every
/// 25 ms it steps the machine with the detector's latched peers, the
/// installed map and the leave signal, and performs what it returns —
/// beats, votes, commits, pulls and knocks at the holder alike.
pub fn run_ha(ctx: &ElasticCtx, stop: &AtomicBool, deadline: Instant) {
    let (detector, transport) = (&ctx.detector, &ctx.state.transport);
    while !stop.load(Ordering::Relaxed) && !transport.is_closed() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
        let now = Instant::now();
        let map = ctx.state.current_map();
        let silence = |p| (p, detector.silence(p, now).unwrap_or(Duration::MAX));
        let dead: Vec<(u32, Duration)> = detector.dead_peers().into_iter().map(silence).collect();
        let leave = crate::signal::leave_requested();
        ctx.step(Event::Tick { map: &map, dead: &dead, leave }, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elastic_plan_is_deterministic_and_membership_independent() {
        let input = GupsInput { updates: 1000, table_len: 64, seed: 9 };
        assert_eq!(elastic_plan(&input, 6, 2), elastic_plan(&input, 6, 2));
        assert_ne!(elastic_plan(&input, 6, 2), elastic_plan(&input, 6, 3));
        // Weighted half really carries weights.
        assert!(elastic_plan(&input, 6, 0).iter().any(|&(_, v)| v > 1));
    }

    #[test]
    fn expected_table_sums_the_sender_streams() {
        let input = GupsInput { updates: 200, table_len: 32, seed: 5 };
        let t = expected_table(&input, 4, &[0, 1, 2, 3]);
        let total: u64 = t.iter().sum();
        let per_node: u64 = (0..4)
            .flat_map(|m| elastic_plan(&input, 4, m))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, per_node);
        // A non-sender contributes nothing.
        assert_eq!(expected_table(&input, 4, &[]), vec![0; 32]);
    }
}

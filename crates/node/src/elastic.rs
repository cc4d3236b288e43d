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
//! * **Epoch-boundary commit.** The coordinator (whichever member
//!   holds the lease, below) queues JOIN/LEAVE/EVICT proposals and
//!   commits at most one at a time: cut an epoch, compute the
//!   minimal-move map, broadcast `TOPO`. Traffic on unaffected shards
//!   never stops.
//! * **Stale-routing bounce.** The receive-side [`ApplyGate`] refuses
//!   messages for shards it does not own (stale map at the sender) or
//!   does not *yet* serve (migration still in flight) and bounces them
//!   to their sender with the current map — the packet's sequence
//!   number is consumed and acked either way, so the flow never wedges
//!   and nothing is ever dropped: [`ElasticState`] is the sender's
//!   bounce source ([`crate::sender::Bounces`]), and the sender queues
//!   bounced messages for their new owner. `reshard.stale_routed`
//!   (bounced) and `reshard.redelivered` (re-enqueued) reconcile
//!   exactly.
//! * **Pull-based migration.** A shard's new owner re-requests the
//!   shard until the words arrive — idempotent, so a kill -9 mid
//!   -migration heals by re-pulling after recovery. The donor's copy is
//!   frozen the moment it installs the new map (its own gate bounces
//!   every write), so serving repeated requests from the live heap is
//!   exact. For an EVICT the donor is dead; the shard is reconstructed
//!   from the dead node's buddy via [`WardStores::reconstruct_heap`]
//!   (forward-before-ack makes that reconstruction contain every
//!   update any sender ever saw acked).
//! * **Kill-window ordering.** On receipt of shard words:
//!   write words → mark checkpoint-ready → cut an epoch → serve →
//!   ack to coordinator. A kill between any two steps is safe: before
//!   the cut the shard is absent from the buddy checkpoint's `ready`
//!   set and is re-pulled; after it, recovery restores it as served
//!   (and the coordinator's outstanding-move entry is re-acked when
//!   the restarted node sees the snapshot `TOPO`).
//!
//! The elastic traffic model is commutative-only (INC with per-message
//! values) so bounce-redelivery reordering cannot perturb the final
//! histogram; [`expected_table`] is the sequential truth the acceptance
//! suite compares against bit-exactly.
//!
//! The coordinator role is a fenced lease (DESIGN.md §18): every
//! lease, vote, takeover, eviction and commit decision is the
//! [`HaMachine`]'s; [`run_ha`] and [`handle_ctrl`] only feed it what the
//! detector, the map and the control frames say and perform what it
//! returns.
//!
//! Documented limitations (asserted by tests, not hidden): an elastic
//! *sender's* restart is unsupported (its queues are volatile —
//! chaos targets joiners mid-migration and drained evictees); a member
//! evicted while data packets to it are still unacked leaves those
//! flows probing forever (the harness drains before killing, so the
//! suite never enters that window); and a cluster without a live
//! majority of its last-committed membership deliberately freezes
//! rather than guess.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gravel_apps::gups::{self, GupsInput};
use gravel_core::ha::{Action, Event, HaMachine, RebalancePlan, TopologyChange};
use gravel_core::netthread::ApplyGate;
use gravel_core::{FailureDetector, NodeShared, PeerStatus};
use gravel_gq::{Command, Message};
use gravel_net::{SocketTransport, Transport};
use gravel_pgas::{Directory, FencedInstall, Packet, ShardMap};
use gravel_telemetry::{Counter, Gauge, Histogram};

use crate::forward::Forwarder;
use crate::sender::Bounces;
use crate::proto::{
    self, BounceMsg, MigrateMsg, TopoMsg, OP_BOUNCE, OP_DEATH_VOTE,
    OP_DEATH_VOTE_REQ, OP_JOIN_REQ, OP_LEASE, OP_LEAVE_REQ, OP_MAP_REQ, OP_MIGRATE,
    OP_MIGRATE_ACK, OP_MIGRATE_REQ, OP_TOPO, OP_WARD_MIGRATE_REQ,
};
use crate::store::WardStores;

/// A pending (non-evict) shard pull that has gone unanswered this long
/// escalates: the destination *also* knocks the donor's ward keeper.
/// Covers a donor that died mid-migration (e.g. the old coordinator) —
/// the keeper only answers once its own detector latched the donor
/// dead, so a merely slow donor is never shadow-served.
const WARD_FALLBACK: Duration = Duration::from_millis(1000);

/// Number of table words in `shard` under an identity-strided layout:
/// the globals `g < table` with `g % nshards == shard`.
pub fn shard_words(table: usize, nshards: usize, shard: u32) -> usize {
    let s = shard as usize;
    if s >= table {
        0
    } else {
        (table - s).div_ceil(nshards)
    }
}

/// One pending inbound shard migration.
struct MoveIn {
    /// Old owner (the pull target), or the dead node whose buddy we
    /// pull the ward reconstruction from when `evict`.
    from: u32,
    evict: bool,
    since: Instant,
}

/// Everything the elastic data plane shares between the gate (network
/// thread), the control loop, the HA loop, and the sender.
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
    /// Shards the gate applies locally (everything else bounces).
    serving: Mutex<HashSet<u32>>,
    /// Shards recorded as ready in the *next* epoch cut. Updated
    /// before the post-migration cut, so a checkpoint's `ready` set
    /// never claims a shard whose words it does not contain.
    ckpt_ready: Mutex<HashSet<u32>>,
    moves_in: Mutex<HashMap<u32, MoveIn>>,
    /// Shards we are the authoritative donor for: `shard → new owner`.
    /// Reset from each `TOPO`'s outstanding-move list.
    moves_out: Mutex<HashMap<u32, u32>>,
    /// Bounced message quads awaiting re-aggregation by the sender.
    bounced: Mutex<VecDeque<[u64; 4]>>,
    topo_seen: AtomicBool,
    /// `--kill-on-migrate K`: SIGKILL while installing the Kth
    /// migrated shard, after its words land but before the epoch cut —
    /// the adversarial mid-migration window.
    kill_on_migrate: Mutex<Option<u64>>,
    /// The HA state machine: lease, votes, rebalancer and timers.
    ha: Mutex<HaMachine>,
    stale_routed: Counter,
    redelivered: Counter,
    bounce_dropped: Counter,
    moves_in_ctr: Counter,
    moves_out_ctr: Counter,
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
        ha: HaMachine,
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
            serving: Mutex::new(HashSet::new()),
            ckpt_ready: Mutex::new(HashSet::new()),
            moves_in: Mutex::new(HashMap::new()),
            moves_out: Mutex::new(HashMap::new()),
            bounced: Mutex::new(VecDeque::new()),
            topo_seen: AtomicBool::new(ha.is_holder()),
            kill_on_migrate: Mutex::new(kill_on_migrate),
            ha: Mutex::new(ha),
            stale_routed: registry.counter(&name("stale_routed")),
            redelivered: registry.counter(&name("redelivered")),
            bounce_dropped: registry.counter(&name("bounce_dropped")),
            moves_in_ctr: registry.counter(&name("moves_in")),
            moves_out_ctr: registry.counter(&name("moves_out")),
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
        let mut serving = lock(&self.serving);
        let mut ckpt = lock(&self.ckpt_ready);
        for &s in shards {
            serving.insert(s);
            ckpt.insert(s);
        }
    }

    /// The checkpoint provider: shards whose words are guaranteed
    /// present in any heap snapshot taken from now on, as a baseline's
    /// app words.
    pub fn ckpt_ready_shards(&self) -> Vec<u64> {
        let mut v: Vec<u64> = lock(&self.ckpt_ready).iter().map(|&s| u64::from(s)).collect();
        v.sort_unstable();
        v
    }

    pub fn current_map(&self) -> Arc<ShardMap> {
        self.dir.current_map().expect("elastic directory")
    }

    pub fn version(&self) -> u64 {
        self.dir.version()
    }

    pub fn members(&self) -> Vec<u32> {
        self.current_map().members.clone()
    }

    /// Owner per shard under the installed map (report surface: lets a
    /// harness assemble the authoritative table from owners' heaps).
    pub fn shard_owners(&self) -> Vec<u32> {
        let map = self.current_map();
        (0..map.nshards() as u32).map(|s| map.owner_of_shard(s)).collect()
    }

    pub fn is_member(&self) -> bool {
        self.current_map().is_member(self.me)
    }

    /// Whether any topology frame (including a same-version snapshot)
    /// has been observed — gates data-plane startup on restarted
    /// non-coordinator nodes so a stale map never serves traffic.
    pub fn topo_seen(&self) -> bool {
        self.topo_seen.load(Ordering::SeqCst)
    }

    pub fn migrations_pending(&self) -> bool {
        !lock(&self.moves_in).is_empty()
    }

    /// The coordinator lease as this node accepted it: `(term, holder)`.
    pub fn lease(&self) -> (u64, u32) {
        lock(&self.ha).lease()
    }

    /// Whether this node currently holds the lease.
    pub fn is_lease_holder(&self) -> bool {
        lock(&self.ha).is_holder()
    }

    /// Feed the HA machine one event; returns what to perform.
    pub fn step(&self, now: Instant, event: Event<'_>) -> Vec<Action> {
        let mut ha = lock(&self.ha);
        let actions = ha.step(now, event);
        self.ha_term.set(ha.lease().0 as i64);
        actions
    }

    /// Fenced map install (the only install path for TOPO frames).
    /// `Stale` means the whole frame must be ignored.
    fn install_map(&self, map: &ShardMap, term: u64) -> FencedInstall {
        let outcome = self.dir.install_fenced(map.clone(), term);
        if outcome == FencedInstall::Stale {
            self.topo_fenced.inc();
            return outcome;
        }
        self.topo_seen.store(true, Ordering::SeqCst);
        if outcome == FencedInstall::Installed {
            self.map_version.set(map.version as i64);
            // Ownership moved: stop serving (and checkpointing) any
            // shard the new map assigns elsewhere. Without this prune a
            // shard that leaves and later returns would be served from
            // its stale pre-departure words.
            let mine: HashSet<u32> = map.shards_of(self.me).into_iter().collect();
            lock(&self.serving).retain(|s| mine.contains(s));
            lock(&self.ckpt_ready).retain(|s| mine.contains(s));
            lock(&self.moves_in).retain(|s, _| mine.contains(s));
        }
        outcome
    }

    /// Handle a `TOPO` broadcast (or snapshot) issued by `from`:
    /// fence by term, install the map, register inbound moves for
    /// re-request, reset the donor registry. Migration acks go to the
    /// frame's sender — under a takeover that is the *new* holder, not
    /// whatever fixed slot first committed the plan.
    pub fn on_topo(&self, t: &TopoMsg, from: u32) {
        if self.install_map(&t.map, t.term) == FencedInstall::Stale {
            return;
        }
        let plan = t.change.filter(|_| !t.moves.is_empty());
        let plan =
            plan.map(|change| RebalancePlan { change, map: t.map.clone(), moves: t.moves.clone() });
        self.step(Instant::now(), Event::Topo { term: t.term, from, plan });
        let map = self.current_map();
        let evict = matches!(t.change, Some(TopologyChange::Evict(_)));
        {
            let serving = lock(&self.serving);
            let mut moves_in = lock(&self.moves_in);
            for m in &t.moves {
                if m.to != self.me || map.owner_of_shard(m.shard) != self.me {
                    continue;
                }
                if serving.contains(&m.shard) {
                    // Already installed (a kill landed between our cut
                    // and the ack, or a takeover re-broadcast): the
                    // sender is still waiting for this ack.
                    self.transport.send_control(
                        from,
                        &proto::encode_migrate_ack(map.version, m.shard),
                    );
                } else {
                    moves_in.entry(m.shard).or_insert(MoveIn {
                        from: m.from,
                        evict,
                        since: Instant::now(),
                    });
                }
            }
        }
        {
            let mut out = lock(&self.moves_out);
            out.clear();
            for m in &t.moves {
                if m.from == self.me {
                    out.insert(m.shard, m.to);
                }
            }
        }
        self.request_pending();
    }

    /// (Re-)request every pending inbound shard. Idempotent by design:
    /// [`run_ha`] calls this until the words arrive. A non-evict pull
    /// stalled past `WARD_FALLBACK` additionally knocks the donor's
    /// ward keeper — the donor may have died mid-migration, and the
    /// keeper's reconstruction is then the only surviving copy.
    pub fn request_pending(&self) {
        let map = self.current_map();
        let mut reqs: Vec<(u32, Vec<u64>)> = Vec::new();
        for (&shard, mi) in lock(&self.moves_in).iter() {
            let keeper = (mi.from + 1) % self.capacity as u32;
            if mi.evict {
                // The donor is dead; its buddy holds the ward.
                reqs.push((keeper, proto::encode_ward_migrate_req(map.version, shard, mi.from)));
            } else {
                reqs.push((mi.from, proto::encode_migrate_req(map.version, shard)));
                if mi.since.elapsed() >= WARD_FALLBACK {
                    reqs.push((
                        keeper,
                        proto::encode_ward_migrate_req(map.version, shard, mi.from),
                    ));
                }
            }
        }
        for (to, words) in reqs {
            self.transport.send_control(to, &words);
        }
    }

    /// Install arriving shard words (the migration receive side; see
    /// module docs for the kill-window ordering).
    pub fn on_migrate(&self, m: &MigrateMsg, forwarder: &Forwarder) {
        let map = self.current_map();
        if map.owner_of_shard(m.shard) != self.me {
            return;
        }
        if lock(&self.serving).contains(&m.shard) {
            // Duplicate delivery (our ack raced a re-request): re-ack.
            self.transport
                .send_control(self.lease().1, &proto::encode_migrate_ack(map.version, m.shard));
            return;
        }
        if !lock(&self.moves_in).contains_key(&m.shard)
            || m.words.len() != shard_words(self.table, map.nshards(), m.shard)
        {
            return;
        }
        // 1. Words land. No lock needed: the gate bounces every write
        // to a not-yet-served shard, so nothing else touches these
        // addresses.
        let stride = map.nshards() as u64;
        for (k, &w) in m.words.iter().enumerate() {
            self.node.heap.store(m.shard as u64 + k as u64 * stride, w);
        }
        // 2. Checkpoint-ready before the cut that will contain it.
        lock(&self.ckpt_ready).insert(m.shard);
        self.chaos_kill_tick(m.shard);
        // 3. Epoch cut: the buddy's baseline now proves the shard.
        forwarder.rebaseline();
        // 4. Serve.
        let taken = lock(&self.moves_in).remove(&m.shard);
        lock(&self.serving).insert(m.shard);
        if let Some(mi) = taken {
            self.migration_ns.record(mi.since.elapsed().as_nanos() as u64);
        }
        self.moves_in_ctr.inc();
        self.bytes_migrated.add(m.words.len() as u64 * 8);
        // 5. Tell whoever holds the lease (the migration's coordinator).
        self.transport
            .send_control(self.lease().1, &proto::encode_migrate_ack(map.version, m.shard));
        eprintln!(
            "[gravel-node {}] reshard: installed shard {} ({} words) v{}",
            self.me,
            m.shard,
            m.words.len(),
            map.version
        );
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

    /// Serve a shard pull from our (frozen) live heap. Only answered
    /// while the donor registry names the requester — any other copy of
    /// this shard we might hold is potentially stale.
    pub fn serve_migrate_req(&self, version: u64, shard: u32, to: u32) {
        if lock(&self.moves_out).get(&shard) == Some(&to) {
            self.ship(to, version, shard, |g| self.node.heap.load(g as u64));
        }
    }

    /// Send `shard`'s strided words, read from `word(global index)`.
    fn ship(&self, to: u32, version: u64, shard: u32, word: impl Fn(usize) -> u64) {
        let stride = self.current_map().nshards();
        let words: Vec<u64> = (0..shard_words(self.table, stride, shard))
            .map(|k| word(shard as usize + k * stride))
            .collect();
        let n = words.len() as u64;
        let frame = proto::encode_migrate(&MigrateMsg { version, shard, words });
        if self.transport.send_control(to, &frame) {
            self.moves_out_ctr.inc();
            self.bytes_migrated.add(n * 8);
        }
    }

    /// Serve a shard pull out of a dead ward's reconstruction (we are
    /// the dead node's buddy). Answered when the ward was evicted — or
    /// is still a member but *our own* detector has latched it dead
    /// (`ward_dead`): a donor killed mid-migration whose eviction
    /// cannot commit until this very pull completes the plan.
    pub fn serve_ward_migrate_req(
        &self,
        version: u64,
        shard: u32,
        ward: u32,
        to: u32,
        stores: &WardStores,
        ward_dead: bool,
    ) {
        let map = self.current_map();
        if (map.is_member(ward) && !ward_dead) || map.owner_of_shard(shard) != to {
            return;
        }
        if let Some(heap) = stores.reconstruct_heap(ward).filter(|h| h.len() == self.table) {
            self.ship(to, version, shard, |g| heap[g]);
        }
    }

    /// Handle a bounce: adopt the newer map, queue the refused quads
    /// for re-aggregation.
    pub fn on_bounce(&self, b: &BounceMsg) {
        // Bounce maps carry no term of their own — they echo a map that
        // was originally installed under a fenced TOPO, so version
        // monotonicity suffices. Install at the current floor.
        self.install_map(&b.map, self.dir.term());
        self.enqueue_bounced(&b.quads);
    }

    fn enqueue_bounced(&self, quads: &[u64]) {
        let mut q = lock(&self.bounced);
        for quad in quads.chunks_exact(4) {
            q.push_back(quad.try_into().expect("chunks_exact(4)"));
        }
        self.redelivered.add((quads.len() / 4) as u64);
    }

}

/// The sender's bounce source: what the gate, or a peer's `OP_BOUNCE`,
/// handed back, for the sender to route again.
impl Bounces for ElasticState {
    fn take_bounced(&self) -> Vec<[u64; 4]> {
        lock(&self.bounced).drain(..).collect()
    }
}

/// The receive-side stale-routing gate: every accepted packet's
/// PUT/INC messages are checked against the installed map and the
/// served-shard set; refused messages bounce to the packet's sender
/// with the current map and the packet applies without them.
impl ApplyGate for ElasticState {
    fn filter(&self, pkt: &Packet) -> Option<Packet> {
        let map = self.dir.current_map()?;
        let mut kept: Vec<u64> = Vec::new();
        let mut refused: Vec<u64> = Vec::new();
        {
            let serving = lock(&self.serving);
            for words in pkt.messages() {
                let keep = match Message::decode(words) {
                    Some(m) if matches!(m.command, Command::Put | Command::Inc) => {
                        map.owner_of(m.addr) == self.me && serving.contains(&map.shard_of(m.addr))
                    }
                    // Poison and non-addressed commands go through to
                    // the apply path's quarantine/handler logic.
                    _ => true,
                };
                if keep {
                    kept.extend(words);
                } else {
                    refused.extend(words);
                }
            }
        }
        if refused.is_empty() {
            return None;
        }
        let n = (refused.len() / 4) as u64;
        self.stale_routed.add(n);
        if pkt.src == self.me {
            // Loopback: hand the quads straight to our own sender.
            self.enqueue_bounced(&refused);
        } else {
            let b = BounceMsg { map: (*map).clone(), quads: refused };
            if !self.transport.send_control(pkt.src, &proto::encode_bounce(&b)) {
                // Sender's link is down (it died): the messages are
                // lost to it — surfaced, not silent.
                self.bounce_dropped.add(n);
            }
        }
        let mut repl = Packet::from_words(pkt.src, pkt.dest, &kept);
        repl.lane = pkt.lane;
        repl.seq = pkt.seq;
        Some(repl)
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
    pub forwarder: Arc<Forwarder>,
    pub stores: Arc<WardStores>,
    pub transport: Arc<SocketTransport>,
    pub detector: Arc<FailureDetector>,
    pub is_joiner: bool,
    /// Set once startup recovery has restored the heap. Until then this
    /// node neither installs nor donates shard words: an install would
    /// be overwritten by the recovered image (while the shard stayed
    /// marked as served), a donation would ship words not yet restored.
    /// Both pulls are re-requested until answered, so refusing is safe.
    pub started: Arc<AtomicBool>,
}

/// `plan` as the TOPO frame that commits it under `term`.
fn plan_topo(term: u64, plan: &RebalancePlan) -> TopoMsg {
    TopoMsg { term, change: Some(plan.change), map: plan.map.clone(), moves: plan.moves.clone() }
}

/// The lease holder's answer to `MAP_REQ`/`JOIN_REQ`: the current map
/// plus — if a change is mid-migration — its kind and still-outstanding
/// moves, so a restarted participant resumes exactly where the plan
/// stands. Stamped with the holder's term so fencing applies.
fn snapshot_topo(state: &ElasticState) -> TopoMsg {
    let map = (*state.current_map()).clone();
    let ha = lock(&state.ha);
    let term = ha.lease().0;
    let rb = ha.rebalancer();
    match rb.migrating() {
        Some(plan) => TopoMsg {
            moves: plan
                .moves
                .iter()
                .filter(|m| rb.outstanding().contains(&m.shard))
                .copied()
                .collect(),
            map,
            ..plan_topo(term, plan)
        },
        None => TopoMsg { term, change: None, map, moves: Vec::new() },
    }
}

/// Dispatch one control frame's elastic ops. Returns `false` for ops
/// this layer does not own (the caller's static protocol handles them).
pub fn handle_ctrl(ctx: &ElasticCtx, src: u32, words: &[u64]) -> bool {
    let state = &ctx.state;
    let now = Instant::now();
    match words.first().copied() {
        Some(OP_TOPO) => {
            if let Some(t) = proto::decode_topo(words) {
                state.on_topo(&t, src);
            }
        }
        Some(OP_MIGRATE) if ctx.started.load(Ordering::SeqCst) => {
            if let Some(m) = proto::decode_migrate(words) {
                state.on_migrate(&m, &ctx.forwarder);
            }
        }
        Some(OP_MIGRATE_REQ) if ctx.started.load(Ordering::SeqCst) => {
            if let Some((v, shard)) = proto::decode_migrate_req(words) {
                state.serve_migrate_req(v, shard, src);
            }
        }
        // Before startup recovery is done: see `ElasticCtx::started`.
        Some(OP_MIGRATE | OP_MIGRATE_REQ) => {}
        Some(OP_WARD_MIGRATE_REQ) => {
            if let Some((v, shard, ward)) = proto::decode_ward_migrate_req(words) {
                let ward_dead = ctx.detector.status(ward, now) == PeerStatus::Dead;
                state.serve_ward_migrate_req(v, shard, ward, src, &ctx.stores, ward_dead);
            }
        }
        Some(OP_MIGRATE_ACK) => {
            // Always fed: a takeover holder's seeded rebalancer needs
            // these, and a non-holder's idle rebalancer ignores them.
            if let Some((_, shard)) = proto::decode_migrate_ack(words) {
                perform(ctx, state.step(now, Event::MigrateAck(shard)), false);
            }
        }
        Some(OP_JOIN_REQ) => {
            if state.is_lease_holder() {
                if let Some(n) = proto::decode_join_req(words) {
                    if (n as usize) < state.capacity {
                        state.step(now, Event::Propose(TopologyChange::Join(n)));
                    }
                    // Answer with the current topology either way: an
                    // already-admitted joiner learns it is a member.
                    ctx.transport.send_control(src, &proto::encode_topo(&snapshot_topo(state)));
                }
            }
        }
        Some(OP_LEAVE_REQ) => {
            if let Some(n) = proto::decode_leave_req(words) {
                state.step(now, Event::Propose(TopologyChange::Leave(n)));
            }
        }
        Some(OP_BOUNCE) => {
            if let Some(b) = proto::decode_bounce(words) {
                state.on_bounce(&b);
            }
        }
        Some(OP_MAP_REQ) => {
            // Only the current holder answers: a deposed coordinator
            // replying with its stale map would be fenced anyway, but
            // staying silent keeps the requester knocking at the right
            // door once a lease beat reaches it.
            if state.is_lease_holder() {
                ctx.transport.send_control(src, &proto::encode_topo(&snapshot_topo(state)));
            }
        }
        Some(OP_LEASE) => {
            if let Some((term, holder, map_version)) = proto::decode_lease(words) {
                let beat = Event::Lease { term, holder, map_version, mine: state.version() };
                perform(ctx, state.step(now, beat), false);
            }
        }
        Some(OP_DEATH_VOTE_REQ) => {
            if let Some((term, suspect)) = proto::decode_death_vote_req(words) {
                let latched = ctx.detector.status(suspect, now) == PeerStatus::Dead;
                let ask = Event::VoteRequest { from: src, term, suspect, latched };
                perform(ctx, state.step(now, ask), false);
            }
        }
        Some(OP_DEATH_VOTE) => {
            if let Some((_, suspect, dead)) = proto::decode_death_vote(words) {
                state.step(now, Event::Vote { from: src, suspect, dead });
            }
        }
        _ => return false,
    }
    true
}

fn broadcast(ctx: &ElasticCtx, words: &[u64]) {
    for peer in 0..ctx.state.capacity as u32 {
        if peer != ctx.state.me {
            // Absent slots (a not-yet-started joiner) drop the frame;
            // they resync via MAP_REQ at startup.
            ctx.transport.send_control(peer, words);
        }
    }
}

/// Perform what the HA machine decided, in order.
fn perform(ctx: &ElasticCtx, actions: Vec<Action>, kill_on_commit: bool) {
    let (state, me) = (&ctx.state, ctx.state.me);
    let send = |to: u32, words: Vec<u64>| {
        ctx.transport.send_control(to, &words);
    };
    let log = |what: String| eprintln!("[gravel-node {me}] {what}");
    for action in actions {
        match action {
            Action::Beat { term, holder } => {
                if holder != me {
                    log(format!("ha: handing lease to node {holder} (term {term}) before leaving"));
                }
                broadcast(ctx, &proto::encode_lease(term, holder, state.version()));
            }
            Action::AskVote { to, term, suspect } => {
                send(to, proto::encode_death_vote_req(term, suspect))
            }
            Action::Vote { to, term, suspect, dead } => {
                send(to, proto::encode_death_vote(term, suspect, dead))
            }
            Action::RequestMap { to } => send(to, proto::encode_map_req()),
            Action::Revive { peer } => {
                log(format!(
                    "ha: node {peer} beats resumed — clearing latched death (partition healed?)"
                ));
                ctx.detector.reset_peer(peer, Instant::now());
            }
            Action::TookOver { term, from } => {
                state.takeovers.inc();
                log(format!(
                    "ha: TAKEOVER — holder {from} confirmed dead by quorum, asserting term {term}"
                ));
            }
            Action::Vetoed { suspect } => {
                state.evictions_vetoed.inc();
                log(format!(
                    "ha: eviction of node {suspect} VETOED (majority still hears it — one-way \
                     or local fault)"
                ));
            }
            Action::Evicting { peer } => log(format!(
                "reshard: proposing EVICT of node {peer} (dead past grace, quorum-confirmed)"
            )),
            Action::Commit { term, plan } => {
                // The boundary ritual: cut first, so the change lands
                // between epochs, then flip the map.
                ctx.forwarder.rebaseline();
                let t = plan_topo(term, &plan);
                broadcast(ctx, &proto::encode_topo(&t));
                let (change, v, moves) = (plan.change, t.map.version, t.moves.len());
                if kill_on_commit && moves > 0 {
                    log(format!(
                        "chaos: SIGKILL right after committing {change:?} v{v} ({moves} moves \
                         outstanding)"
                    ));
                    crate::signal::kill_self_hard();
                }
                state.on_topo(&t, me);
                log(format!("reshard: committed {change:?} v{v} ({moves} moves)"));
            }
            Action::Redrive { term, plan } => {
                // Destinations already serving re-ack to us (our own
                // through the loopback); the rest re-pull from donors.
                let t = plan_topo(term, &plan);
                broadcast(ctx, &proto::encode_topo(&t));
                state.on_topo(&t, me);
                let v = t.map.version;
                log(format!("ha: re-driving interrupted migration v{v} under term {term}"));
            }
            Action::Migrated => {
                log(format!("reshard: topology change complete (v{})", state.version()))
            }
        }
    }
}

/// The control loop **every** elastic node runs. Every 25 ms it
/// steps the HA machine with the detector's latched peers, the
/// installed map and the leave signal, and performs what it returns;
/// every 100 ms it re-requests pending shard pulls; every 250 ms it
/// knocks at the holder — MAP_REQ until a topology arrives, JOIN_REQ
/// until a joiner is admitted, LEAVE_REQ once leaving (a holder hands
/// the lease off first, so this fires at its successor).
pub fn run_ha(ctx: &ElasticCtx, kill_on_commit: bool, stop: &AtomicBool, deadline: Instant) {
    let (state, detector) = (&ctx.state, &ctx.detector);
    let mut last_req = Instant::now() - Duration::from_secs(1);
    let mut last_knock = last_req;
    while !stop.load(Ordering::Relaxed) && !ctx.transport.is_closed() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
        let now = Instant::now();
        let map = state.current_map();
        let silence = |p| (p, detector.silence(p, now).unwrap_or(Duration::MAX));
        let dead: Vec<(u32, Duration)> = detector.dead_peers().into_iter().map(silence).collect();
        let leave = crate::signal::leave_requested();
        let tick = Event::Tick { map: &map, dead: &dead, leave };
        perform(ctx, state.step(now, tick), kill_on_commit);
        if now.duration_since(last_req) >= Duration::from_millis(100) {
            last_req = now;
            state.request_pending();
        }
        if now.duration_since(last_knock) >= Duration::from_millis(250) {
            last_knock = now;
            let (holder, member) = (state.lease().1, state.is_member());
            let knock = |words: Vec<u64>| ctx.transport.send_control(holder, &words);
            if holder != state.me && !state.topo_seen() {
                knock(proto::encode_map_req());
            }
            // Never again once leaving, or the knock would re-admit the
            // node right after its LEAVE commits.
            if ctx.is_joiner && state.topo_seen() && !member && !leave {
                knock(proto::encode_join_req(state.me));
            }
            if leave && member && holder != state.me {
                knock(proto::encode_leave_req(state.me));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_words_counts_the_stride() {
        // table 10, 4 shards: shard 0 owns {0,4,8}, 1 owns {1,5,9},
        // 2 owns {2,6}, 3 owns {3,7}.
        assert_eq!(shard_words(10, 4, 0), 3);
        assert_eq!(shard_words(10, 4, 1), 3);
        assert_eq!(shard_words(10, 4, 2), 2);
        assert_eq!(shard_words(10, 4, 3), 2);
        // Degenerate: more shards than words.
        assert_eq!(shard_words(3, 8, 5), 0);
        let total: usize = (0..64).map(|s| shard_words(513, 64, s)).sum();
        assert_eq!(total, 513);
    }

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

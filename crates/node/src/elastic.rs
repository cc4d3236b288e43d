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
//! The coordinator role itself is fault tolerant (DESIGN.md §18): a
//! lease with a monotonically increasing **term** names the acting
//! coordinator, every TOPO/MAP frame is term-stamped and fenced at the
//! receiver, the lowest live member takes over when the holder's
//! phi-accrual lease expires *and a majority of the last-committed
//! membership corroborates the death*, and an interrupted shard
//! migration is reconstructed on the successor from the cached last
//! TOPO broadcast. The same quorum gates every EVICT, so a minority
//! partition freezes (stale traffic NACK-bounces, nothing forks) until
//! connectivity heals. The boot holder is the lowest initial member;
//! it can drain-leave like anyone else by handing the lease off first.
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
use gravel_core::ha::lease::{successor, LeaseState, VoteLedger};
use gravel_core::ha::{RebalancePlan, Rebalancer, TopologyChange};
use gravel_core::netthread::ApplyGate;
use gravel_core::{FailureDetector, NodeShared, PeerStatus};
use gravel_gq::{Command, Message};
use gravel_net::{SocketTransport, Transport};
use gravel_pgas::{Directory, FencedInstall, Packet, ShardMap};
use gravel_telemetry::{Counter, Gauge, Histogram};

use crate::forward::Forwarder;
use crate::sender::Bounces;
use crate::proto::{
    self, BounceMsg, LeaseMsg, MigrateMsg, TopoKind, TopoMsg, OP_BOUNCE, OP_DEATH_VOTE,
    OP_DEATH_VOTE_REQ, OP_JOIN_REQ, OP_LEASE, OP_LEAVE_REQ, OP_MAP_REQ, OP_MIGRATE,
    OP_MIGRATE_ACK, OP_MIGRATE_REQ, OP_TOPO, OP_WARD_MIGRATE_REQ,
};
use crate::store::WardStores;

/// How often the lease holder broadcasts its beat.
const LEASE_BEAT_EVERY: Duration = Duration::from_millis(100);
/// How often latched deaths are (re-)submitted to the vote quorum.
const VOTE_ROUND_EVERY: Duration = Duration::from_millis(150);
/// A node that just became (or booted believing itself) the holder
/// waits this long before committing topology changes, so a live
/// higher-term holder's beats can demote it first. Lease beats and
/// MAP_REQ answers are not delayed — stale ones are fenced by term.
const HOLDER_STABILIZE: Duration = Duration::from_millis(300);
/// Consecutive HA ticks a latched-dead peer's beats must have resumed
/// before the revive sweep clears the latch (partition heal: the TCP
/// stream never dropped, so no reconnect event will do it for us).
const REVIVE_STREAK: u32 = 2;
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
/// thread), the control loop, the migration pump, and the sender.
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
    /// Coordinator lease: highest accepted (term, holder).
    lease: LeaseState,
    /// Death-corroboration ballots observed by this node.
    pub votes: VoteLedger,
    /// Last accepted lease beat (the lease renewal clock).
    lease_beat: Mutex<Instant>,
    /// Last TOPO frame accepted with moves attached — the takeover
    /// coordinator's seed for an interrupted migration.
    last_topo: Mutex<Option<TopoMsg>>,
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
    ) -> Arc<Self> {
        let me = node.id;
        let name = |s: &str| format!("node{me}.reshard.{s}");
        let registry = node.registry.clone();
        let version = initial.version;
        // Every node boots agreeing: the lowest initial member holds
        // term 1. No handshake needed before fencing works.
        let boot_holder =
            initial.members.iter().copied().min().expect("initial map has members");
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
            topo_seen: AtomicBool::new(me == boot_holder),
            kill_on_migrate: Mutex::new(kill_on_migrate),
            lease: LeaseState::new(me, boot_holder),
            votes: VoteLedger::new(),
            lease_beat: Mutex::new(Instant::now()),
            last_topo: Mutex::new(None),
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
        st.ha_term.set(st.lease.term() as i64);
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

    /// The highest coordinator term this node has accepted.
    pub fn ha_term(&self) -> u64 {
        self.lease.term()
    }

    /// Who this node believes holds the coordinator lease.
    pub fn ha_holder(&self) -> u32 {
        self.lease.holder()
    }

    /// Whether this node currently holds the lease.
    pub fn is_lease_holder(&self) -> bool {
        self.lease.is_holder()
    }

    pub fn takeovers_count(&self) -> u64 {
        self.takeovers.get()
    }

    pub fn evictions_vetoed_count(&self) -> u64 {
        self.evictions_vetoed.get()
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
        // The frame is current, so its issuer's lease claim is too.
        self.lease.observe(t.term, from);
        self.ha_term.set(self.lease.term() as i64);
        if !t.moves.is_empty() {
            *lock(&self.last_topo) = Some(t.clone());
        }
        let map = self.current_map();
        let evict = t.kind == TopoKind::Evict;
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

    /// Handle a lease beat from `from`. A fenced (stale-term) beat is
    /// ignored; an accepted one renews the lease clock — and if the
    /// holder's map is ahead of ours, returns `true` so the pump knocks
    /// with `MAP_REQ` (the same resync path a restarted node uses).
    pub fn on_lease(&self, l: &LeaseMsg, from: u32) -> bool {
        // A beat claims the lease for `l.holder`; `from` relays it
        // (they are the same node in practice — holders beat for
        // themselves — but trust the frame body, it is what's fenced).
        let _ = from;
        if !self.lease.observe(l.term, l.holder) {
            return false;
        }
        self.ha_term.set(self.lease.term() as i64);
        *lock(&self.lease_beat) = Instant::now();
        l.map_version > self.version()
    }

    /// (Re-)request every pending inbound shard. Idempotent by design:
    /// the pump calls this until the words arrive. A non-evict pull
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
                .send_control(self.lease.holder(), &proto::encode_migrate_ack(map.version, m.shard));
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
            .send_control(self.lease.holder(), &proto::encode_migrate_ack(map.version, m.shard));
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
        if lock(&self.moves_out).get(&shard) != Some(&to) {
            return;
        }
        let map = self.current_map();
        let stride = map.nshards() as u64;
        let words: Vec<u64> = (0..shard_words(self.table, map.nshards(), shard))
            .map(|k| self.node.heap.load(shard as u64 + k as u64 * stride))
            .collect();
        let n = words.len();
        if self
            .transport
            .send_control(to, &proto::encode_migrate(&MigrateMsg { version, shard, words }))
        {
            self.moves_out_ctr.inc();
            self.bytes_migrated.add(n as u64 * 8);
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
        let Some(heap) = stores.reconstruct_heap(ward) else {
            return;
        };
        if heap.len() != self.table {
            return;
        }
        let stride = map.nshards();
        let words: Vec<u64> = (0..shard_words(self.table, stride, shard))
            .map(|k| heap[shard as usize + k * stride])
            .collect();
        let n = words.len();
        if self
            .transport
            .send_control(to, &proto::encode_migrate(&MigrateMsg { version, shard, words }))
        {
            self.moves_out_ctr.inc();
            self.bytes_migrated.add(n as u64 * 8);
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
// Control-plane dispatch, pumps, coordinator
// ---------------------------------------------------------------------

/// Shared wiring the elastic control paths need.
pub struct ElasticCtx {
    pub state: Arc<ElasticState>,
    pub forwarder: Arc<Forwarder>,
    pub stores: Arc<WardStores>,
    pub transport: Arc<SocketTransport>,
    /// Every node carries a rebalancer now: any node may become the
    /// lease holder, and a takeover seeds this from the cached TOPO.
    pub rebalancer: Arc<Mutex<Rebalancer>>,
    pub detector: Arc<FailureDetector>,
    pub is_joiner: bool,
    /// Set once startup recovery has restored the heap. Until then this
    /// node neither installs nor donates shard words: an install would
    /// be overwritten by the recovered image (while the shard stayed
    /// marked as served), a donation would ship words not yet restored.
    /// Both pulls are re-requested until answered, so refusing is safe.
    pub started: Arc<AtomicBool>,
}

fn change_kind(c: &TopologyChange) -> TopoKind {
    match c {
        TopologyChange::Join(_) => TopoKind::Join,
        TopologyChange::Leave(_) => TopoKind::Leave,
        TopologyChange::Evict(_) => TopoKind::Evict,
    }
}

/// The lease holder's answer to `MAP_REQ`/`JOIN_REQ`: the current map
/// plus — if a change is mid-migration — its kind and still-outstanding
/// moves, so a restarted participant resumes exactly where the plan
/// stands. Stamped with the holder's term so fencing applies.
fn snapshot_topo(ctx: &ElasticCtx) -> TopoMsg {
    let map = (*ctx.state.current_map()).clone();
    let term = ctx.state.ha_term();
    {
        let rb = lock(&ctx.rebalancer);
        if let Some(plan) = rb.migrating() {
            let outstanding: HashSet<u32> = rb.outstanding().iter().copied().collect();
            return TopoMsg {
                term,
                kind: change_kind(&plan.change),
                node: plan.change.node(),
                map,
                moves: plan
                    .moves
                    .iter()
                    .filter(|m| outstanding.contains(&m.shard))
                    .copied()
                    .collect(),
            };
        }
    }
    TopoMsg { term, kind: TopoKind::Snapshot, node: 0, map, moves: Vec::new() }
}

/// Dispatch one control frame's elastic ops. Returns `false` for ops
/// this layer does not own (the caller's static protocol handles them).
pub fn handle_ctrl(ctx: &ElasticCtx, src: u32, words: &[u64]) -> bool {
    let state = &ctx.state;
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
                let ward_dead =
                    ctx.detector.status(ward, Instant::now()) == PeerStatus::Dead;
                state.serve_ward_migrate_req(v, shard, ward, src, &ctx.stores, ward_dead);
            }
        }
        Some(OP_MIGRATE_ACK) => {
            // Always fed: a takeover holder's seeded rebalancer needs
            // these, and a non-holder's idle rebalancer ignores them.
            if let Some((_, shard)) = proto::decode_migrate_ack(words) {
                if lock(&ctx.rebalancer).note_shard_ready(shard) {
                    eprintln!(
                        "[gravel-node {}] reshard: topology change complete (v{})",
                        state.me,
                        state.version()
                    );
                }
            }
        }
        Some(OP_JOIN_REQ) => {
            if state.is_lease_holder() {
                if let Some(n) = proto::decode_join_req(words) {
                    if (n as usize) < state.capacity {
                        lock(&ctx.rebalancer).propose(TopologyChange::Join(n));
                    }
                    // Answer with the current topology either way: an
                    // already-admitted joiner learns it is a member.
                    ctx.transport.send_control(src, &proto::encode_topo(&snapshot_topo(ctx)));
                }
            }
        }
        Some(OP_LEAVE_REQ) => {
            if state.is_lease_holder() {
                if let Some(n) = proto::decode_leave_req(words) {
                    // The holder cannot coordinate its own removal; it
                    // hands the lease off first (run_ha) and the new
                    // holder processes the re-sent request.
                    if n != state.me {
                        lock(&ctx.rebalancer).propose(TopologyChange::Leave(n));
                    }
                }
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
                ctx.transport.send_control(src, &proto::encode_topo(&snapshot_topo(ctx)));
            }
        }
        Some(OP_LEASE) => {
            if let Some(l) = proto::decode_lease(words) {
                if state.on_lease(&l, src) {
                    // The holder's map is ahead of ours: resync.
                    ctx.transport.send_control(state.ha_holder(), &proto::encode_map_req());
                }
            }
        }
        Some(OP_DEATH_VOTE_REQ) => {
            if let Some((term, suspect)) = proto::decode_death_vote_req(words) {
                // Corroborate only what our own detector has latched.
                // Votes are advisory (the requester applies quorum), so
                // no term fencing beyond echoing what we were asked.
                let dead = suspect != state.me
                    && ctx.detector.status(suspect, Instant::now()) == PeerStatus::Dead;
                ctx.transport
                    .send_control(src, &proto::encode_death_vote(term, suspect, dead));
            }
        }
        Some(OP_DEATH_VOTE) => {
            if let Some((_, suspect, dead)) = proto::decode_death_vote(words) {
                state.votes.record(suspect, src, dead);
            }
        }
        _ => return false,
    }
    true
}

/// The membership pump every elastic node runs: keep re-requesting
/// pending migrations, keep a joiner knocking until admitted, turn a
/// SIGUSR1 into a LEAVE proposal, and resync the map after a restart.
pub fn run_elastic_pump(ctx: &ElasticCtx, stop: &AtomicBool, deadline: Instant) {
    let state = &ctx.state;
    let mut last_req = Instant::now() - Duration::from_secs(1);
    let mut last_knock = last_req;
    while !stop.load(Ordering::Relaxed)
        && !ctx.transport.is_closed()
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(25));
        if last_req.elapsed() >= Duration::from_millis(100) {
            last_req = Instant::now();
            state.request_pending();
        }
        if last_knock.elapsed() >= Duration::from_millis(250) {
            last_knock = Instant::now();
            let holder = state.ha_holder();
            if !state.is_lease_holder() && !state.topo_seen() {
                ctx.transport.send_control(holder, &proto::encode_map_req());
            }
            // A joiner knocks until admitted — but never again once a
            // leave was requested, or its own knock would re-admit it
            // right after the LEAVE commits (a join/leave oscillation).
            if ctx.is_joiner
                && state.topo_seen()
                && !state.is_member()
                && !crate::signal::leave_requested()
            {
                ctx.transport.send_control(holder, &proto::encode_join_req(state.me));
            }
            // A leaving holder first hands the lease off (run_ha), then
            // this clause fires at the successor.
            if crate::signal::leave_requested() && state.is_member() && !state.is_lease_holder() {
                ctx.transport.send_control(holder, &proto::encode_leave_req(state.me));
            }
        }
    }
}

/// Invert a moves-carrying TOPO's kind back into the change it
/// committed (a takeover re-seeds the rebalancer from this).
fn kind_change(kind: TopoKind, node: u32) -> Option<TopologyChange> {
    match kind {
        TopoKind::Join => Some(TopologyChange::Join(node)),
        TopoKind::Leave => Some(TopologyChange::Leave(node)),
        TopoKind::Evict => Some(TopologyChange::Evict(node)),
        TopoKind::Snapshot => None,
    }
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

fn lease_beat_words(state: &ElasticState) -> Vec<u64> {
    proto::encode_lease(&LeaseMsg {
        term: state.ha_term(),
        holder: state.me,
        map_version: state.version(),
    })
}

/// The HA driver **every** elastic node runs: lease beats and the
/// epoch-boundary commit loop while holding the lease, the takeover
/// watchdog while not, and quorum death-voting plus the revive sweep
/// on both sides. Replaces the old fixed-coordinator `run_coordinator`.
pub fn run_ha(
    ctx: &ElasticCtx,
    evict_grace: Duration,
    kill_on_commit: bool,
    stop: &AtomicBool,
    deadline: Instant,
) {
    let state = &ctx.state;
    let detector = &ctx.detector;
    let mut dead_since: HashMap<u32, Instant> = HashMap::new();
    let mut revive_streak: HashMap<u32, u32> = HashMap::new();
    let mut holder_since: Option<Instant> =
        state.is_lease_holder().then(Instant::now);
    let mut last_beat = Instant::now() - LEASE_BEAT_EVERY;
    let mut last_vote_round = Instant::now() - VOTE_ROUND_EVERY;
    let mut handed_off = false;
    // "Beats resumed" = silence shorter than a few detector intervals.
    let revive_thresh = detector.config().interval * 3;
    while !stop.load(Ordering::Relaxed)
        && !ctx.transport.is_closed()
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(25));
        let now = Instant::now();
        let map = state.current_map();
        let members = map.members.clone();
        let i_am_member = map.is_member(state.me);

        // -- Holder-transition tracking. Commits, evictions and
        // handoff wait out HOLDER_STABILIZE after we become holder, so
        // a live higher-term holder's beats can demote a stale
        // restarted claimant before it acts. Beats and MAP_REQ answers
        // are not delayed — they are fenced anyway.
        if state.is_lease_holder() {
            if holder_since.is_none() {
                holder_since = Some(now);
            }
        } else {
            holder_since = None;
            handed_off = false;
        }
        let stable =
            holder_since.is_some_and(|t| now.duration_since(t) >= HOLDER_STABILIZE);

        // -- Revive sweep. A socket partition swallows frames but the
        // TCP stream stays ESTABLISHED, so no reconnect ever resets the
        // latched-dead verdict; when beats resume (small silence) for
        // REVIVE_STREAK consecutive ticks, un-latch. Safe: eviction is
        // quorum-gated, so a premature un-latch only delays it.
        let mut dead: HashSet<u32> = detector.dead_peers().into_iter().collect();
        let mut revived: Vec<u32> = Vec::new();
        for &peer in &dead {
            let recent =
                detector.silence(peer, now).is_some_and(|s| s < revive_thresh);
            let streak = revive_streak.entry(peer).or_insert(0);
            *streak = if recent { *streak + 1 } else { 0 };
            if *streak >= REVIVE_STREAK {
                revived.push(peer);
            }
        }
        for peer in revived {
            eprintln!(
                "[gravel-node {}] ha: node {peer} beats resumed — clearing \
                 latched death (partition healed?)",
                state.me
            );
            detector.reset_peer(peer, now);
            state.votes.clear(peer);
            dead_since.remove(&peer);
            revive_streak.remove(&peer);
            dead.remove(&peer);
        }
        revive_streak.retain(|p, _| dead.contains(p));
        dead_since.retain(|p, _| dead.contains(p));

        // -- Death-vote rounds: tally our own verdict and poll the
        // membership. Replies land in `state.votes` via `handle_ctrl`.
        if i_am_member && last_vote_round.elapsed() >= VOTE_ROUND_EVERY {
            last_vote_round = now;
            for &peer in &dead {
                if !map.is_member(peer) {
                    continue;
                }
                state.votes.record(peer, state.me, true);
                let req = proto::encode_death_vote_req(state.ha_term(), peer);
                for &m in &members {
                    if m != state.me && m != peer && !dead.contains(&m) {
                        ctx.transport.send_control(m, &req);
                    }
                }
                // A denied round (so many live "not dead" replies that
                // a quorum can never form) is a vetoed eviction: our
                // link to the suspect is down, not the suspect.
                if state.votes.denied(peer, &members) && state.votes.note_veto(peer) {
                    state.evictions_vetoed.inc();
                    eprintln!(
                        "[gravel-node {}] ha: eviction of node {peer} VETOED \
                         (majority still hears it — one-way or local fault)",
                        state.me
                    );
                }
            }
        }

        // -- Takeover watchdog (non-holders). We step up only if the
        // quorum-confirmed dead set makes *us* the lowest live member:
        // an unconfirmed lower-ranked candidate keeps us waiting
        // rather than racing it for the lease.
        if !state.is_lease_holder() && i_am_member {
            let holder = state.ha_holder();
            let confirmed_dead: Vec<u32> = dead
                .iter()
                .copied()
                .filter(|&p| state.votes.confirmed(p, &members))
                .collect();
            if confirmed_dead.contains(&holder)
                && successor(&members, &confirmed_dead) == Some(state.me)
            {
                let term = state.lease.assert_takeover();
                state.takeovers.inc();
                state.ha_term.set(term as i64);
                holder_since = Some(now);
                eprintln!(
                    "[gravel-node {}] ha: TAKEOVER — holder {holder} confirmed \
                     dead by quorum, asserting term {term}",
                    state.me
                );
                broadcast(ctx, &lease_beat_words(state));
                // Reconstruct the in-flight migration (if any) from the
                // cached last TOPO: re-broadcast it under the new term
                // and seed the rebalancer. Destinations already serving
                // re-ack to us; the rest re-pull from their donors.
                let cached = lock(&state.last_topo).clone();
                if let Some(t) = cached {
                    if t.map.version == map.version && !t.moves.is_empty() {
                        if let Some(change) = kind_change(t.kind, t.node) {
                            let already: Vec<u32> = {
                                let serving = lock(&state.serving);
                                t.moves
                                    .iter()
                                    .filter(|m| {
                                        m.to == state.me && serving.contains(&m.shard)
                                    })
                                    .map(|m| m.shard)
                                    .collect()
                            };
                            let plan = RebalancePlan {
                                change,
                                map: t.map.clone(),
                                moves: t.moves.clone(),
                            };
                            lock(&ctx.rebalancer).seed_in_flight(plan, &already);
                            let t2 = TopoMsg { term, ..t };
                            broadcast(ctx, &proto::encode_topo(&t2));
                            eprintln!(
                                "[gravel-node {}] ha: re-driving interrupted \
                                 migration v{} under term {term}",
                                state.me, t2.map.version
                            );
                        }
                    }
                }
            }
        }

        if !state.is_lease_holder() {
            continue;
        }

        // -- Holder duty: lease beats, never stabilization-gated.
        if last_beat.elapsed() >= LEASE_BEAT_EVERY {
            last_beat = now;
            broadcast(ctx, &lease_beat_words(state));
        }
        if !stable {
            continue;
        }

        // -- Holder duty: quorum-gated evict scan. A member
        // continuously dead past the grace window is expelled once a
        // majority of the membership corroborates the death. Minority
        // side of a partition can never clear this bar: it freezes.
        for &peer in &dead {
            if peer == state.me || !map.is_member(peer) {
                continue;
            }
            let since = *dead_since.entry(peer).or_insert(now);
            if now.duration_since(since) < evict_grace
                || !state.votes.confirmed(peer, &members)
            {
                continue;
            }
            let mut rbl = lock(&ctx.rebalancer);
            // Never evict a node participating in the in-flight plan:
            // the plan must complete (or the node recover) first.
            let entangled = rbl
                .migrating()
                .is_some_and(|p| p.moves.iter().any(|m| m.from == peer || m.to == peer));
            if !entangled && rbl.propose(TopologyChange::Evict(peer)) {
                eprintln!(
                    "[gravel-node {}] reshard: proposing EVICT of node {peer} \
                     (dead past grace, quorum-confirmed)",
                    state.me
                );
            }
        }

        // -- Holder duty: lease handoff for our own drain-leave. The
        // holder cannot coordinate its own removal, so once quiescent
        // it hands the lease to the successor and re-sends LEAVE_REQ
        // there (the pump's leave clause fires once we are demoted).
        if crate::signal::leave_requested() && !handed_off && members.len() > 1 {
            let quiescent = {
                let rbl = lock(&ctx.rebalancer);
                rbl.migrating().is_none() && rbl.is_quiescent()
            };
            if quiescent {
                if let Some(succ) = successor(&members, &[state.me]) {
                    let term = state.lease.handoff(succ);
                    state.ha_term.set(term as i64);
                    handed_off = true;
                    eprintln!(
                        "[gravel-node {}] ha: handing lease to node {succ} \
                         (term {term}) before leaving",
                        state.me
                    );
                    broadcast(
                        ctx,
                        &proto::encode_lease(&LeaseMsg {
                            term,
                            holder: succ,
                            map_version: state.version(),
                        }),
                    );
                    continue;
                }
            }
        }

        // -- Holder duty: epoch-boundary commit, at most one change in
        // flight.
        let plan = {
            let mut rbl = lock(&ctx.rebalancer);
            if rbl.migrating().is_some() || rbl.is_quiescent() {
                None
            } else {
                // The boundary ritual: cut first, so the change lands
                // between epochs, then flip the map.
                ctx.forwarder.rebaseline();
                rbl.boundary_tick(&state.current_map())
            }
        };
        if let Some(plan) = plan {
            let t = TopoMsg {
                term: state.ha_term(),
                kind: change_kind(&plan.change),
                node: plan.change.node(),
                map: plan.map.clone(),
                moves: plan.moves.clone(),
            };
            broadcast(ctx, &proto::encode_topo(&t));
            if kill_on_commit && !t.moves.is_empty() {
                eprintln!(
                    "[gravel-node {}] chaos: SIGKILL right after committing \
                     {:?} v{} ({} moves outstanding)",
                    state.me,
                    plan.change,
                    t.map.version,
                    t.moves.len()
                );
                crate::signal::kill_self_hard();
            }
            state.on_topo(&t, state.me);
            if let TopologyChange::Evict(n) = plan.change {
                state.votes.clear(n);
                dead_since.remove(&n);
            }
            eprintln!(
                "[gravel-node {}] reshard: committed {:?} v{} ({} moves)",
                state.me,
                plan.change,
                plan.map.version,
                plan.moves.len()
            );
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

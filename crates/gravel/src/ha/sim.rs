//! N copies of the [`HaMachine`] in seeded virtual time: the one
//! harness behind the seeded HA suite (this module's tests) and
//! `fault_sweep`'s failover and reshard cells (DESIGN.md §18).
//!
//! Each node has a real [`FailureDetector`] fed explicit instants (15 ms
//! beats, seeded jitter), ticks its machine every 25 ms at a seeded
//! phase, installs maps through a fenced [`Directory`] and keeps the
//! shards its data plane serves and has marked ready — sets: a
//! migration here is every frame `gravel-node` sends for it (pull, ward
//! pull, the words, ack) and every install step. A ward keeper is the
//! next slot, as in `gravel-node`. Control frames are lost with the
//! scenario's probability and otherwise land 5 or 10 ms later.
//!
//! A [`Fault::Churn`] scenario adds the data plane, built from the
//! production pieces: each node owns a [`NodeShared`] heap and a
//! [`RecvState`], applies every packet through `RecvState::accept`
//! gated and tapped by the [`Ward`] side of the buddy protocol that
//! `gravel-node` runs (its refusal, forward, bounce and cut, in the
//! order it returns them), keeps its ward's log in a [`Keeper`], and
//! streams through a [`Packetizer`] under a model of the flow engine's
//! contract (sequence numbers, cumulative acks, a 50 ms re-send of
//! everything unacked). Data frames — packets, acks, forwards, cuts,
//! refusals, bounces, shard words, recovery — travel per-link FIFO, as a
//! socket does: a frame crossing a cut is swallowed and its sender told
//! it was sent; a kill drops every frame on its way to the victim, and a
//! send to a dead slot fails until it restarts from its keeper's log.
//!
//! After every step: no term goes down, one map per version, a takeover
//! only on a quorum of members that had latched the holder, no takeover
//! or EVICT from a partition side below quorum, an EVICT committed only
//! against a peer its committer's detector has latched, no shard served
//! before it was marked ready, and no shard served by two live nodes at
//! one map version. At every bounce: the bouncing node's live keeper
//! already holds the packet's forward (DESIGN.md §16's send order).

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gravel_net::{splitmix, LinkFault};
use gravel_pgas::{AmRegistry, Directory, FencedInstall, Packet, ShardMap};

use super::buddy::{Emit, Keeper, Ward, CKPT_EVERY};
use super::checkpoint::{Baseline, LoggedPacket, RecoveryLog};
use super::heartbeat::{FailureDetector, HeartbeatConfig, PeerStatus};
use super::lease::{quorum, INITIAL_TERM};
use super::machine::{Action, Event, HaMachine, Topo, WARD_FALLBACK};
use super::rebalance::TopologyChange;
use crate::config::GravelConfig;
use crate::netthread::{ApplyGate, PacketTap, RecvState};
use crate::node::NodeShared;
use crate::reshard::{Packetizer, Requeued};

/// A killed holder is succeeded within this much virtual time: the
/// detector's latch (~300 ms of silence) plus 150 ms vote rounds that
/// lost frames can repeat.
pub const TAKEOVER_BOUND: Duration = Duration::from_millis(1500);
/// Virtual time after the heal (or the eviction) before the end.
const SETTLE_MS: u64 = 2000;
/// How much longer a run may take to finish its migrations and install
/// their maps: evictions queued during a cut commit one by one after
/// the heal.
const MIGRATE_MS: u64 = 5000;
/// A JOIN family's kill comes with the JOIN's commit, this late at most.
const JOIN_BY: Duration = Duration::from_millis(2000);
/// A churn run whose changes have not all committed by then ends.
const CHURN_BY: u64 = 60_000;
const STEP_MS: u64 = 5;
const BEAT_MS: u64 = 15;
const TICK_MS: u64 = 25;
/// The table: `gravel-node`'s 64 shards, of 4 words.
const SHARDS: usize = 64;
const TABLE: usize = 256;
/// The data plane: messages a packet carries (`gravel-node
/// --msgs-per-packet 8`), packets a flow keeps unacknowledged and the
/// re-send timer. Cuts come at `gravel-node`'s default cadence.
const MSGS_PER_PACKET: usize = 8;
const WINDOW: usize = 4;
const RTO_MS: u64 = 50;

/// The one fault a scenario injects.
#[derive(Clone, Debug)]
pub enum Fault {
    /// `node` dies `at` into the run and stays dead.
    Kill { node: u32, at: Duration },
    /// A partition or one-way [`LinkFault`] over its window.
    Cut(LinkFault),
    /// A spare slot, `n`, boots outside the map and JOINs; the holder
    /// dies right after broadcasting that JOIN's commit (`gravel-node
    /// --kill-on-commit`).
    JoinHolderKilled,
    /// A spare slot JOINs; the first donor other than the holder to
    /// install that JOIN dies right then, before it ships a shard.
    JoinDonorKilled,
    /// Membership churn under a live data plane.
    Churn(Churn),
}

/// The data-plane schedule, in the shape of `gravel-node`'s
/// `grow_shrink` test: the members stream weighted INCs while spare
/// slots JOIN and LEAVE, and a slot that carries no stream may be
/// killed and restarted from its keeper's log.
#[derive(Clone, Debug)]
pub struct Churn {
    /// Spare slots `n..n + spares`, outside the boot map.
    pub spares: usize,
    /// Membership changes, each requested at its instant but not before
    /// the change ahead of it has committed: a spare's JOIN knock, or a
    /// member's drain-LEAVE.
    pub changes: Vec<(Duration, TopologyChange)>,
    /// INCs each member streams, and how many it offloads a 5 ms step.
    pub updates: usize,
    pub rate: usize,
    pub kill: Option<Kill>,
}

/// Where and for how long a churn run kills a slot.
#[derive(Clone, Copy, Debug)]
pub struct Kill {
    pub node: u32,
    pub at: KillAt,
    /// How long the slot stays dead before it restarts.
    pub down: Duration,
}

/// A kill point of the victim's data plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillAt {
    /// Right after `after` of the `nth` packet (from 1) part of which
    /// the victim's gate refused.
    Packet { nth: u32, after: After },
    /// Right after step `step` — 1 Write, 2 MarkReady, 3 Cut, 4 Serve —
    /// of the victim's `nth` shard install (from 1), before the next.
    Install { nth: u32, step: u32 },
}

/// The sends one accepted packet makes, in order: what the gate refused
/// to the keeper, the forward to the keeper, the bounce to the sender,
/// the ack to the sender (a cut may come between the bounce and the ack).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum After {
    Refused,
    Forward,
    Bounce,
    Ack,
}

/// One schedule: N machines, one fault, beat jitter and frame loss.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Members of the boot map, slots `0..n`; spares come after.
    pub n: usize,
    pub fault: Fault,
    /// Beat arrival jitter, uniform in `[0, jitter_us)` µs.
    pub jitter_us: u64,
    /// Probability that a control frame is lost.
    pub loss: f64,
    pub evict_grace: Duration,
    /// Seeds the jitter, the losses and each node's tick phase.
    pub seed: u64,
}

impl Scenario {
    /// When a cut strikes and heals.
    fn window(&self) -> Option<(Duration, Duration)> {
        match &self.fault {
            Fault::Cut(LinkFault::Partition { from, until, .. })
            | Fault::Cut(LinkFault::OneWay { from, until, .. }) => Some((*from, *until)),
            _ => None,
        }
    }

    /// Process slots: the members plus the spares.
    pub fn slots(&self) -> usize {
        self.n
            + match &self.fault {
                Fault::JoinHolderKilled | Fault::JoinDonorKilled => 1,
                Fault::Churn(c) => c.spares,
                _ => 0,
            }
    }

    /// Is `node` on a partition side smaller than a quorum at `t`?
    fn in_minority(&self, node: u32, t: u64) -> bool {
        let Fault::Cut(LinkFault::Partition { island, from, until }) = &self.fault else {
            return false;
        };
        let side = if island.contains(&node) { island.len() } else { self.n - island.len() };
        (*from..*until).contains(&Duration::from_millis(t)) && side < quorum(self.n)
    }

    fn churn(&self) -> Option<&Churn> {
        match &self.fault {
            Fault::Churn(c) => Some(c),
            _ => None,
        }
    }

    /// Member `m`'s stream: a GUPS half of single INCs and a weighted
    /// half, as `gravel-node`'s `elastic_plan` deals them.
    fn stream(&self, m: u32) -> Vec<(u64, u64)> {
        let updates = self.churn().map_or(0, |c| c.updates);
        let mut st = self.seed ^ (u64::from(m) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let value = |k: usize| if k < updates / 2 { 1 } else { 1 + k as u64 % 7 };
        (0..updates).map(|k| (splitmix(&mut st) % TABLE as u64, value(k))).collect()
    }

    /// The sequential truth: the table after every member's stream.
    fn truth(&self) -> Vec<u64> {
        let mut t = vec![0u64; TABLE];
        for m in 0..self.n as u32 {
            for (g, v) in self.stream(m) {
                t[g as usize] = t[g as usize].wrapping_add(v);
            }
        }
        t
    }
}

/// What a run did and how it ended.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub takeovers: u64,
    /// From the fault to the first takeover.
    pub takeover_after: Option<Duration>,
    /// From the kill to the first migration completed after it.
    pub migrated_after: Option<Duration>,
    pub vetoes: u64,
    pub evictions: u64,
    /// Distinct `(term, holder)` views among the live nodes.
    pub forked_maps: usize,
    /// Distinct map versions among the live nodes, and the newest.
    pub versions: usize,
    pub version: u64,
    /// Latched-dead verdicts live nodes hold on live nodes.
    pub latches: usize,
    /// The highest term a live node holds.
    pub term: u64,
    /// The node the fault killed, if it struck.
    pub victim: Option<u32>,
    /// Whether every live node's map has dropped the killed node.
    pub victim_evicted: bool,
    /// Whether every live node's map holds a JOIN fault's spare.
    pub joined: bool,
    /// Shards of a live node's map that their owner does not serve,
    /// summed over the live nodes.
    pub unserved: usize,
    /// Live nodes still migrating: a plan in flight or queued, or a
    /// pull pending.
    pub busy: usize,
    /// A churn run's changes requested, and the members of the map the
    /// live nodes ended on.
    pub changes: usize,
    pub members: Vec<u32>,
    /// The killed slot came back from its keeper's log.
    pub restarted: bool,
    /// Every stream offloaded, queue empty, packet acked, frame landed.
    pub drained: bool,
    /// `(index, owner's word − truth)` of every word an owner's heap
    /// holds wrong at the end.
    pub miscounted: Vec<(usize, i64)>,
    /// The stale-routing ledger, summed over every incarnation:
    /// messages refused (once their packet was forwarded), re-queued by
    /// their sender, and lost to a dead sender.
    pub stale_routed: u64,
    pub redelivered: u64,
    pub bounce_dropped: u64,
    /// Shards installed, the words they carried, and each one's pull →
    /// serve wait.
    pub moves: u64,
    pub words_moved: u64,
    pub migrations: Vec<Duration>,
}

#[derive(Clone)]
enum Frame {
    Lease { term: u64, holder: u32, version: u64 },
    AskVote { suspect: u32 },
    Vote { suspect: u32, dead: bool },
    Topo(Topo),
    MapReq,
    JoinReq,
    LeaveReq,
    Pull { shard: u32, ward: Option<u32> },
    Words { shard: u32, words: usize },
    Ack { shard: u32, version: u64 },
}

/// A data-plane frame on a FIFO link.
enum Data {
    Packet(Packet),
    /// The receiver's cumulative point: every `seq` below `next`.
    Ack { next: u64 },
    Fwd(LoggedPacket),
    Ckpt(Baseline),
    Refused(LoggedPacket),
    Bounce { map: ShardMap, refusal: LoggedPacket },
    Words { shard: u32, words: Vec<u64> },
    RecoverReq,
    RecoverResp(RecoveryLog),
}

/// One sender flow: the next sequence number and the packets not yet
/// acknowledged, re-sent whole when the oldest has waited [`RTO_MS`].
#[derive(Default)]
struct Flow {
    next: u64,
    unacked: VecDeque<Packet>,
    since: u64,
}

/// What a plane's receive path lends its [`Ward`]: the map and served
/// shards the gate holds each packet to, the heap and ready shards a
/// cut images, and the ward's sends in order — a forward with the
/// entry it carries — for [`Sim::accept`] to make.
struct Lent {
    ward: Ward,
    me: u32,
    map: Option<Arc<ShardMap>>,
    served: u64,
    ready: u64,
    shared: Arc<NodeShared>,
    emits: Vec<(Emit, Option<LoggedPacket>)>,
}

/// The ward side as `RecvState::accept` calls it: gate and tap.
struct Hooks(Mutex<Lent>);

impl Hooks {
    fn lock(&self) -> MutexGuard<'_, Lent> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Lent {
    /// A cut's image: the heap and the ready shards.
    fn image(shared: &NodeShared, ready: u64) -> (Vec<u64>, Vec<u64>) {
        let app = (0..SHARDS as u64).filter(|&s| ready & 1 << s != 0).collect();
        (shared.heap.snapshot(), app)
    }
}

impl ApplyGate for Hooks {
    fn filter(&self, pkt: &Packet) -> Option<Packet> {
        let st = &mut *self.lock();
        let (map, served) = (st.map.clone()?, st.served);
        st.ward.gate(st.me, &map, |s| served & 1 << s != 0, pkt)
    }
}

impl PacketTap for Hooks {
    fn on_packet_applied(&self, pkt: &Packet) {
        let st = &mut *self.lock();
        let (shared, ready) = (&st.shared, st.ready);
        for emit in st.ward.applied(pkt, || Lent::image(shared, ready)) {
            let entry = (emit == Emit::Forward)
                .then(|| LoggedPacket::new(pkt.src, pkt.lane, pkt.seq, &pkt.payload));
            st.emits.push((emit, entry));
        }
    }
}

/// A node's data plane.
struct Plane {
    shared: Arc<NodeShared>,
    recv: RecvState,
    hooks: Arc<Hooks>,
    gate: Arc<dyn ApplyGate>,
    tapped: Arc<dyn PacketTap>,
    /// The stream not yet offloaded.
    stream: std::vec::IntoIter<(u64, u64)>,
    queues: Packetizer,
    flows: Vec<Flow>,
    requeued: Requeued,
    /// Quads bounced back, routed on the next pass.
    bounced: Vec<[u64; 4]>,
    /// The log kept for the ward, the previous slot.
    keeper: Keeper,
    /// Recovered from the keeper: the machine ticks and data applies.
    started: bool,
    /// Packets and acks that came before the node served, in order.
    held: VecDeque<(u32, Data)>,
}

impl Plane {
    fn new(me: u32, slots: usize, stream: Vec<(u64, u64)>) -> Plane {
        let shared = Arc::new(NodeShared::new(
            me,
            &GravelConfig::small(slots, TABLE),
            Arc::new(AmRegistry::new()),
        ));
        let hooks = Arc::new(Hooks(Mutex::new(Lent {
            ward: Ward::new(CKPT_EVERY),
            me,
            map: None,
            served: 0,
            ready: 0,
            shared: shared.clone(),
            emits: Vec::new(),
        })));
        Plane {
            shared,
            recv: RecvState::new(),
            gate: hooks.clone(),
            tapped: hooks.clone(),
            hooks,
            stream: stream.into_iter(),
            queues: Packetizer::new(slots),
            flows: (0..slots).map(|_| Flow::default()).collect(),
            requeued: Requeued::default(),
            bounced: Vec::new(),
            keeper: Keeper::default(),
            started: false,
            held: VecDeque::new(),
        }
    }

    fn drained(&self) -> bool {
        self.started
            && self.stream.len() == 0
            && self.queues.is_empty()
            && self.bounced.is_empty()
            && self.held.is_empty()
            && self.flows.iter().all(|f| f.unacked.is_empty())
    }
}

struct Node {
    machine: HaMachine,
    detector: FailureDetector,
    dir: Directory,
    term: u64,
    phase: u64,
    /// The shards the data plane serves, and those marked ready for
    /// the next cut: bit `s` is shard `s`.
    served: u64,
    ready: u64,
    /// The slot wants to be a member; a tick's leave flag is the
    /// opposite (a drain, or a spare's wait before its JOIN).
    want: bool,
    plane: Option<Plane>,
}

/// A scenario in flight.
pub struct Sim<'a> {
    sc: &'a Scenario,
    base: Instant,
    rng: u64,
    t: u64,
    nodes: Vec<Node>,
    /// `(deliver at, from, to, frame)`.
    wire: Vec<(u64, u32, u32, Frame)>,
    /// Data links, `from * slots + to`: `(deliver at, frame)` in order.
    links: Vec<VecDeque<(u64, Data)>>,
    /// Every map version installed anywhere.
    maps: HashMap<u64, ShardMap>,
    /// `ever[i][p]`: node `i`'s detector has latched `p` dead.
    ever: Vec<Vec<bool>>,
    /// The node the fault killed, and when (ms); `down` while it is.
    killed: Option<(u32, u64)>,
    down: Option<u32>,
    /// A served set or a map changed this step.
    moved: bool,
    /// Churn: when the last change was requested; the kill target's
    /// refusing packets and installs so far; the words being installed.
    requested_at: u64,
    refusing: u32,
    installs: u32,
    words: Vec<u64>,
    out: Outcome,
}

/// Run `sc` to its end; `Err` names the first broken invariant.
pub fn run(sc: &Scenario) -> Result<Outcome, String> {
    let mut sim = Sim::new(sc);
    while sim.t < sim.end() || (sim.settling() && sim.t < sim.end() + MIGRATE_MS) {
        sim.run_until(sim.t + STEP_MS)?;
    }
    Ok(sim.outcome())
}

fn bits(shards: impl IntoIterator<Item = u32>) -> u64 {
    shards.into_iter().fold(0, |b, s| b | 1 << s)
}

impl<'a> Sim<'a> {
    pub fn new(sc: &'a Scenario) -> Sim<'a> {
        let (base, mut rng) = (Instant::now(), sc.seed);
        let slots = sc.slots();
        let nodes = (0..slots as u32)
            .map(|me| {
                let phase = splitmix(&mut rng) % (TICK_MS / STEP_MS) * STEP_MS;
                // A churn spare waits for its JOIN; a JOIN family's knocks at once.
                let want = sc.churn().is_none() || (me as usize) < sc.n;
                let mut node = Self::boot(sc, me, base, phase, want);
                if let Some(plane) = &mut node.plane {
                    plane.started = true;
                }
                node
            })
            .collect();
        let boot = ShardMap::initial(&(0..sc.n as u32).collect::<Vec<_>>(), SHARDS);
        let (maps, ever) = (HashMap::from([(1, boot)]), vec![vec![false; slots]; slots]);
        // Data links only where a data plane runs.
        let links = (0..slots * slots).filter(|_| sc.churn().is_some()).map(|_| VecDeque::new());
        let mut sim = Sim {
            sc,
            base,
            rng,
            t: 0,
            nodes,
            wire: Vec::new(),
            links: links.collect(),
            maps,
            ever,
            killed: None,
            down: None,
            moved: false,
            requested_at: 0,
            refusing: 0,
            installs: 0,
            words: Vec::new(),
            out: Outcome::default(),
        };
        // A cold boot's first cut gives each keeper a baseline.
        for i in (0..slots as u32).filter(|_| sc.churn().is_some()) {
            sim.cut(i);
        }
        sim
    }

    /// Slot `me` booting at `now`: a member serves its dealt shards; a
    /// churn node's data plane recovers before it starts.
    fn boot(sc: &Scenario, me: u32, now: Instant, phase: u64, want: bool) -> Node {
        let beat = Duration::from_millis(BEAT_MS);
        // gravel-node's detector.
        let hb =
            HeartbeatConfig { interval: beat, suspect_phi: 4.0, dead_phi: 8.0, min_samples: 3 };
        let boot = ShardMap::initial(&(0..sc.n as u32).collect::<Vec<_>>(), SHARDS);
        let slots = sc.slots();
        let detector = FailureDetector::new(hb);
        (0..slots as u32).filter(|&p| p != me).for_each(|p| detector.track(p, now));
        let dir = Directory::elastic(TABLE, boot.clone());
        let machine = HaMachine::new(me, &boot, slots, TABLE, sc.evict_grace, beat);
        let served = bits(boot.shards_of(me));
        let plane = sc.churn().map(|_| {
            let stream = if (me as usize) < sc.n { sc.stream(me) } else { Vec::new() };
            Plane::new(me, slots, stream)
        });
        let term = INITIAL_TERM;
        Node { machine, detector, dir, term, phase, served, ready: served, want, plane }
    }

    /// Step virtual time up to `end` ms.
    pub fn run_until(&mut self, end: u64) -> Result<(), String> {
        while self.t < end {
            self.t += STEP_MS;
            self.step().map_err(|e| format!("{:?} at {} ms: {e}", self.sc, self.t))?;
        }
        Ok(())
    }

    /// When the run ends: the settle time past the heal, past the
    /// kill's takeover, migration and eviction bounds, or past a churn
    /// run's last change and restart.
    fn end(&self) -> u64 {
        let sc = self.sc;
        let ms = |d: Duration| d.as_millis() as u64;
        let evicted = ms(TAKEOVER_BOUND + sc.evict_grace);
        SETTLE_MS
            + match &sc.fault {
                Fault::Kill { at, .. } => ms(*at) + evicted,
                Fault::Cut(_) => sc.window().map_or(0, |w| ms(w.1)),
                Fault::JoinHolderKilled | Fault::JoinDonorKilled => {
                    self.killed.map_or(ms(JOIN_BY), |k| k.1) + ms(WARD_FALLBACK) + evicted
                }
                Fault::Churn(c) if self.out.changes < c.changes.len() => CHURN_BY,
                Fault::Churn(c) => {
                    let restart = self.killed.zip(c.kill).map(|(k, kill)| k.1 + ms(kill.down));
                    self.requested_at.max(restart.unwrap_or(0))
                }
            }
    }

    /// The end state as it stands.
    pub fn outcome(&self) -> Outcome {
        let live: Vec<&Node> =
            self.nodes.iter().zip(0..).filter(|&(_, i)| self.alive(i)).map(|(n, _)| n).collect();
        let views: BTreeSet<(u64, u32)> = live.iter().map(|n| n.machine.lease()).collect();
        let versions: BTreeSet<u64> = live.iter().map(|n| n.dir.version()).collect();
        let latched = live.iter().flat_map(|n| n.detector.dead_peers());
        let maps: Vec<_> = live.iter().map(|n| n.dir.current_map().expect("elastic")).collect();
        let spare = self.sc.n as u32;
        let victim = self.killed.map(|k| k.0);
        let unserved = |map: &ShardMap| {
            let serves = |s: u32, o| self.alive(o) && self.nodes[o as usize].served & 1 << s != 0;
            (0..map.nshards() as u32).filter(|&s| !serves(s, map.owner_of_shard(s))).count()
        };
        let joins = matches!(self.sc.fault, Fault::JoinHolderKilled | Fault::JoinDonorKilled);
        Outcome {
            forked_maps: views.len(),
            versions: versions.len(),
            version: versions.last().copied().unwrap_or(0),
            latches: latched.filter(|&p| self.alive(p)).count(),
            term: views.iter().map(|v| v.0).max().unwrap_or(0),
            victim,
            victim_evicted: victim.is_some_and(|v| maps.iter().all(|m| !m.is_member(v))),
            joined: joins && maps.iter().all(|m| m.is_member(spare)),
            unserved: maps.iter().map(|m| unserved(m)).sum(),
            busy: self.busy(),
            members: maps.first().map_or_else(Vec::new, |m| m.members.clone()),
            drained: self.drained(),
            miscounted: maps.first().map_or_else(Vec::new, |m| self.miscounted(m)),
            ..self.out.clone()
        }
    }

    /// Every word whose owner under `map` holds it wrong, against the
    /// sequential truth (a churn run; nothing otherwise).
    fn miscounted(&self, map: &ShardMap) -> Vec<(usize, i64)> {
        if self.sc.churn().is_none() {
            return Vec::new();
        }
        let owner = |g: usize| {
            let o = map.owner_of(g as u64);
            self.nodes[o as usize].plane.as_ref().filter(|_| self.alive(o))
        };
        let truth = self.sc.truth();
        let word = |g: usize| owner(g).map_or(0, |p| p.shared.heap.load(g as u64));
        (0..TABLE)
            .filter(|&g| word(g) != truth[g])
            .map(|g| (g, word(g).wrapping_sub(truth[g]) as i64))
            .collect()
    }

    /// Live nodes with a plan in flight or queued, or a pull pending.
    fn busy(&self) -> usize {
        let busy = |n: &Node| !n.machine.rebalancer().is_quiescent() || n.machine.pulling();
        (0..self.nodes.len()).filter(|&i| self.alive(i as u32) && busy(&self.nodes[i])).count()
    }

    /// Every live data plane drained and every link empty.
    fn drained(&self) -> bool {
        let live = self.nodes.iter().zip(0..).filter(|&(_, i)| self.alive(i));
        live.filter_map(|(n, _)| n.plane.as_ref()).all(Plane::drained)
            && self.links.iter().all(VecDeque::is_empty)
    }

    /// Still migrating or draining, or live nodes on different map
    /// versions.
    fn settling(&self) -> bool {
        let live = (0..self.nodes.len() as u32).filter(|&i| self.alive(i));
        let versions: BTreeSet<u64> = live.map(|i| self.nodes[i as usize].dir.version()).collect();
        self.busy() > 0 || versions.len() > 1 || !self.drained()
    }

    fn now(&self) -> Instant {
        self.base + Duration::from_millis(self.t)
    }

    fn alive(&self, node: u32) -> bool {
        self.down != Some(node)
    }

    /// Recovered, and synced to the holder's map: what `gravel-node`
    /// waits for before its receiver and sender start.
    fn serving(&self, node: u32) -> bool {
        let n = &self.nodes[node as usize];
        self.alive(node) && n.plane.as_ref().is_some_and(|p| p.started) && n.machine.synced()
    }

    fn up(&self, from: u32, to: u32) -> bool {
        self.alive(from) && self.alive(to) && !self.cut_off(from, to)
    }

    fn cut_off(&self, from: u32, to: u32) -> bool {
        let at = Duration::from_millis(self.t);
        matches!(&self.sc.fault, Fault::Cut(f) if f.cuts(from, to, at))
    }

    /// `node` dies: everything on its way to it is lost.
    fn kill(&mut self, node: u32) {
        self.killed = Some((node, self.t));
        self.down = Some(node);
        let slots = self.nodes.len();
        self.links.iter_mut().skip(node as usize).step_by(slots).for_each(VecDeque::clear);
        self.wire.retain(|w| w.2 != node);
    }

    /// Virtual time since the fault struck, if it has.
    fn since_fault(&self) -> Option<Duration> {
        let struck = self.sc.window().map(|w| w.0.as_millis() as u64).or(self.killed.map(|k| k.1));
        struck.map(|s| Duration::from_millis(self.t.saturating_sub(s)))
    }

    fn step(&mut self) -> Result<(), String> {
        let (t, now) = (self.t, self.now());
        if let Fault::Kill { node, at } = self.sc.fault {
            if self.killed.is_none() && Duration::from_millis(t) >= at {
                self.kill(node);
            }
        }
        if let Some(c) = self.sc.churn() {
            self.churn(c);
        }
        let (due, later) = std::mem::take(&mut self.wire).into_iter().partition(|w| w.0 <= t);
        self.wire = later;
        for (_, from, to, frame) in due {
            if self.up(from, to) {
                self.deliver(to, from, frame)?;
            }
        }
        let slots = self.nodes.len();
        for l in 0..self.links.len() {
            while self.links[l].front().is_some_and(|f| f.0 <= t) {
                let (_, data) = self.links[l].pop_front().expect("a frame is due");
                self.land((l / slots) as u32, (l % slots) as u32, data)?;
            }
        }
        for i in 0..slots as u32 {
            if self.serving(i) {
                self.pump(i)?;
            }
        }
        let live: Vec<u32> = (0..slots as u32).filter(|&i| self.alive(i)).collect();
        for &i in &live {
            let phase = self.nodes[i as usize].phase;
            if (t + phase).is_multiple_of(BEAT_MS) {
                let heard: Vec<u32> =
                    live.iter().copied().filter(|&j| j != i && self.up(i, j)).collect();
                for j in heard {
                    let jitter = Duration::from_micros(splitmix(&mut self.rng) % self.sc.jitter_us);
                    self.nodes[j as usize].detector.note_beat(i, now + jitter);
                }
                for p in self.nodes[i as usize].detector.sweep(now) {
                    self.ever[i as usize][p as usize] = true;
                }
            }
            let node = &self.nodes[i as usize];
            let started = node.plane.as_ref().is_none_or(|p| p.started);
            if (t + phase).is_multiple_of(TICK_MS) && self.alive(i) && started {
                let det = &node.detector;
                let silence = |p| (p, det.silence(p, now).unwrap_or(Duration::MAX));
                let dead: Vec<(u32, Duration)> =
                    det.dead_peers().into_iter().map(silence).collect();
                let map = node.dir.current_map().expect("elastic");
                let leave = !node.want;
                self.feed(i, Event::Tick { map: &map, dead: &dead, leave })?;
            }
        }
        if std::mem::take(&mut self.moved) {
            // One owner per shard and map version among the live nodes.
            let mut seen: Vec<(u64, u64)> = Vec::new();
            for (i, n) in self.nodes.iter().enumerate().filter(|(i, _)| self.alive(*i as u32)) {
                let v = n.dir.version();
                match seen.iter_mut().find(|s| s.0 == v) {
                    Some(s) if s.1 & n.served != 0 => {
                        return Err(format!("node {i} serves a shard another serves at v{v}"))
                    }
                    Some(s) => s.1 |= n.served,
                    None => seen.push((v, n.served)),
                }
            }
        }
        Ok(())
    }

    /// A churn run's schedule: restart the victim once its time is up,
    /// and request the next change once due and its predecessor has
    /// committed.
    fn churn(&mut self, c: &Churn) {
        if let (Some((v, at)), Some(kill)) = (self.killed, c.kill) {
            if self.down == Some(v) && self.t >= at + kill.down.as_millis() as u64 {
                self.restart(v);
            }
        }
        let i = self.out.changes;
        let committed = self.maps.contains_key(&(1 + i as u64));
        if let Some(&(at, change)) = c.changes.get(i).filter(|_| committed) {
            if Duration::from_millis(self.t) >= at {
                use TopologyChange::*;
                let (Join(s) | Leave(s) | Evict(s)) = change;
                self.nodes[s as usize].want = matches!(change, Join(_));
                self.out.changes += 1;
                self.requested_at = self.t;
            }
        }
    }

    /// The victim comes back as a new incarnation: its peers see its
    /// link come up (they reset their verdicts, and its ward cuts a
    /// fresh baseline for it), and it asks its keeper for its log.
    fn restart(&mut self, v: u32) {
        let (phase, want) = (self.nodes[v as usize].phase, self.nodes[v as usize].want);
        let node = Self::boot(self.sc, v, self.now(), phase, want);
        self.nodes[v as usize] = node;
        self.down = None;
        self.out.restarted = true;
        let now = self.now();
        for (i, n) in self.nodes.iter().enumerate() {
            if i as u32 != v {
                n.detector.reset_peer(v, now);
            }
        }
        let slots = self.nodes.len() as u32;
        self.send_data(v, (v + 1) % slots, Data::RecoverReq);
        self.cut((v + slots - 1) % slots);
    }

    fn send(&mut self, from: u32, to: u32, frame: Frame) {
        let roll = splitmix(&mut self.rng);
        if from == to || (roll % 1_000_000) as f64 >= self.sc.loss * 1e6 {
            self.wire.push((self.t + STEP_MS * (1 + roll % 2), from, to, frame));
        }
    }

    /// Queue `data` on the link `from → to`, 5 or 10 ms behind and
    /// never ahead of what the link already carries. `false` if `to`
    /// is dead; a cut swallows the frame and reports it sent.
    fn send_data(&mut self, from: u32, to: u32, data: Data) -> bool {
        if !self.alive(to) {
            return false;
        }
        let delay = STEP_MS * (1 + splitmix(&mut self.rng) % 2);
        if !self.cut_off(from, to) {
            let link = &mut self.links[(from as usize) * self.nodes.len() + to as usize];
            let at = link.back().map_or(0, |f| f.0).max(self.t + delay);
            link.push_back((at, data));
        }
        true
    }

    fn deliver(&mut self, to: u32, from: u32, frame: Frame) -> Result<(), String> {
        let now = self.now();
        let node = &mut self.nodes[to as usize];
        let map = node.dir.current_map().expect("elastic");
        let event = match frame {
            Frame::Lease { term, holder, version } => {
                Event::Lease { term, holder, map_version: version, mine: map.version }
            }
            Frame::AskVote { suspect } => {
                let latched = node.detector.status(suspect, now) == PeerStatus::Dead;
                self.ever[to as usize][suspect as usize] |= latched;
                Event::VoteRequest { from, suspect, latched }
            }
            Frame::Vote { suspect, dead } => Event::Vote { from, suspect, dead },
            Frame::Topo(topo) => return self.on_topo(to, from, topo),
            Frame::MapReq => Event::MapRequest { from, join: None, map: &map },
            Frame::JoinReq => Event::MapRequest { from, join: Some(from), map: &map },
            Frame::LeaveReq => Event::Propose(TopologyChange::Leave(from)),
            Frame::Pull { shard, ward: None } => Event::Pull { from, shard },
            Frame::Pull { shard, ward: Some(ward) } => {
                let latched = node.detector.status(ward, now) == PeerStatus::Dead;
                self.ever[to as usize][ward as usize] |= latched;
                Event::WardPull { from, shard, ward, latched, map: &map }
            }
            Frame::Words { shard, words } => {
                let served = node.served & 1 << shard != 0;
                Event::Words { shard, words, served, map: &map }
            }
            Frame::Ack { shard, version } => Event::MigrateAck { shard, version },
        };
        // Pulls wait for startup recovery (`gravel-node`'s `started`).
        if matches!(event, Event::Pull { .. } | Event::WardPull { .. })
            && node.plane.as_ref().is_some_and(|p| !p.started)
        {
            return Ok(());
        }
        self.feed(to, event)
    }

    /// A data frame lands at `to` from `from`.
    fn land(&mut self, from: u32, to: u32, data: Data) -> Result<(), String> {
        let serving = self.serving(to);
        let node = &mut self.nodes[to as usize];
        let plane = node.plane.as_mut().expect("a churn node has a data plane");
        match data {
            Data::Packet(_) | Data::Ack { .. } if !serving => plane.held.push_back((from, data)),
            Data::Packet(pkt) => self.accept(to, pkt)?,
            Data::Ack { next } => {
                let flow = &mut plane.flows[from as usize];
                let before = flow.unacked.len();
                flow.unacked.retain(|p| p.seq >= next);
                if flow.unacked.len() < before {
                    flow.since = self.t;
                }
            }
            Data::Fwd(p) => plane.keeper.on_fwd(from, p),
            Data::Ckpt(b) => plane.keeper.on_ckpt(from, b),
            Data::Refused(r) => plane.keeper.on_refused(from, r),
            Data::Bounce { map, refusal } => {
                let term = node.dir.term();
                self.install(to, map, term)?;
                self.requeue(to, from, refusal);
            }
            Data::Words { shard, words } => {
                if plane.started {
                    let served = node.served & 1 << shard != 0;
                    let map = node.dir.current_map().expect("elastic");
                    let n = words.len();
                    self.words = words;
                    self.feed(to, Event::Words { shard, words: n, served, map: &map })?;
                }
            }
            Data::RecoverReq => {
                let log = plane.keeper.recover(from);
                self.send_data(to, from, Data::RecoverResp(log));
            }
            Data::RecoverResp(log) if !plane.started => self.recover(to, log)?,
            Data::RecoverResp(_) => {}
        }
        Ok(())
    }

    /// Startup recovery, as `gravel-node`'s `main` does it: replay the
    /// keeper's log, seed the cursors and the ready shards, re-send the
    /// bounces the log says are owed, then cut.
    fn recover(&mut self, i: u32, log: RecoveryLog) -> Result<(), String> {
        let member = (i as usize) < self.sc.n;
        let node = &mut self.nodes[i as usize];
        let plane = node.plane.as_mut().expect("a data plane");
        let replayed = log
            .replay(&plane.shared.heap, &plane.shared.ams)
            .map_err(|e| format!("node {i} refused its keeper's log: {e}"))?;
        for &(src, lane, next) in &replayed.cursors {
            plane.recv.seed_flow(src, lane, next);
        }
        let epoch = log.baseline.as_ref().map_or(0, |b| b.epoch);
        plane.hooks.lock().ward.seed(&replayed.cursors, epoch);
        let ready = match &log.baseline {
            Some(b) => bits(b.app.iter().map(|&s| s as u32)),
            None if member => bits(node.dir.current_map().expect("elastic").shards_of(i)),
            None => 0,
        };
        (node.served, node.ready, plane.started) = (ready, ready, true);
        for r in replayed.owed {
            self.bounce(i, r)?;
        }
        self.cut(i);
        Ok(())
    }

    /// Apply one packet through the real receive path, then make its
    /// sends in order — the kill target dying after the one its kill
    /// point names.
    fn accept(&mut self, to: u32, pkt: Packet) -> Result<(), String> {
        let node = &mut self.nodes[to as usize];
        let plane = node.plane.as_mut().expect("a data plane");
        {
            let mut st = plane.hooks.lock();
            st.map = node.dir.current_map();
            (st.served, st.ready) = (node.served, node.ready);
        }
        let src = pkt.src;
        let (gate, tap) = (Some(&plane.gate), Some(&plane.tapped));
        let (next, _) = plane.recv.accept(&plane.shared, pkt, None, gate, tap);
        let emits = std::mem::take(&mut plane.hooks.lock().emits);
        let mut kill_after = None;
        let kill = self.sc.churn().and_then(|c| c.kill).filter(|k| k.node == to);
        if let Some(Kill { at: KillAt::Packet { nth, after }, .. }) = kill {
            if emits.iter().any(|e| matches!(e.0, Emit::Refused(_))) {
                self.refusing += 1;
                kill_after = (self.refusing == nth && self.killed.is_none()).then_some(after);
            }
        }
        let keeper = (to + 1) % self.nodes.len() as u32;
        // A refusal counts as stale-routed once its packet's forward is
        // out, as `gravel-node` counts it: a kill before then undoes it.
        let mut refused = 0;
        for (emit, entry) in emits {
            let sent = match emit {
                Emit::Refused(r) => {
                    refused = (r.words().len() / 4) as u64;
                    self.send_data(to, keeper, Data::Refused(r));
                    Some(After::Refused)
                }
                Emit::Forward => {
                    self.send_data(to, keeper, Data::Fwd(entry.expect("a forward's entry")));
                    self.out.stale_routed += std::mem::take(&mut refused);
                    Some(After::Forward)
                }
                Emit::Bounce(r) => {
                    let n = (r.words().len() / 4) as u64;
                    if !self.bounce(to, r)? {
                        self.out.bounce_dropped += n;
                    }
                    Some(After::Bounce)
                }
                // A cut is no kill point.
                Emit::Ckpt(b) => {
                    self.send_data(to, keeper, Data::Ckpt(b));
                    None
                }
            };
            if sent.is_some() && kill_after == sent {
                self.kill(to);
                return Ok(());
            }
        }
        self.send_data(to, src, Data::Ack { next });
        if kill_after == Some(After::Ack) {
            self.kill(to);
        }
        Ok(())
    }

    /// Send `r` back to its sender with `i`'s map, or to `i`'s own
    /// queues on loopback. `false` if the sender is dead; `Err` if `i`'s
    /// live keeper does not yet hold the packet's forward.
    fn bounce(&mut self, i: u32, r: LoggedPacket) -> Result<bool, String> {
        if !self.keeper_holds_fwd(i, &r) {
            let (src, lane, seq) = (r.src(), r.lane(), r.seq());
            return Err(format!("node {i} bounced packet {src}/{lane}/{seq} before its forward"));
        }
        if r.src() == i {
            self.requeue(i, i, r);
            return Ok(true);
        }
        let map = (*self.nodes[i as usize].dir.current_map().expect("elastic")).clone();
        Ok(self.send_data(i, r.src(), Data::Bounce { map, refusal: r }))
    }

    /// Whether `i`'s keeper holds the forward of `r`'s packet: in its
    /// log, or on the FIFO link that lands it before anything `i` sends
    /// later. A dead keeper holds nothing and is owed nothing.
    fn keeper_holds_fwd(&self, i: u32, r: &LoggedPacket) -> bool {
        let slots = self.nodes.len();
        let keeper = (i as usize + 1) % slots;
        if !self.alive(keeper as u32) {
            return true;
        }
        let same = |p: &LoggedPacket| (p.src(), p.lane(), p.seq()) == (r.src(), r.lane(), r.seq());
        let on_link = self.links[i as usize * slots + keeper]
            .iter()
            .any(|(_, d)| matches!(d, Data::Fwd(p) if same(p)));
        let plane = self.nodes[keeper].plane.as_ref();
        on_link || plane.is_some_and(|p| p.keeper.recover(i).packets.iter().any(same))
    }

    /// Node `i` takes back what `receiver` refused, once.
    fn requeue(&mut self, i: u32, receiver: u32, r: LoggedPacket) {
        let plane = self.nodes[i as usize].plane.as_mut().expect("a data plane");
        if plane.requeued.fresh(receiver, r.lane(), r.seq()) {
            let quads = r.words().chunks_exact(4).map(|q| <[u64; 4]>::try_from(q).expect("a quad"));
            plane.bounced.extend(quads);
            self.out.redelivered += (r.words().len() / 4) as u64;
        }
    }

    /// Cut node `i`'s epoch: a baseline to its keeper.
    fn cut(&mut self, i: u32) {
        let node = &self.nodes[i as usize];
        let Some(plane) = node.plane.as_ref().filter(|_| self.alive(i)) else {
            return;
        };
        let b = {
            let st = &mut *plane.hooks.lock();
            let (heap, app) = Lent::image(&st.shared, node.ready);
            st.ward.cut(heap, app)
        };
        let slots = self.nodes.len() as u32;
        self.send_data(i, (i + 1) % slots, Data::Ckpt(b));
    }

    /// One sender pass of a serving node: apply what was held, offload
    /// this step's share of the stream, route what is queued and what
    /// came back, cut full packets (any once the stream is offloaded)
    /// into open windows, and re-send what waited out the timer.
    fn pump(&mut self, i: u32) -> Result<(), String> {
        let plane = self.nodes[i as usize].plane.as_mut().expect("a data plane");
        let held = std::mem::take(&mut plane.held);
        for (from, data) in held {
            if self.alive(i) {
                self.land(from, i, data)?;
            }
        }
        if !self.alive(i) {
            return Ok(());
        }
        let rate = self.sc.churn().map_or(0, |c| c.rate);
        let (t, slots) = (self.t, self.nodes.len() as u32);
        let node = &mut self.nodes[i as usize];
        let plane = node.plane.as_mut().expect("a data plane");
        plane.queues.enqueue(&node.dir, plane.stream.by_ref().take(rate));
        plane.queues.reroute(&node.dir, plane.bounced.drain(..));
        let offloaded = plane.stream.len() == 0;
        let mut out = Vec::new();
        for dest in 0..slots {
            let flow = &mut plane.flows[dest as usize];
            while flow.unacked.len() < WINDOW {
                let Some(mut pkt) = plane.queues.cut(i, dest, MSGS_PER_PACKET, offloaded, None)
                else {
                    break;
                };
                pkt.seq = flow.next;
                flow.next += 1;
                if flow.unacked.is_empty() {
                    flow.since = t;
                }
                flow.unacked.push_back(pkt.clone());
                out.push((dest, pkt));
            }
            if flow.unacked.front().is_some_and(|_| t >= flow.since + RTO_MS) {
                flow.since = t;
                out.extend(flow.unacked.iter().map(|p| (dest, p.clone())));
            }
        }
        for (dest, pkt) in out {
            self.send_data(i, dest, Data::Packet(pkt));
        }
        Ok(())
    }

    /// Install `map` under `term` through `i`'s fence, hold it to the
    /// one map of its version, and prune the served set to it.
    fn install(&mut self, i: u32, map: ShardMap, term: u64) -> Result<FencedInstall, String> {
        let node = &mut self.nodes[i as usize];
        let installed = node.dir.install_fenced(map.clone(), term);
        if installed == FencedInstall::Stale {
            return Ok(installed);
        }
        if *self.maps.entry(map.version).or_insert_with(|| map.clone()) != map {
            return Err(format!("two maps at version {}", map.version));
        }
        if installed == FencedInstall::Installed {
            let mine = bits(map.shards_of(i));
            let pruned = node.ready & !mine != 0;
            (node.served, node.ready) = (node.served & mine, node.ready & mine);
            self.moved = true;
            // The keeper's baseline must stop claiming a shard that left
            // before anything ships it, or a restart serves its stale
            // words when it returns.
            if pruned {
                self.cut(i);
            }
        }
        Ok(installed)
    }

    /// Install a TOPO through the fence and step.
    fn on_topo(&mut self, to: u32, from: u32, topo: Topo) -> Result<(), String> {
        if self.install(to, topo.map.clone(), topo.term)? == FencedInstall::Stale {
            return Ok(());
        }
        let donor = topo.moves.iter().any(|m| m.from == to);
        let join = topo.change == Some(TopologyChange::Join(self.sc.n as u32));
        if matches!(self.sc.fault, Fault::JoinDonorKilled)
            && self.killed.is_none()
            && join
            && donor
            && to != from
        {
            self.kill(to);
            return Ok(());
        }
        let node = &self.nodes[to as usize];
        let map = node.dir.current_map().expect("elastic");
        let served: Vec<u32> = (0..SHARDS as u32).filter(|&s| node.served & 1 << s != 0).collect();
        self.feed(to, Event::Topo { from, topo: &topo, map: &map, served: &served })
    }

    /// Step node `i`'s machine with `event`, check its term, perform
    /// what it returns.
    pub fn feed(&mut self, i: u32, event: Event<'_>) -> Result<(), String> {
        let node = &mut self.nodes[i as usize];
        let actions = node.machine.step(self.base + Duration::from_millis(self.t), event);
        let (term, _) = node.machine.lease();
        if term < node.term {
            return Err(format!("node {i}'s term went from {} to {term}", node.term));
        }
        node.term = term;
        actions.into_iter().try_for_each(|a| self.perform(i, a))
    }

    fn perform(&mut self, i: u32, action: Action) -> Result<(), String> {
        let (now, slots) = (self.now(), self.nodes.len() as u32);
        // A node killed mid-step does nothing more.
        if !self.alive(i) {
            return Ok(());
        }
        let install_step = match action {
            Action::Write { .. } => Some(1),
            Action::MarkReady { .. } => Some(2),
            Action::Cut => Some(3),
            Action::Serve { .. } => Some(4),
            _ => None,
        };
        let node = &mut self.nodes[i as usize];
        match action {
            Action::Beat { term, holder } => {
                let version = node.dir.version();
                for j in (0..slots).filter(|&j| j != i) {
                    self.send(i, j, Frame::Lease { term, holder, version });
                }
            }
            Action::AskVote { to, suspect } => self.send(i, to, Frame::AskVote { suspect }),
            Action::Vote { to, suspect, dead } => {
                self.send(i, to, Frame::Vote { suspect, dead })
            }
            Action::RequestMap { to } => self.send(i, to, Frame::MapReq),
            Action::RequestJoin { to } => self.send(i, to, Frame::JoinReq),
            Action::RequestLeave { to } => self.send(i, to, Frame::LeaveReq),
            Action::Revive { peer } => node.detector.reset_peer(peer, now),
            Action::TookOver { from, .. } => {
                let map = node.dir.current_map().expect("elastic");
                let ever = |&&m: &&u32| self.ever[m as usize][from as usize];
                let latched = map.members.iter().filter(ever).count();
                if latched < quorum(map.members.len()) || self.sc.in_minority(i, self.t) {
                    return Err(format!("node {i} took the lease from {from} on {latched} latches"));
                }
                self.out.takeovers += 1;
                self.out.takeover_after = self.out.takeover_after.or(self.since_fault());
            }
            Action::Vetoed { .. } => self.out.vetoes += 1,
            Action::Evicting { peer } if self.sc.in_minority(i, self.t) => {
                return Err(format!("node {i} on a minority side proposed evicting {peer}"));
            }
            Action::Evicting { .. } => {}
            Action::Commit(topo) => {
                let change = topo.change;
                if let Some(TopologyChange::Evict(p)) = change {
                    if !node.detector.dead_peers().contains(&p) {
                        return Err(format!("node {i} committed the EVICT of {p}, not latched"));
                    }
                    self.out.evictions += 1;
                }
                // gravel-node --kill-on-commit: broadcast, then die.
                let kill = matches!(self.sc.fault, Fault::JoinHolderKilled)
                    && self.killed.is_none()
                    && change == Some(TopologyChange::Join(self.sc.n as u32));
                self.broadcast(i, topo, !kill)?;
                if kill {
                    self.kill(i);
                }
            }
            Action::Redrive(topo) => self.broadcast(i, topo, true)?,
            Action::SendTopo { to, topo } => self.send(i, to, Frame::Topo(topo)),
            Action::Pull { to, shard, ward } => self.send(i, to, Frame::Pull { shard, ward }),
            Action::Ship { to, shard, ward } => {
                let map = node.dir.current_map().expect("elastic");
                let Some(plane) = &node.plane else {
                    // Only the next slot keeps a ward.
                    if ward.is_none_or(|w| (w + 1) % slots == i) {
                        let words = map.shard_words(TABLE, shard);
                        self.send(i, to, Frame::Words { shard, words });
                    }
                    return Ok(());
                };
                let heap = match ward {
                    None => Some(plane.shared.heap.snapshot()),
                    Some(w) => plane.keeper.ship_ward(w, shard),
                };
                if let Some(heap) = heap.filter(|h| h.len() == TABLE) {
                    let stride = map.nshards();
                    let n = map.shard_words(TABLE, shard);
                    let words = (0..n).map(|k| heap[shard as usize + k * stride]).collect();
                    self.send_data(i, to, Data::Words { shard, words });
                }
            }
            Action::Write { shard } => {
                self.installs += 1;
                if let Some(plane) = &node.plane {
                    let stride = node.dir.current_map().expect("elastic").nshards();
                    for (k, &w) in self.words.iter().enumerate() {
                        plane.shared.heap.store((shard as usize + k * stride) as u64, w);
                    }
                }
            }
            Action::MarkReady { shard } => node.ready |= 1 << shard,
            Action::Cut => self.cut(i),
            Action::Serve { shard, waited } => {
                if node.ready & 1 << shard == 0 {
                    return Err(format!("node {i} served shard {shard} before marking it ready"));
                }
                node.served |= 1 << shard;
                self.moved = true;
                self.out.moves += 1;
                self.out.words_moved += self.words.len() as u64;
                self.out.migrations.push(waited);
            }
            Action::Ack { to, shard, version } => self.send(i, to, Frame::Ack { shard, version }),
            Action::Migrated => {
                if self.killed.is_some() && self.out.migrated_after.is_none() {
                    self.out.migrated_after = self.since_fault();
                }
            }
        }
        let kill = self.sc.churn().and_then(|c| c.kill).filter(|k| k.node == i);
        if let Some(Kill { at: KillAt::Install { nth, step }, .. }) = kill {
            if install_step == Some(step) && nth == self.installs && self.killed.is_none() {
                self.kill(i);
            }
        }
        Ok(())
    }

    /// Send `topo` to every other slot, then install it here.
    fn broadcast(&mut self, i: u32, topo: Topo, install: bool) -> Result<(), String> {
        for j in (0..self.nodes.len() as u32).filter(|&j| j != i) {
            self.send(i, j, Frame::Topo(topo.clone()));
        }
        if install {
            self.on_topo(i, i, topo)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suite's fault families.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Family {
        /// The boot holder, node 0, is killed.
        HolderKilled,
        /// An island of at most half the nodes is cut off both ways.
        Partition,
        /// One node stops hearing another.
        OneWay,
        /// A member other than the holder is killed.
        MemberKilled,
        /// A spare slot JOINs and the holder dies committing it.
        JoinHolderKilled,
        /// A spare slot JOINs and a donor dies installing it.
        DonorKilled,
        /// The members stream while one or two spares JOIN and one of
        /// them drain-LEAVEs.
        Reshard,
        /// The same, and the first spare is killed at a seeded send of a
        /// packet it accepts, or mid-install, and restarts.
        ReshardKilled,
    }

    /// Draw N ∈ 3..=7 members, the fault at 400–1000 ms (a cut lasts
    /// 1.5–3 s), jitter up to 3 ms, loss up to 10 % and an evict grace
    /// of 0.2–2 s.
    fn seeded(family: Family, seed: u64) -> Scenario {
        let mut st = seed ^ ((family as u64) << 56);
        let mut r = move |k: u64| splitmix(&mut st) % k;
        let n = 3 + r(5) as usize;
        let from = Duration::from_millis(400 + r(600));
        let until = from + Duration::from_millis(1500 + r(1500));
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            ids.swap(i, r(i as u64 + 1) as usize);
        }
        let fault = match family {
            Family::HolderKilled => Fault::Kill { node: 0, at: from },
            Family::MemberKilled => Fault::Kill { node: 1 + r(n as u64 - 1) as u32, at: from },
            Family::Partition => {
                let island = ids[..1 + r(n as u64 / 2) as usize].to_vec();
                Fault::Cut(LinkFault::Partition { island, from, until })
            }
            Family::OneWay => {
                Fault::Cut(LinkFault::OneWay { src: ids[0], dest: ids[1], from, until })
            }
            Family::JoinHolderKilled => Fault::JoinHolderKilled,
            Family::DonorKilled => Fault::JoinDonorKilled,
            Family::Reshard | Family::ReshardKilled => {
                return churn(family == Family::ReshardKilled, seed, &mut r)
            }
        };
        let (jitter_us, loss) = (1 + r(3000), r(101) as f64 / 1000.0);
        let evict_grace = Duration::from_millis(200 + r(1800));
        Scenario { n, fault, jitter_us, loss, evict_grace, seed }
    }

    /// Draw 3–5 streaming members and 1–2 spares; each spare JOINs from
    /// 300 ms on, then one of them drain-LEAVEs; 1 500–3 000 INCs a
    /// member at 3–6 a step; loss up to 5 % and no eviction. With `kill`,
    /// the first spare dies after a seeded send of its 1st–2nd refusing
    /// packet (or after a step of its 1st–2nd install, one in five) and
    /// comes back 100–500 ms later.
    fn churn(kill: bool, seed: u64, r: &mut impl FnMut(u64) -> u64) -> Scenario {
        let ms = Duration::from_millis;
        let n = 3 + r(3) as usize;
        let spares = 1 + r(2) as usize;
        let mut at = 300 + r(500);
        let mut changes = Vec::new();
        for s in 0..spares {
            changes.push((ms(at), TopologyChange::Join((n + s) as u32)));
            at += r(400);
        }
        let leaver = (n + r(spares as u64) as usize) as u32;
        changes.push((ms(at + 200 + r(600)), TopologyChange::Leave(leaver)));
        let (updates, rate) = (1500 + r(1500) as usize, 3 + r(4) as usize);
        let at = if r(5) == 0 {
            KillAt::Install { nth: 1 + r(2) as u32, step: 1 + r(4) as u32 }
        } else {
            let after = [After::Refused, After::Forward, After::Bounce, After::Ack][r(4) as usize];
            KillAt::Packet { nth: 1 + r(2) as u32, after }
        };
        let kill = kill.then(|| Kill { node: n as u32, at, down: ms(100 + r(400)) });
        let fault = Fault::Churn(Churn { spares, changes, updates, rate, kill });
        let (jitter_us, loss) = (1 + r(3000), r(51) as f64 / 1000.0);
        Scenario { n, fault, jitter_us, loss, evict_grace: Duration::from_secs(60), seed }
    }

    fn cases() -> u64 {
        std::env::var("GRAVEL_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if cfg!(debug_assertions) { 64 } else { 1024 })
    }

    /// The members a churn schedule ends with.
    fn final_members(sc: &Scenario) -> Vec<u32> {
        let mut members: BTreeSet<u32> = (0..sc.n as u32).collect();
        for &(_, change) in sc.churn().map_or(&[][..], |c| &c.changes) {
            match change {
                TopologyChange::Join(s) => members.insert(s),
                TopologyChange::Leave(s) | TopologyChange::Evict(s) => members.remove(&s),
            };
        }
        members.into_iter().collect()
    }

    /// Run one seed and hold its settled end state to its family's
    /// promise. A failing suite names the seed; replay it with a
    /// one-line test calling this.
    fn check(family: Family, seed: u64) -> Outcome {
        use Family::*;
        let sc = seeded(family, seed);
        let o = run(&sc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let fail = |what: &str| panic!("seed {seed}: {sc:?}: {what}; {o:?}");
        if o.forked_maps != 1 || o.versions != 1 || o.latches != 0 {
            fail("live nodes did not settle on one lease, one map and no latch");
        }
        if o.unserved != 0 || o.busy != 0 {
            fail("a shard is not served by its live owner, or a migration never finished");
        }
        match family {
            HolderKilled | JoinHolderKilled
                if o.takeover_after.is_none_or(|d| d > TAKEOVER_BOUND) =>
            {
                fail("the killed holder was not succeeded in time")
            }
            HolderKilled | MemberKilled | JoinHolderKilled | DonorKilled if !o.victim_evicted => {
                fail("the dead member was never evicted")
            }
            JoinHolderKilled | DonorKilled if !o.joined => fail("the spare never joined"),
            MemberKilled | DonorKilled if o.takeovers > 0 => fail("a live holder was taken over"),
            OneWay if o.term != INITIAL_TERM || o.evictions > 0 => {
                fail("a one-way cut moved the term or evicted")
            }
            OneWay if o.vetoes == 0 => fail("a one-way suspicion was never vetoed"),
            Reshard | ReshardKilled if o.members != final_members(&sc) => {
                fail("the schedule's changes did not all commit")
            }
            Reshard | ReshardKilled if !o.drained => fail("the data plane never drained"),
            Reshard | ReshardKilled if !o.miscounted.is_empty() => {
                fail("an owner's heap is not bit-exact against the sequential truth")
            }
            Reshard | ReshardKilled if o.stale_routed != o.redelivered + o.bounce_dropped => {
                fail("stale_routed != redelivered + bounce_dropped")
            }
            ReshardKilled if o.victim.is_some() && !o.restarted => {
                fail("the victim never restarted")
            }
            _ => {}
        }
        o
    }

    fn sweep(family: Family) -> Vec<Outcome> {
        (0..cases()).map(|seed| check(family, seed)).collect()
    }

    #[test]
    fn a_killed_holder_is_succeeded_and_evicted() {
        for o in sweep(Family::HolderKilled) {
            assert!(o.term > INITIAL_TERM && o.evictions >= 1, "{o:?}");
        }
    }

    #[test]
    fn a_symmetric_partition_never_forks_the_lease() {
        sweep(Family::Partition);
    }

    #[test]
    fn a_one_way_cut_is_vetoed() {
        sweep(Family::OneWay);
    }

    #[test]
    fn a_killed_member_is_evicted_under_the_same_term() {
        for o in sweep(Family::MemberKilled) {
            assert_eq!((o.term, o.takeovers), (INITIAL_TERM, 0), "{o:?}");
        }
    }

    #[test]
    fn a_holder_killed_committing_a_join_is_succeeded_and_the_join_completes() {
        for o in sweep(Family::JoinHolderKilled) {
            assert!(o.term > INITIAL_TERM && o.migrated_after.is_some(), "{o:?}");
        }
    }

    #[test]
    fn a_donor_killed_mid_migration_is_pulled_from_its_ward() {
        for o in sweep(Family::DonorKilled) {
            assert!(o.victim.is_some_and(|v| v != 0) && o.migrated_after.is_some(), "{o:?}");
        }
    }

    #[test]
    fn churn_streams_stay_bit_exact_through_joins_and_a_leave() {
        let outcomes = sweep(Family::Reshard);
        assert!(outcomes.iter().all(|o| o.moves > 0 && o.restarted == o.victim.is_some()));
        let bounced = outcomes.iter().filter(|o| o.stale_routed > 0).count();
        assert!(bounced * 2 > outcomes.len(), "only {bounced} runs raced a flip");
    }

    #[test]
    fn churn_a_spare_killed_mid_reshard_restarts_from_its_keeper_bit_exact() {
        let outcomes = sweep(Family::ReshardKilled);
        let restarted = outcomes.iter().filter(|o| o.restarted).count();
        assert!(restarted * 2 > outcomes.len(), "only {restarted} kills landed");
    }

    /// `check`, holding the seed to the kill point it is named for.
    fn killed(seed: u64, at: KillAt) -> Outcome {
        let sc = seeded(Family::ReshardKilled, seed);
        let drawn = sc.churn().and_then(|c| c.kill).map(|k| k.at);
        assert_eq!(drawn, Some(at), "seed {seed} draws another kill point");
        let o = check(Family::ReshardKilled, seed);
        assert!(o.restarted && o.stale_routed > 0, "seed {seed}: {o:?}");
        o
    }

    /// The over-count `gravel-node`'s `grow_shrink` test hit: a kill
    /// right after a packet's bounce. When the bounce left before the
    /// forward, the restarted joiner was re-sent the packet, refused it
    /// again, and its sender re-queued the messages twice. The sender's
    /// `Requeued` guard now drops such a repeat, so the send order is
    /// held at the send instead: with `Emit::Bounce` ahead of
    /// `Emit::Forward`, node 4's first bounce (packet 4/0/14, 540 ms)
    /// fails this seed.
    #[test]
    fn churn_seed_14_a_kill_after_the_bounce_does_not_over_count() {
        killed(14, KillAt::Packet { nth: 1, after: After::Bounce });
    }

    /// The refusal is logged, its forward is not: the re-sent packet is
    /// gated afresh, and the logged refusal is not owed.
    #[test]
    fn churn_seed_19_a_kill_after_the_refusal_regates_the_packet() {
        killed(19, KillAt::Packet { nth: 1, after: After::Refused });
    }

    /// The forward is out and the bounce is not: the restarted node owes
    /// it, and re-sends it from its keeper's log.
    #[test]
    fn churn_seed_26_a_kill_after_the_forward_re_sends_the_owed_bounce() {
        killed(26, KillAt::Packet { nth: 1, after: After::Forward });
    }

    #[test]
    fn churn_seed_12_a_kill_after_the_ack_drops_the_repeated_bounce() {
        killed(12, KillAt::Packet { nth: 1, after: After::Ack });
    }

    /// The under-count: a shard left the spare, which died, and came
    /// back to it. The restarted spare served the words its keeper's
    /// baseline still claimed ready instead of pulling the shard again.
    #[test]
    fn churn_seed_949_a_shard_returning_to_a_restarted_spare_is_pulled_again() {
        killed(949, KillAt::Packet { nth: 2, after: After::Ack });
    }

    /// A kill between each two steps of a shard install.
    #[test]
    fn churn_seeds_71_2_34_35_a_kill_mid_install_is_re_pulled_or_re_acked() {
        for (seed, step) in [(71, 1), (2, 2), (34, 3), (35, 4)] {
            killed(seed, KillAt::Install { nth: 1, step });
        }
    }

    #[test]
    fn a_minority_node_asserting_a_term_reads_as_two_views() {
        let sc = seeded(Family::Partition, 7);
        let Fault::Cut(LinkFault::Partition { island, from, .. }) = &sc.fault else {
            unreachable!("a partition scenario cuts an island")
        };
        let mut sim = Sim::new(&sc);
        sim.run_until(from.as_millis() as u64 + 500).unwrap();
        assert_eq!(sim.outcome().forked_maps, 1);
        let me = island[0];
        sim.feed(me, Event::Lease { term: 9, holder: me, map_version: 0, mine: 0 }).unwrap();
        assert_eq!(sim.outcome().forked_maps, 2);
    }
}

//! N copies of the [`HaMachine`] in seeded virtual time: the one
//! harness behind the seeded HA suite (this module's tests) and
//! `fault_sweep`'s failover cells (DESIGN.md §18).
//!
//! Each node has a real [`FailureDetector`] fed explicit instants (15 ms
//! beats, seeded jitter), ticks its machine every 25 ms at a seeded
//! phase, installs maps through a fenced [`Directory`] and keeps the
//! shards its data plane serves and has marked ready — sets, not words:
//! a migration here is every frame `gravel-node` sends for it (pull,
//! ward pull, the words' count, ack) and every install step, but no
//! heap. A ward keeper is the next slot, as in `gravel-node`. Control
//! frames are lost with the scenario's probability and otherwise land
//! 5 or 10 ms later. After every step: no term goes down, one map per
//! version, a takeover only on a quorum of members that had latched the
//! holder, no takeover or EVICT from a partition side below quorum, no
//! shard served before it was marked ready, and no shard served by two
//! live nodes at one map version.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use gravel_net::{splitmix, LinkFault};
use gravel_pgas::{Directory, FencedInstall, ShardMap};

use super::heartbeat::{FailureDetector, HeartbeatConfig, PeerStatus};
use super::lease::{quorum, INITIAL_TERM};
use super::machine::{Action, Event, HaMachine, Topo, WARD_FALLBACK};
use super::rebalance::TopologyChange;

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
const STEP_MS: u64 = 5;
const BEAT_MS: u64 = 15;
const TICK_MS: u64 = 25;
/// The table: `gravel-node`'s 64 shards, of 4 words.
const SHARDS: usize = 64;
const TABLE: usize = 256;

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
}

/// One schedule: N machines, one fault, beat jitter and frame loss.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Members of the boot map, slots `0..n`; a JOIN fault adds slot `n`.
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

    /// Process slots: the members plus a JOIN fault's spare.
    pub fn slots(&self) -> usize {
        self.n + matches!(self.fault, Fault::JoinHolderKilled | Fault::JoinDonorKilled) as usize
    }

    /// Is `node` on a partition side smaller than a quorum at `t`?
    fn in_minority(&self, node: u32, t: u64) -> bool {
        let Fault::Cut(LinkFault::Partition { island, from, until }) = &self.fault else {
            return false;
        };
        let side = if island.contains(&node) { island.len() } else { self.n - island.len() };
        (*from..*until).contains(&Duration::from_millis(t)) && side < quorum(self.n)
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
    /// Distinct map versions among the live nodes.
    pub versions: usize,
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
}

#[derive(Clone)]
enum Frame {
    Lease { term: u64, holder: u32, version: u64 },
    AskVote { term: u64, suspect: u32 },
    Vote { suspect: u32, dead: bool },
    Topo(Topo),
    MapReq,
    JoinReq,
    LeaveReq,
    Pull { shard: u32, ward: Option<u32> },
    Words { shard: u32, words: usize },
    Ack { shard: u32, version: u64 },
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
    /// Every map version installed anywhere.
    maps: HashMap<u64, ShardMap>,
    /// `ever[i][p]`: node `i`'s detector has latched `p` dead.
    ever: Vec<Vec<bool>>,
    /// The node the fault killed, and when (ms).
    killed: Option<(u32, u64)>,
    /// A served set or a map changed this step.
    moved: bool,
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

fn bits(shards: &[u32]) -> u64 {
    shards.iter().fold(0, |b, &s| b | 1 << s)
}

impl<'a> Sim<'a> {
    pub fn new(sc: &'a Scenario) -> Sim<'a> {
        let (base, mut rng) = (Instant::now(), sc.seed);
        let beat = Duration::from_millis(BEAT_MS);
        // gravel-node's detector.
        let hb =
            HeartbeatConfig { interval: beat, suspect_phi: 4.0, dead_phi: 8.0, min_samples: 3 };
        let members: Vec<u32> = (0..sc.n as u32).collect();
        let boot = ShardMap::initial(&members, SHARDS);
        let slots = sc.slots();
        let node = |me: u32, phase: u64| {
            let detector = FailureDetector::new(hb.clone());
            (0..slots as u32).filter(|&p| p != me).for_each(|p| detector.track(p, base));
            let dir = Directory::elastic(TABLE, boot.clone());
            let machine = HaMachine::new(me, &boot, slots, TABLE, sc.evict_grace, beat);
            let served = bits(&boot.shards_of(me));
            Node { machine, detector, dir, term: INITIAL_TERM, phase, served, ready: served }
        };
        let nodes = (0..slots as u32)
            .map(|me| node(me, splitmix(&mut rng) % (TICK_MS / STEP_MS) * STEP_MS))
            .collect();
        let (maps, ever) = (HashMap::from([(1, boot.clone())]), vec![vec![false; slots]; slots]);
        Sim {
            sc,
            base,
            rng,
            t: 0,
            nodes,
            wire: Vec::new(),
            maps,
            ever,
            killed: None,
            moved: false,
            out: Outcome::default(),
        }
    }

    /// Step virtual time up to `end` ms.
    pub fn run_until(&mut self, end: u64) -> Result<(), String> {
        while self.t < end {
            self.t += STEP_MS;
            self.step().map_err(|e| format!("{:?} at {} ms: {e}", self.sc, self.t))?;
        }
        Ok(())
    }

    /// When the run ends: the settle time past the heal, or past the
    /// kill's takeover, migration and eviction bounds.
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
        Outcome {
            forked_maps: views.len(),
            versions: versions.len(),
            latches: latched.filter(|&p| self.alive(p)).count(),
            term: views.iter().map(|v| v.0).max().unwrap_or(0),
            victim,
            victim_evicted: victim.is_some_and(|v| maps.iter().all(|m| !m.is_member(v))),
            joined: self.sc.slots() > self.sc.n && maps.iter().all(|m| m.is_member(spare)),
            unserved: maps.iter().map(|m| unserved(m)).sum(),
            busy: self.busy(),
            ..self.out.clone()
        }
    }

    /// Live nodes with a plan in flight or queued, or a pull pending.
    fn busy(&self) -> usize {
        let busy = |n: &Node| !n.machine.rebalancer().is_quiescent() || n.machine.pulling();
        (0..self.nodes.len()).filter(|&i| self.alive(i as u32) && busy(&self.nodes[i])).count()
    }

    /// Still migrating, or live nodes on different map versions.
    fn settling(&self) -> bool {
        let live = (0..self.nodes.len() as u32).filter(|&i| self.alive(i));
        let versions: BTreeSet<u64> = live.map(|i| self.nodes[i as usize].dir.version()).collect();
        self.busy() > 0 || versions.len() > 1
    }

    fn now(&self) -> Instant {
        self.base + Duration::from_millis(self.t)
    }

    fn alive(&self, node: u32) -> bool {
        self.killed.is_none_or(|(v, _)| v != node)
    }

    fn up(&self, from: u32, to: u32) -> bool {
        let at = Duration::from_millis(self.t);
        let cut = matches!(&self.sc.fault, Fault::Cut(f) if f.cuts(from, to, at));
        self.alive(from) && self.alive(to) && !cut
    }

    fn kill(&mut self, node: u32) {
        self.killed = Some((node, self.t));
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
        let (due, later) = std::mem::take(&mut self.wire).into_iter().partition(|w| w.0 <= t);
        self.wire = later;
        for (_, from, to, frame) in due {
            if self.up(from, to) {
                self.deliver(to, from, frame)?;
            }
        }
        let live: Vec<u32> = (0..self.nodes.len() as u32).filter(|&i| self.alive(i)).collect();
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
            if (t + phase).is_multiple_of(TICK_MS) && self.alive(i) {
                let det = &self.nodes[i as usize].detector;
                let silence = |p| (p, det.silence(p, now).unwrap_or(Duration::MAX));
                let dead: Vec<(u32, Duration)> =
                    det.dead_peers().into_iter().map(silence).collect();
                let map = self.nodes[i as usize].dir.current_map().expect("elastic");
                self.feed(i, Event::Tick { map: &map, dead: &dead, leave: false })?;
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

    fn send(&mut self, from: u32, to: u32, frame: Frame) {
        let roll = splitmix(&mut self.rng);
        if from == to || (roll % 1_000_000) as f64 >= self.sc.loss * 1e6 {
            self.wire.push((self.t + STEP_MS * (1 + roll % 2), from, to, frame));
        }
    }

    fn deliver(&mut self, to: u32, from: u32, frame: Frame) -> Result<(), String> {
        let now = self.now();
        let node = &mut self.nodes[to as usize];
        let map = node.dir.current_map().expect("elastic");
        let event = match frame {
            Frame::Lease { term, holder, version } => {
                Event::Lease { term, holder, map_version: version, mine: map.version }
            }
            Frame::AskVote { term, suspect } => {
                let latched = node.detector.status(suspect, now) == PeerStatus::Dead;
                self.ever[to as usize][suspect as usize] |= latched;
                Event::VoteRequest { from, term, suspect, latched }
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
        self.feed(to, event)
    }

    /// Install a TOPO through the fence, hold it to the one map of its
    /// version, prune the served set to the new map, and step.
    fn on_topo(&mut self, to: u32, from: u32, topo: Topo) -> Result<(), String> {
        let node = &mut self.nodes[to as usize];
        let installed = node.dir.install_fenced(topo.map.clone(), topo.term);
        if installed == FencedInstall::Stale {
            return Ok(());
        }
        if *self.maps.entry(topo.map.version).or_insert_with(|| topo.map.clone()) != topo.map {
            return Err(format!("two maps at version {}", topo.map.version));
        }
        if installed == FencedInstall::Installed {
            let mine = bits(&topo.map.shards_of(to));
            (node.served, node.ready) = (node.served & mine, node.ready & mine);
            self.moved = true;
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
        let node = &mut self.nodes[i as usize];
        match action {
            Action::Beat { term, holder } => {
                let version = node.dir.version();
                for j in (0..slots).filter(|&j| j != i) {
                    self.send(i, j, Frame::Lease { term, holder, version });
                }
            }
            Action::AskVote { to, term, suspect } => {
                self.send(i, to, Frame::AskVote { term, suspect })
            }
            Action::Vote { to, suspect, dead, .. } => {
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
            Action::Evicting { .. } | Action::Write { .. } | Action::Cut => {}
            Action::Commit(topo) => {
                let change = topo.change;
                self.out.evictions += matches!(change, Some(TopologyChange::Evict(_))) as u64;
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
                // Only the next slot keeps a ward.
                if ward.is_none_or(|w| (w + 1) % slots == i) {
                    let words = node.dir.current_map().expect("elastic").shard_words(TABLE, shard);
                    self.send(i, to, Frame::Words { shard, words });
                }
            }
            Action::MarkReady { shard } => node.ready |= 1 << shard,
            Action::Serve { shard, .. } => {
                if node.ready & 1 << shard == 0 {
                    return Err(format!("node {i} served shard {shard} before marking it ready"));
                }
                node.served |= 1 << shard;
                self.moved = true;
            }
            Action::Ack { to, shard, version } => self.send(i, to, Frame::Ack { shard, version }),
            Action::Migrated => {
                if self.killed.is_some() && self.out.migrated_after.is_none() {
                    self.out.migrated_after = self.since_fault();
                }
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
        };
        let (jitter_us, loss) = (1 + r(3000), r(101) as f64 / 1000.0);
        let evict_grace = Duration::from_millis(200 + r(1800));
        Scenario { n, fault, jitter_us, loss, evict_grace, seed }
    }

    fn cases() -> u64 {
        std::env::var("GRAVEL_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if cfg!(debug_assertions) { 64 } else { 1024 })
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

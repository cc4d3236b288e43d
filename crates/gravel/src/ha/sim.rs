//! N copies of the [`HaMachine`] in seeded virtual time: the one
//! harness behind the seeded HA suite (this module's tests) and
//! `fault_sweep`'s failover cells (DESIGN.md §18).
//!
//! Each node has a real [`FailureDetector`] fed explicit instants (15 ms
//! beats, seeded jitter), ticks its machine every 25 ms at a seeded
//! phase, and installs maps through a fenced [`Directory`]. The control
//! frames `gravel-node` sends — beats, votes, TOPO, map requests and
//! migration acks (a migration is reduced to its ack) — are lost with
//! the scenario's probability and otherwise land 5 or 10 ms later.
//! After every step: no term goes down, one member set per map version,
//! a takeover only on a quorum of members that had latched the holder,
//! no takeover or EVICT from a partition side below quorum.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use gravel_net::{splitmix, LinkFault};
use gravel_pgas::{Directory, FencedInstall, ShardMap};

use super::heartbeat::{FailureDetector, HeartbeatConfig, PeerStatus};
use super::lease::{quorum, INITIAL_TERM};
use super::machine::{Action, Event, HaMachine};
use super::rebalance::{RebalancePlan, TopologyChange};

/// A killed holder is succeeded within this much virtual time: the
/// detector's latch (~300 ms of silence) plus 150 ms vote rounds that
/// lost frames can repeat.
pub const TAKEOVER_BOUND: Duration = Duration::from_millis(1500);
/// Virtual time after the heal (or the eviction) before the end.
const SETTLE_MS: u64 = 2000;
const STEP_MS: u64 = 5;
const BEAT_MS: u64 = 15;
const TICK_MS: u64 = 25;

/// The one fault a scenario injects.
#[derive(Clone, Debug)]
pub enum Fault {
    /// `node` dies `at` into the run and stays dead.
    Kill { node: u32, at: Duration },
    /// A partition or one-way [`LinkFault`] over its window.
    Cut(LinkFault),
}

/// One schedule: N machines, one fault, beat jitter and frame loss.
#[derive(Clone, Debug)]
pub struct Scenario {
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
    /// When the fault strikes and when it heals — for a kill, by when
    /// the corpse should be evicted.
    fn window(&self) -> (Duration, Duration) {
        match &self.fault {
            Fault::Kill { at, .. } => (*at, *at + TAKEOVER_BOUND + self.evict_grace),
            Fault::Cut(LinkFault::Partition { from, until, .. })
            | Fault::Cut(LinkFault::OneWay { from, until, .. }) => (*from, *until),
            Fault::Cut(LinkFault::Delay { .. }) => (Duration::ZERO, Duration::ZERO),
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
}

/// What a run did and how it ended.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub takeovers: u64,
    /// From the fault to the first takeover.
    pub takeover_after: Option<Duration>,
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
    /// Whether every live node's map has dropped the killed node.
    pub victim_evicted: bool,
}

#[derive(Clone)]
enum Frame {
    Lease { term: u64, holder: u32, version: u64 },
    AskVote { term: u64, suspect: u32 },
    Vote { suspect: u32, dead: bool },
    Topo { term: u64, map: ShardMap, plan: Option<RebalancePlan> },
    MapReq,
    Ack(u32),
}

struct Node {
    machine: HaMachine,
    detector: FailureDetector,
    dir: Directory,
    term: u64,
    phase: u64,
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
    /// The member set of every map version installed anywhere.
    maps: HashMap<u64, Vec<u32>>,
    /// `ever[i][p]`: node `i`'s detector has latched `p` dead.
    ever: Vec<Vec<bool>>,
    out: Outcome,
}

/// Run `sc` to its end; `Err` names the first broken invariant.
pub fn run(sc: &Scenario) -> Result<Outcome, String> {
    let mut sim = Sim::new(sc);
    sim.run_until(sc.window().1.as_millis() as u64 + SETTLE_MS)?;
    Ok(sim.outcome())
}

impl<'a> Sim<'a> {
    pub fn new(sc: &'a Scenario) -> Sim<'a> {
        let (base, mut rng) = (Instant::now(), sc.seed);
        let beat = Duration::from_millis(BEAT_MS);
        // gravel-node's detector.
        let hb =
            HeartbeatConfig { interval: beat, suspect_phi: 4.0, dead_phi: 8.0, min_samples: 3 };
        let members: Vec<u32> = (0..sc.n as u32).collect();
        let node = |me: u32, phase: u64| {
            let detector = FailureDetector::new(hb.clone());
            members.iter().filter(|&&p| p != me).for_each(|&p| detector.track(p, base));
            let dir = Directory::elastic(64, ShardMap::initial(&members, 16));
            let machine = HaMachine::new(me, 0, sc.evict_grace, beat);
            Node { machine, detector, dir, term: INITIAL_TERM, phase }
        };
        let nodes = (0..sc.n as u32)
            .map(|me| node(me, splitmix(&mut rng) % (TICK_MS / STEP_MS) * STEP_MS))
            .collect();
        let (maps, ever) = (HashMap::from([(1, members.clone())]), vec![vec![false; sc.n]; sc.n]);
        Sim { sc, base, rng, t: 0, nodes, wire: Vec::new(), maps, ever, out: Outcome::default() }
    }

    /// Step virtual time up to `end` ms.
    pub fn run_until(&mut self, end: u64) -> Result<(), String> {
        while self.t < end {
            self.t += STEP_MS;
            self.step().map_err(|e| format!("{:?} at {} ms: {e}", self.sc, self.t))?;
        }
        Ok(())
    }

    /// The end state as it stands.
    pub fn outcome(&self) -> Outcome {
        let live: Vec<&Node> =
            self.nodes.iter().zip(0..).filter(|&(_, i)| self.alive(i)).map(|(n, _)| n).collect();
        let views: BTreeSet<(u64, u32)> = live.iter().map(|n| n.machine.lease()).collect();
        let versions: BTreeSet<u64> = live.iter().map(|n| n.dir.version()).collect();
        let latched = live.iter().flat_map(|n| n.detector.dead_peers());
        let map = |n: &&Node| n.dir.current_map().expect("elastic");
        Outcome {
            forked_maps: views.len(),
            versions: versions.len(),
            latches: latched.filter(|&p| self.alive(p)).count(),
            term: views.iter().map(|v| v.0).max().unwrap_or(0),
            victim_evicted: match self.sc.fault {
                Fault::Kill { node, .. } => live.iter().all(|n| !map(n).is_member(node)),
                Fault::Cut(_) => false,
            },
            ..self.out.clone()
        }
    }

    fn now(&self) -> Instant {
        self.base + Duration::from_millis(self.t)
    }

    fn alive(&self, node: u32) -> bool {
        let t = Duration::from_millis(self.t);
        !matches!(self.sc.fault, Fault::Kill { node: v, at } if v == node && t >= at)
    }

    fn up(&self, from: u32, to: u32) -> bool {
        let at = Duration::from_millis(self.t);
        let cut = matches!(&self.sc.fault, Fault::Cut(f) if f.cuts(from, to, at));
        self.alive(from) && self.alive(to) && !cut
    }

    fn step(&mut self) -> Result<(), String> {
        let (t, now) = (self.t, self.now());
        let (due, later) = std::mem::take(&mut self.wire).into_iter().partition(|w| w.0 <= t);
        self.wire = later;
        for (_, from, to, frame) in due {
            if self.up(from, to) {
                self.deliver(to, from, frame)?;
            }
        }
        let live: Vec<u32> = (0..self.sc.n as u32).filter(|&i| self.alive(i)).collect();
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
            if (t + phase).is_multiple_of(TICK_MS) {
                let det = &self.nodes[i as usize].detector;
                let silence = |p| (p, det.silence(p, now).unwrap_or(Duration::MAX));
                let dead: Vec<(u32, Duration)> =
                    det.dead_peers().into_iter().map(silence).collect();
                let map = self.nodes[i as usize].dir.current_map().expect("elastic");
                self.feed(i, Event::Tick { map: &map, dead: &dead, leave: false })?;
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
        let event = match frame {
            Frame::Lease { term, holder, version } => {
                Event::Lease { term, holder, map_version: version, mine: node.dir.version() }
            }
            Frame::AskVote { term, suspect } => {
                let latched = node.detector.status(suspect, now) == PeerStatus::Dead;
                self.ever[to as usize][suspect as usize] |= latched;
                Event::VoteRequest { from, term, suspect, latched }
            }
            Frame::Vote { suspect, dead } => Event::Vote { from, suspect, dead },
            Frame::Topo { term, map, plan } => {
                if node.dir.install_fenced(map.clone(), term) == FencedInstall::Stale {
                    return Ok(());
                }
                let members = self.maps.entry(map.version).or_insert_with(|| map.members.clone());
                if *members != map.members {
                    return Err(format!("two maps at version {}", map.version));
                }
                let moves = plan.iter().flat_map(|p| &p.moves);
                let acks: Vec<u32> = moves.filter(|m| m.to == to).map(|m| m.shard).collect();
                self.feed(to, Event::Topo { term, from, plan })?;
                acks.into_iter().for_each(|shard| self.send(to, from, Frame::Ack(shard)));
                return Ok(());
            }
            Frame::MapReq => {
                if node.machine.is_holder() {
                    let map = (*node.dir.current_map().expect("elastic")).clone();
                    let term = node.machine.lease().0;
                    self.send(to, from, Frame::Topo { term, map, plan: None });
                }
                return Ok(());
            }
            Frame::Ack(shard) => Event::MigrateAck(shard),
        };
        self.feed(to, event)
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
        let others: Vec<u32> = (0..self.sc.n as u32).filter(|&j| j != i).collect();
        match action {
            Action::Beat { term, holder } => {
                let version = self.nodes[i as usize].dir.version();
                for j in others {
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
            Action::Revive { peer } => self.nodes[i as usize].detector.reset_peer(peer, self.now()),
            Action::TookOver { from, .. } => {
                let map = self.nodes[i as usize].dir.current_map().expect("elastic");
                let ever = |&&m: &&u32| self.ever[m as usize][from as usize];
                let latched = map.members.iter().filter(ever).count();
                if latched < quorum(map.members.len()) || self.sc.in_minority(i, self.t) {
                    return Err(format!("node {i} took the lease from {from} on {latched} latches"));
                }
                self.out.takeovers += 1;
                let after = Duration::from_millis(self.t) - self.sc.window().0;
                self.out.takeover_after.get_or_insert(after);
            }
            Action::Vetoed { .. } => self.out.vetoes += 1,
            Action::Evicting { peer } if self.sc.in_minority(i, self.t) => {
                return Err(format!("node {i} on a minority side proposed evicting {peer}"));
            }
            Action::Evicting { .. } | Action::Migrated => {}
            Action::Commit { term, plan } | Action::Redrive { term, plan } => {
                self.out.evictions += matches!(plan.change, TopologyChange::Evict(_)) as u64;
                let topo = Frame::Topo { term, map: plan.map.clone(), plan: Some(plan) };
                others.into_iter().for_each(|j| self.send(i, j, topo.clone()));
                self.deliver(i, i, topo)?;
            }
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
    }

    /// Draw N ∈ 3..=7 (4..=7 for a one-way cut: with one other voter a
    /// round can be neither confirmed nor denied), the fault at 400–1000
    /// ms (a cut lasts 1.5–3 s), jitter up to 3 ms, loss up to 10 % and
    /// an evict grace of 0.2–2 s.
    fn seeded(family: Family, seed: u64) -> Scenario {
        let mut st = seed ^ ((family as u64) << 56);
        let mut r = move |k: u64| splitmix(&mut st) % k;
        let n = if family == Family::OneWay { 4 + r(4) } else { 3 + r(5) } as usize;
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
        let sc = seeded(family, seed);
        let o = run(&sc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let fail = |what: &str| panic!("seed {seed}: {sc:?}: {what}; {o:?}");
        if o.forked_maps != 1 || o.versions != 1 || o.latches != 0 {
            fail("live nodes did not settle on one lease, one map and no latch");
        }
        match family {
            Family::HolderKilled if o.takeover_after.is_none_or(|d| d > TAKEOVER_BOUND) => {
                fail("the killed holder was not succeeded in time")
            }
            Family::HolderKilled | Family::MemberKilled if !o.victim_evicted => {
                fail("the dead member was never evicted")
            }
            Family::MemberKilled if o.takeovers > 0 => fail("a live holder was taken over"),
            Family::OneWay if o.term != INITIAL_TERM || o.evictions > 0 => {
                fail("a one-way cut moved the term or evicted")
            }
            Family::OneWay if o.vetoes == 0 => fail("a one-way suspicion was never vetoed"),
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

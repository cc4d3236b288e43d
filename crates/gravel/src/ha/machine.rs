//! The elastic control plane (DESIGN.md §18): every lease, vote,
//! takeover, eviction, handoff, commit and shard-migration decision of
//! an elastic node as one pure `step(now, event) -> Vec<Action>`. It
//! owns the node's [`LeaseState`], [`VoteLedger`], [`Rebalancer`], pull
//! table, donor registry and timers; it reads no clock, holds no heap
//! and sends nothing. The caller — `gravel-node`, or [`sim`](super::sim)
//! for N copies in virtual time — feeds it events, with the shards its
//! data plane serves, and performs its actions in order.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use gravel_pgas::{ShardMap, ShardMove};

use super::lease::{successor, LeaseState, VoteLedger};
use super::rebalance::{RebalancePlan, Rebalancer, TopologyChange};

/// How often the holder beats.
pub const LEASE_BEAT_EVERY: Duration = Duration::from_millis(100);
/// How often latched deaths are (re-)put to the vote.
pub const VOTE_ROUND_EVERY: Duration = Duration::from_millis(150);
/// A fresh holder evicts, hands off and commits only this long after
/// becoming one, so a live higher-term holder's beats can demote it
/// first. Its beats go out at once: stale ones are fenced by term.
pub const HOLDER_STABILIZE: Duration = Duration::from_millis(300);
/// Ticks a latched peer's beats must have resumed before the revive
/// sweep un-latches it (a partition heals without a reconnect).
pub const REVIVE_STREAK: u32 = 2;
/// How often pending pulls are re-requested: a pull is idempotent, so
/// a lost request, lost words or a donor's restart cost one period.
pub const PULL_EVERY: Duration = Duration::from_millis(100);
/// A non-evict pull unanswered this long also knocks the donor's ward
/// keeper: the donor may have died mid-migration. The keeper answers
/// only once its own detector latched the donor, so a merely slow
/// donor is never shadow-served.
pub const WARD_FALLBACK: Duration = Duration::from_millis(1000);
/// How often the holder re-broadcasts an unfinished migration's
/// outstanding moves: a lost ack or TOPO costs one period, not the plan.
pub const REDRIVE_EVERY: Duration = Duration::from_millis(500);
/// How often a node knocks at the holder: `MAP_REQ` until a TOPO
/// arrives, `JOIN_REQ` until a joiner is a member, `LEAVE_REQ` once
/// leaving (a holder hands the lease off first).
pub const KNOCK_EVERY: Duration = Duration::from_millis(250);

/// A TOPO frame: the map to install under `term`, the change it
/// commits (`None` in an idle holder's snapshot, the answer to a map
/// or join request) and the shard moves still outstanding under it.
/// An EVICT's new owners pull from the dead owner's ward keeper.
#[derive(Clone, Debug, PartialEq)]
pub struct Topo {
    pub term: u64,
    pub change: Option<TopologyChange>,
    pub map: ShardMap,
    pub moves: Vec<ShardMove>,
}

impl Topo {
    fn of(term: u64, plan: &RebalancePlan) -> Topo {
        Topo { term, change: Some(plan.change), map: plan.map.clone(), moves: plan.moves.clone() }
    }
}

/// One input to [`HaMachine::step`]. `map` is always the map the
/// node's directory has installed.
pub enum Event<'a> {
    /// The periodic tick: the detector's latched peers with their
    /// silence, and whether we were asked to leave.
    Tick { map: &'a ShardMap, dead: &'a [(u32, Duration)], leave: bool },
    /// A lease beat for a map at `map_version`; ours is at `mine`.
    Lease { term: u64, holder: u32, map_version: u64, mine: u64 },
    /// A TOPO frame from `from` passed the map's fence; `served`: the
    /// shards our data plane serves.
    Topo { from: u32, topo: &'a Topo, map: &'a ShardMap, served: &'a [u32] },
    /// `from` asks for our verdict; `latched`: our detector holds it.
    VoteRequest { from: u32, term: u64, suspect: u32, latched: bool },
    Vote { from: u32, suspect: u32, dead: bool },
    /// `from` asks the holder for its map; with `join`, to admit it.
    MapRequest { from: u32, join: Option<u32>, map: &'a ShardMap },
    /// A LEAVE request.
    Propose(TopologyChange),
    /// `from` pulls `shard` from our live heap.
    Pull { from: u32, shard: u32 },
    /// `from` pulls `shard` out of our reconstruction of `ward`;
    /// `latched`: our detector holds the ward dead.
    WardPull { from: u32, shard: u32, ward: u32, latched: bool, map: &'a ShardMap },
    /// `words` words of `shard` arrived; `served`: we serve it already.
    Words { shard: u32, words: usize, served: bool, map: &'a ShardMap },
    /// A shard's new owner acked its migration under map `version`.
    MigrateAck { shard: u32, version: u64 },
}

/// One effect of a step, for the caller to perform.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Broadcast a lease beat for `(term, holder)`: us, or our
    /// successor on a handoff.
    Beat { term: u64, holder: u32 },
    AskVote { to: u32, term: u64, suspect: u32 },
    Vote { to: u32, term: u64, suspect: u32, dead: bool },
    /// Knock at the holder `to`: for its map, to be admitted, to leave.
    RequestMap { to: u32 },
    RequestJoin { to: u32 },
    RequestLeave { to: u32 },
    /// `peer` beats again: reset the detector's latched verdict.
    Revive { peer: u32 },
    /// We took the lease from `from`, quorum-confirmed dead.
    TookOver { term: u64, from: u32 },
    /// Live replies denied `suspect`'s death (once per round).
    Vetoed { suspect: u32 },
    /// An EVICT of `peer` was queued.
    Evicting { peer: u32 },
    /// Cut an epoch, then broadcast and install the TOPO.
    Commit(Topo),
    /// Re-broadcast and install a committed plan's outstanding moves
    /// (after a takeover, or every [`REDRIVE_EVERY`]): no cut.
    Redrive(Topo),
    /// Answer a map or join request.
    SendTopo { to: u32, topo: Topo },
    /// Ask `to` for `shard`'s words: the donor itself, or with `ward`
    /// the keeper of the dead donor's ward.
    Pull { to: u32, shard: u32, ward: Option<u32> },
    /// Send `to` `shard`'s words: from our live heap, or with `ward`
    /// from our reconstruction of that ward.
    Ship { to: u32, shard: u32, ward: Option<u32> },
    /// Install the arrived words: write them, mark the shard ready for
    /// the next cut, cut, serve, ack — in this order, so a kill between
    /// any two is re-pulled or re-acked (DESIGN.md §16).
    Write { shard: u32 },
    MarkReady { shard: u32 },
    Cut,
    /// Serve `shard`, pulled for `waited`.
    Serve { shard: u32, waited: Duration },
    /// Tell `to` — the holder, or a TOPO's issuer — that we serve
    /// `shard` under map `version`.
    Ack { to: u32, shard: u32, version: u64 },
    /// The in-flight plan's last shard was acked.
    Migrated,
}

/// One pending inbound shard: its old owner (the dead node whose ward
/// keeper we pull from when `evict`), and since when.
struct Pending {
    from: u32,
    evict: bool,
    since: Instant,
}

/// One node's control-plane state machine. See the module docs.
pub struct HaMachine {
    me: u32,
    /// Process slots: a ward's keeper is the next slot.
    capacity: u32,
    /// Heap words: what an arriving shard must hold.
    table: usize,
    /// A slot outside the boot map: it knocks to be admitted.
    joiner: bool,
    /// `--evict-grace-ms`: how long a member stays latched before the
    /// holder proposes its EVICT.
    evict_grace: Duration,
    /// Silence under which a latched peer beats again: 3 beat intervals.
    revive_silence: Duration,
    lease: LeaseState,
    votes: VoteLedger,
    rebalancer: Rebalancer,
    /// The last moves-carrying plan accepted: a takeover's seed.
    last_plan: Option<RebalancePlan>,
    /// Our map is known current (the boot holder's is): until then a
    /// tick only knocks for the map.
    synced: bool,
    /// Inbound shards not yet served, by shard.
    pulls: BTreeMap<u32, Pending>,
    /// Shards we donate: shard → the new owner our last TOPO named.
    donating: BTreeMap<u32, u32>,
    holder_since: Option<Instant>,
    last_beat: Option<Instant>,
    last_vote: Option<Instant>,
    last_pull: Option<Instant>,
    last_redrive: Option<Instant>,
    last_knock: Option<Instant>,
    dead_since: HashMap<u32, Instant>,
    revive_streak: HashMap<u32, u32>,
}

impl HaMachine {
    /// Boot state under the `boot` map, in a cluster of `capacity`
    /// slots over a `table`-word heap: its lowest member holds the
    /// initial term; failure detectors beat every `beat`.
    pub fn new(
        me: u32,
        boot: &ShardMap,
        capacity: usize,
        table: usize,
        evict_grace: Duration,
        beat: Duration,
    ) -> Self {
        let lease = LeaseState::new(successor(&boot.members, &[]).expect("a boot member"));
        HaMachine {
            me,
            capacity: capacity as u32,
            table,
            joiner: !boot.is_member(me),
            evict_grace,
            revive_silence: beat * 3,
            synced: lease.current().1 == me,
            lease,
            votes: VoteLedger::default(),
            rebalancer: Rebalancer::default(),
            last_plan: None,
            pulls: BTreeMap::new(),
            donating: BTreeMap::new(),
            holder_since: None,
            last_beat: None,
            last_vote: None,
            last_pull: None,
            last_redrive: None,
            last_knock: None,
            dead_since: HashMap::new(),
            revive_streak: HashMap::new(),
        }
    }

    /// `(term, holder)` as accepted.
    pub fn lease(&self) -> (u64, u32) {
        self.lease.current()
    }

    pub fn is_holder(&self) -> bool {
        self.lease.current().1 == self.me
    }

    pub fn rebalancer(&self) -> &Rebalancer {
        &self.rebalancer
    }

    /// Whether our map is known current (a TOPO or a beat for it came):
    /// a restarted node serves no data under its boot map until then.
    pub fn synced(&self) -> bool {
        self.synced
    }

    /// Whether an inbound shard is still pending.
    pub fn pulling(&self) -> bool {
        !self.pulls.is_empty()
    }

    /// Feed one event at `now`; returns what to do, in order.
    pub fn step(&mut self, now: Instant, event: Event<'_>) -> Vec<Action> {
        let mut out = Vec::new();
        let holder = self.lease.current().1;
        match event {
            Event::Tick { map, dead, leave } => self.tick(now, map, dead, leave, &mut out),
            // A current beat for a newer map asks for it; one for ours
            // proves ours current, so a node whose knocks went
            // unanswered syncs all the same.
            Event::Lease { term, holder, map_version, mine } => {
                if self.lease.observe(term, holder) {
                    if map_version > mine {
                        out.push(Action::RequestMap { to: holder });
                    }
                    if map_version == mine {
                        self.sync();
                    }
                }
            }
            Event::Topo { from, topo, map, served } => {
                self.on_topo(now, from, topo, map, served, &mut out)
            }
            Event::VoteRequest { from, term, suspect, latched } => {
                // Advisory: the requester applies the quorum.
                let dead = latched && suspect != self.me;
                out.push(Action::Vote { to: from, term, suspect, dead });
            }
            Event::Vote { from, suspect, dead } => self.votes.record(suspect, from, dead),
            // Only the holder answers: a deposed one staying silent
            // keeps the requester knocking until a beat redirects it.
            Event::MapRequest { from, join, map } if self.is_holder() => {
                if let Some(n) = join.filter(|&n| n < self.capacity) {
                    self.rebalancer.propose(TopologyChange::Join(n));
                }
                out.push(Action::SendTopo { to: from, topo: self.snapshot(map) });
            }
            Event::MapRequest { .. } => {}
            // The holder's own LEAVE waits for its handoff.
            Event::Propose(change) => {
                if self.is_holder() && change != TopologyChange::Leave(self.me) {
                    self.rebalancer.propose(change);
                }
            }
            // Any other copy of a shard we hold may be stale: only the
            // new owner our TOPO named is served.
            Event::Pull { from, shard } => {
                if self.donating.get(&shard) == Some(&from) {
                    out.push(Action::Ship { to: from, shard, ward: None });
                }
            }
            // A ward still a member is served only once our own
            // detector latched it: a donor killed mid-migration, whose
            // eviction waits for this very pull.
            Event::WardPull { from, shard, ward, latched, map } => {
                if (!map.is_member(ward) || latched) && map.owner_of_shard(shard) == from {
                    out.push(Action::Ship { to: from, shard, ward: Some(ward) });
                }
            }
            Event::Words { shard, words, served, map } if map.owner_of_shard(shard) == self.me => {
                if served {
                    // Our ack raced a re-request, or was lost: re-ack.
                    self.pulls.remove(&shard);
                    out.push(Action::Ack { to: holder, shard, version: map.version });
                } else if words == map.shard_words(self.table, shard) {
                    if let Some(p) = self.pulls.remove(&shard) {
                        out.extend([
                            Action::Write { shard },
                            Action::MarkReady { shard },
                            Action::Cut,
                            Action::Serve { shard, waited: now.saturating_duration_since(p.since) },
                            Action::Ack { to: holder, shard, version: map.version },
                        ]);
                    }
                }
            }
            Event::Words { .. } => {}
            // An ack of an earlier plan's move of the same shard must
            // not complete this one's.
            Event::MigrateAck { shard, version } => {
                let current = self.rebalancer.migrating().is_some_and(|p| p.map.version == version);
                if current && self.rebalancer.note_shard_ready(shard) {
                    out.push(Action::Migrated);
                }
            }
        }
        out
    }

    /// Adopt the issuer's claim and cache the plan; re-ack the moves
    /// to us already served (a kill between our cut and our ack, or a
    /// re-drive), register the rest as pulls, and reset the donor
    /// registry to the moves from us.
    fn on_topo(
        &mut self,
        now: Instant,
        from: u32,
        topo: &Topo,
        map: &ShardMap,
        served: &[u32],
        out: &mut Vec<Action>,
    ) {
        // The frame is current, so its issuer's claim is too.
        self.lease.observe(topo.term, from);
        self.sync();
        if let Some(change) = topo.change.filter(|_| !topo.moves.is_empty()) {
            let (map, moves) = (topo.map.clone(), topo.moves.clone());
            self.last_plan = Some(RebalancePlan { change, map, moves });
        }
        let me = self.me;
        self.pulls.retain(|&s, _| map.owner_of_shard(s) == me);
        let evict = matches!(topo.change, Some(TopologyChange::Evict(_)));
        for m in topo.moves.iter().filter(|m| m.to == me && map.owner_of_shard(m.shard) == me) {
            if served.contains(&m.shard) {
                self.pulls.remove(&m.shard);
                out.push(Action::Ack { to: from, shard: m.shard, version: map.version });
            } else {
                self.pulls.entry(m.shard).or_insert(Pending { from: m.from, evict, since: now });
            }
        }
        let donating = topo.moves.iter().filter(|m| m.from == me);
        self.donating = donating.map(|m| (m.shard, m.to)).collect();
        self.request_pulls(now, out);
    }

    /// Our map is current: a newly synced node knocks (to join) at once.
    fn sync(&mut self) {
        if !std::mem::replace(&mut self.synced, true) {
            self.last_knock = None;
        }
    }

    /// Ask for every pending shard: an evicted donor's from its ward
    /// keeper, anyone else's from the donor — and from the keeper too
    /// once unanswered past [`WARD_FALLBACK`].
    fn request_pulls(&self, now: Instant, out: &mut Vec<Action>) {
        for (&shard, p) in &self.pulls {
            let keeper = (p.from + 1) % self.capacity;
            let keeper = Action::Pull { to: keeper, shard, ward: Some(p.from) };
            if !p.evict {
                out.push(Action::Pull { to: p.from, shard, ward: None });
            }
            if p.evict || now.saturating_duration_since(p.since) >= WARD_FALLBACK {
                out.push(keeper);
            }
        }
    }

    /// The holder's answer to a map or join request: the installed map
    /// plus — mid-migration — the plan's still-outstanding moves, so a
    /// restarted participant resumes exactly where the plan stands.
    fn snapshot(&self, map: &ShardMap) -> Topo {
        let term = self.lease.current().0;
        let rb = &self.rebalancer;
        match rb.migrating() {
            Some(plan) => {
                let mut t = Topo::of(term, plan);
                t.moves.retain(|m| rb.outstanding().contains(&m.shard));
                Topo { map: map.clone(), ..t }
            }
            None => Topo { term, change: None, map: map.clone(), moves: Vec::new() },
        }
    }

    fn tick(
        &mut self,
        now: Instant,
        map: &ShardMap,
        dead: &[(u32, Duration)],
        leave: bool,
        out: &mut Vec<Action>,
    ) {
        let (me, members) = (self.me, &map.members);
        let due = |since: &mut Option<Instant>, every| {
            let due = since.is_none_or(|t| now.duration_since(t) >= every);
            if due {
                *since = Some(now);
            }
            due
        };
        let (term, holder) = self.lease.current();
        let member = map.is_member(me);
        if due(&mut self.last_knock, KNOCK_EVERY) {
            if !self.synced && holder != me {
                out.push(Action::RequestMap { to: holder });
            } else if self.joiner && self.synced && !member && !leave {
                // Never once leaving, or the knock would re-admit the
                // node right after its LEAVE commits.
                out.push(Action::RequestJoin { to: holder });
            } else if leave && member && holder != me {
                out.push(Action::RequestLeave { to: holder });
            }
        }
        if !self.synced {
            return;
        }
        self.pulls.retain(|&s, _| map.owner_of_shard(s) == me);
        if due(&mut self.last_pull, PULL_EVERY) {
            self.request_pulls(now, out);
        }
        if !self.is_holder() {
            self.holder_since = None;
        }

        // Revive sweep: sockets swallow a partition's frames while the
        // stream stays up, so no reconnect resets a latched verdict.
        // Safe: eviction is quorum-gated, so an early un-latch delays it.
        let mut latched = Vec::new();
        for &(peer, silence) in dead {
            let streak = self.revive_streak.entry(peer).or_insert(0);
            *streak = if silence < self.revive_silence { *streak + 1 } else { 0 };
            if *streak >= REVIVE_STREAK {
                self.votes.clear(peer);
                out.push(Action::Revive { peer });
            } else {
                latched.push(peer);
            }
        }
        self.revive_streak.retain(|p, _| latched.contains(p));
        self.dead_since.retain(|p, _| latched.contains(p));

        // Vote rounds: our own yes, a poll of the other live members. A
        // denied round is a veto: our link is down, not the suspect.
        if member && due(&mut self.last_vote, VOTE_ROUND_EVERY) {
            for &peer in latched.iter().filter(|&&p| map.is_member(p)) {
                self.votes.record(peer, me, true);
                let asked: Vec<u32> = members
                    .iter()
                    .copied()
                    .filter(|&m| m != me && m != peer && !latched.contains(&m))
                    .collect();
                out.extend(asked.iter().map(|&to| Action::AskVote { to, term, suspect: peer }));
                if self.votes.denied(peer, members, &asked) && self.votes.note_veto(peer) {
                    out.push(Action::Vetoed { suspect: peer });
                }
            }
        }

        // Takeover, only if the quorum-confirmed dead set makes us the
        // lowest live member: an unconfirmed lower candidate keeps us
        // waiting rather than racing it. A cached plan of the installed
        // map is an interrupted migration: re-seed and re-drive it.
        let confirmed: Vec<u32> =
            latched.iter().copied().filter(|&p| self.votes.confirmed(p, members)).collect();
        if holder != me
            && member
            && confirmed.contains(&holder)
            && successor(members, &confirmed) == Some(me)
        {
            let term = self.lease.bump(me);
            (self.holder_since, self.last_beat) = (Some(now), Some(now));
            out.push(Action::TookOver { term, from: holder });
            out.push(Action::Beat { term, holder: me });
            if let Some(plan) = self.last_plan.clone().filter(|p| p.map.version == map.version) {
                out.push(Action::Redrive(Topo::of(term, &plan)));
                self.rebalancer.seed_in_flight(plan);
                self.last_redrive = Some(now);
            }
            return;
        }
        if !self.is_holder() {
            return;
        }
        let since = *self.holder_since.get_or_insert(now);
        if due(&mut self.last_beat, LEASE_BEAT_EVERY) {
            out.push(Action::Beat { term, holder: me });
        }
        if now.duration_since(since) < HOLDER_STABILIZE {
            return;
        }

        // Quorum-gated evictions of members latched past the grace, but
        // never one the in-flight plan moves shards from or to.
        for &peer in latched.iter().filter(|&&p| map.is_member(p)) {
            let since = *self.dead_since.entry(peer).or_insert(now);
            let entangled = self
                .rebalancer
                .migrating()
                .is_some_and(|p| p.moves.iter().any(|m| m.from == peer || m.to == peer));
            if now.duration_since(since) >= self.evict_grace
                && confirmed.contains(&peer)
                && !entangled
                && self.rebalancer.propose(TopologyChange::Evict(peer))
            {
                out.push(Action::Evicting { peer });
            }
        }

        // Drain-leave: once quiescent, hand the lease to the successor,
        // which then commits our LEAVE.
        let handoff = leave && members.len() > 1 && self.rebalancer.is_quiescent();
        if let Some(next) = successor(members, &[me]).filter(|_| handoff) {
            out.push(Action::Beat { term: self.lease.bump(next), holder: next });
        } else if let Some(plan) = self.rebalancer.boundary_tick(map) {
            // Epoch-boundary commit, at most one change in flight.
            if let TopologyChange::Evict(n) = plan.change {
                self.votes.clear(n);
                self.dead_since.remove(&n);
            }
            self.last_redrive = Some(now);
            out.push(Action::Commit(Topo::of(term, &plan)));
        } else if self.rebalancer.migrating().is_some()
            && due(&mut self.last_redrive, REDRIVE_EVERY)
        {
            out.push(Action::Redrive(self.snapshot(map)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);
    /// Heap words: shard `s` of 8 holds 8 of them.
    const TABLE: usize = 64;

    /// Node `me` of a cluster booted with members `0..4` in 5 slots.
    fn machine(me: u32) -> HaMachine {
        let boot = ShardMap::initial(&[0, 1, 2, 3], 8);
        HaMachine::new(me, &boot, 5, TABLE, 500 * MS, 15 * MS)
    }

    fn tick(
        m: &mut HaMachine,
        now: Instant,
        map: &ShardMap,
        dead: &[(u32, Duration)],
        leave: bool,
    ) -> Vec<Action> {
        m.step(now, Event::Tick { map, dead, leave })
    }

    /// The TOPO that commits node 4's JOIN of the boot map.
    fn join() -> Topo {
        let (map, moves) = ShardMap::initial(&[0, 1, 2, 3], 8).rebalance_join(4).unwrap();
        Topo { term: 1, change: Some(TopologyChange::Join(4)), map, moves }
    }

    fn topo(m: &mut HaMachine, now: Instant, t: &Topo, served: &[u32]) -> Vec<Action> {
        m.step(now, Event::Topo { from: 0, topo: t, map: &t.map, served })
    }

    #[test]
    fn arrived_words_install_in_the_kill_window_order() {
        let t = join();
        let mv = t.moves[0];
        let (mut m, t0) = (machine(4), Instant::now());
        let pulls = topo(&mut m, t0, &t, &[]);
        assert!(pulls.contains(&Action::Pull { to: mv.from, shard: mv.shard, ward: None }));
        let words = |words, served| Event::Words { shard: mv.shard, words, served, map: &t.map };
        assert!(m.step(t0, words(7, false)).is_empty(), "a short shard is refused");
        let shard = mv.shard;
        assert_eq!(
            m.step(t0 + 40 * MS, words(8, false)),
            [
                Action::Write { shard },
                Action::MarkReady { shard },
                Action::Cut,
                Action::Serve { shard, waited: 40 * MS },
                Action::Ack { to: 0, shard, version: 2 },
            ]
        );
        // A duplicate delivery only re-acks; so does a re-driven TOPO,
        // to its issuer.
        assert_eq!(m.step(t0, words(8, true)), [Action::Ack { to: 0, shard, version: 2 }]);
        let again = topo(&mut m, t0, &t, &[shard]);
        assert!(again.contains(&Action::Ack { to: 0, shard, version: 2 }), "{again:?}");
        assert!(!again.iter().any(|a| matches!(a, Action::Pull { shard: s, .. } if *s == shard)));
    }

    #[test]
    fn a_stalled_pull_knocks_the_ward_keeper_only_after_the_fallback() {
        let t = join();
        let mv = t.moves[0];
        let (mut m, t0) = (machine(4), Instant::now());
        topo(&mut m, t0, &t, &[]);
        let keeper = Action::Pull { to: (mv.from + 1) % 5, shard: mv.shard, ward: Some(mv.from) };
        let mut at = t0;
        while at < t0 + WARD_FALLBACK {
            let out = tick(&mut m, at, &t.map, &[], false);
            assert!(!out.contains(&keeper), "escalated {:?} in: {out:?}", at - t0);
            at += 25 * MS;
        }
        let out = tick(&mut m, t0 + WARD_FALLBACK + 100 * MS, &t.map, &[], false);
        assert!(out.contains(&keeper), "{out:?}");
        assert!(out.contains(&Action::Pull { to: mv.from, shard: mv.shard, ward: None }));
    }

    #[test]
    fn a_donor_ships_only_to_the_owner_its_topo_named() {
        let t = join();
        let mv = t.moves[0];
        let (mut m, t0) = (machine(mv.from), Instant::now());
        let pull = |m: &mut HaMachine, from| m.step(t0, Event::Pull { from, shard: mv.shard });
        assert!(pull(&mut m, 4).is_empty(), "no TOPO yet: no donation");
        topo(&mut m, t0, &t, &[]);
        assert!(pull(&mut m, (mv.from + 1) % 4).is_empty(), "not the new owner");
        assert_eq!(pull(&mut m, 4), [Action::Ship { to: 4, shard: mv.shard, ward: None }]);
        // A snapshot with the move done resets the registry.
        let done = Topo { change: None, moves: Vec::new(), ..t.clone() };
        topo(&mut m, t0, &done, &[]);
        assert!(pull(&mut m, 4).is_empty());
    }

    #[test]
    fn a_keeper_ships_a_ward_only_once_evicted_or_latched() {
        let boot = ShardMap::initial(&[0, 1, 2, 3], 8);
        let (evicted, moves) = boot.rebalance_leave(2).unwrap();
        let mv = moves[0];
        let (mut m, t0) = (machine(3), Instant::now());
        let ask = |m: &mut HaMachine, from, latched, map| {
            m.step(t0, Event::WardPull { from, shard: mv.shard, ward: 2, latched, map })
        };
        let ship = [Action::Ship { to: mv.to, shard: mv.shard, ward: Some(2) }];
        assert!(ask(&mut m, mv.to, false, &boot).is_empty(), "a live member's ward");
        assert!(ask(&mut m, mv.to, true, &boot).is_empty(), "not the owner under this map");
        assert_eq!(ask(&mut m, mv.to, false, &evicted), ship, "the ward was evicted");
        assert!(ask(&mut m, 4, false, &evicted).is_empty(), "not the shard's owner");
        // A JOIN's donor still a member: only our latch lets it out.
        let t = join();
        let jm = t.moves[0];
        let ask = |latched| {
            let (shard, ward) = (jm.shard, jm.from);
            machine(3).step(t0, Event::WardPull { from: 4, shard, ward, latched, map: &t.map })
        };
        assert!(ask(false).is_empty());
        assert_eq!(ask(true), [Action::Ship { to: 4, shard: jm.shard, ward: Some(jm.from) }]);
    }

    #[test]
    fn a_joiner_knocks_for_the_map_then_to_join_and_the_holder_answers() {
        let boot = ShardMap::initial(&[0, 1, 2, 3], 8);
        let t0 = Instant::now();
        let mut j = machine(4);
        assert!(!j.synced());
        assert_eq!(tick(&mut j, t0, &boot, &[], false), [Action::RequestMap { to: 0 }]);
        assert!(tick(&mut j, t0 + 100 * MS, &boot, &[], false).is_empty(), "one knock a period");
        let mut h = machine(0);
        assert!(h.synced(), "the boot holder needs no map");
        let join =
            |h: &mut HaMachine, join| h.step(t0, Event::MapRequest { from: 4, join, map: &boot });
        let [Action::SendTopo { to: 4, topo: snap }] = &join(&mut h, None)[..] else {
            panic!("the holder answers a map request")
        };
        let asked = Event::MapRequest { from: 4, join: None, map: &boot };
        assert!(machine(1).step(t0, asked).is_empty(), "only the holder answers");
        topo(&mut j, t0, snap, &[]);
        assert!(j.synced());
        let knock = tick(&mut j, t0 + 25 * MS, &boot, &[], false);
        assert_eq!(knock, [Action::RequestJoin { to: 0 }], "at once once synced");
        assert!(tick(&mut j, t0 + 50 * MS, &boot, &[], false).is_empty());
        join(&mut h, Some(4));
        tick(&mut h, t0, &boot, &[], false);
        let commit = tick(&mut h, t0 + HOLDER_STABILIZE, &boot, &[], false);
        let admitted = Some(TopologyChange::Join(4));
        assert!(matches!(commit.last(), Some(Action::Commit(t)) if t.change == admitted));
    }

    #[test]
    fn a_holder_asked_to_leave_waits_out_the_stabilize_gate_then_hands_off() {
        let map = ShardMap::initial(&[0, 1, 2], 8);
        let t0 = Instant::now();
        let mut m = machine(0);
        let first = tick(&mut m, t0, &map, &[], true);
        assert!(matches!(first[..], [Action::Beat { term: 1, holder: 0 }]), "{first:?}");
        let early = tick(&mut m, t0 + 50 * MS, &map, &[], true);
        assert!(early.is_empty(), "no handoff inside HOLDER_STABILIZE: {early:?}");
        let handoff = tick(&mut m, t0 + HOLDER_STABILIZE, &map, &[], true);
        assert!(matches!(handoff.last(), Some(Action::Beat { term: 2, holder: 1 })), "{handoff:?}");
        assert_eq!(m.lease(), (2, 1));
        // Demoted: its own LEAVE now goes to the successor, and it
        // proposes nothing itself.
        m.step(t0, Event::Propose(TopologyChange::Leave(0)));
        assert!(m.rebalancer().is_quiescent());
        let knock = tick(&mut m, t0 + HOLDER_STABILIZE + KNOCK_EVERY, &map, &[], true);
        assert_eq!(knock, [Action::RequestLeave { to: 1 }]);
    }

    #[test]
    fn a_takeover_re_drives_the_cached_plan_of_the_installed_map() {
        let map = ShardMap::initial(&[0, 1, 2, 3], 8);
        let (next, moves) = map.rebalance_leave(3).unwrap();
        let t = Topo { term: 1, change: Some(TopologyChange::Leave(3)), map: next.clone(), moves };
        let t0 = Instant::now();
        let mut m = machine(1);
        topo(&mut m, t0, &t, &[]);
        // Node 2 corroborates node 0's death: 2 of 3 is a quorum.
        m.step(t0, Event::Vote { from: 2, suspect: 0, dead: true });
        let dead = [(0, Duration::from_secs(1))];
        let first = tick(&mut m, t0, &next, &dead, false);
        let first: Vec<_> =
            first.into_iter().filter(|a| !matches!(a, Action::Pull { .. })).collect();
        let want = [
            Action::AskVote { to: 2, term: 1, suspect: 0 },
            Action::TookOver { term: 2, from: 0 },
            Action::Beat { term: 2, holder: 1 },
            Action::Redrive(Topo { term: 2, ..t.clone() }),
        ];
        assert_eq!(first, want);
        assert_eq!(m.lease(), (2, 1));
        assert_eq!(m.rebalancer().outstanding().len(), t.moves.len());
        // Until the acks drain the seeded plan, its outstanding moves
        // are re-driven every period; the last ack reports it.
        let later = tick(&mut m, t0 + HOLDER_STABILIZE + REDRIVE_EVERY, &next, &dead, false);
        assert!(later.iter().any(|a| matches!(a, Action::Redrive(r) if r.term == 2)), "{later:?}");
        // An ack under another map version is someone else's plan's.
        let ack =
            |m: &mut HaMachine, shard, version| m.step(t0, Event::MigrateAck { shard, version });
        assert!(ack(&mut m, t.moves[0].shard, 1).is_empty());
        assert_eq!(m.rebalancer().outstanding().len(), t.moves.len());
        let acks: Vec<Vec<Action>> = t.moves.iter().map(|mv| ack(&mut m, mv.shard, 2)).collect();
        assert!(matches!(acks.last().unwrap()[..], [Action::Migrated]));
        assert!(m.rebalancer().is_quiescent());
    }

    #[test]
    fn a_plan_of_an_older_map_is_not_re_driven() {
        let map = ShardMap::initial(&[0, 1, 2, 3], 8);
        let (next, moves) = map.rebalance_leave(3).unwrap();
        let t = Topo { term: 1, change: Some(TopologyChange::Leave(3)), map: next, moves };
        let t0 = Instant::now();
        let mut m = machine(1);
        m.step(t0, Event::Topo { from: 0, topo: &t, map: &map, served: &[] });
        m.step(t0, Event::Vote { from: 2, suspect: 0, dead: true });
        m.step(t0, Event::Vote { from: 3, suspect: 0, dead: true });
        // The installed map is still the one before the plan.
        let out = tick(&mut m, t0, &map, &[(0, Duration::from_secs(1))], false);
        assert!(out.iter().any(|a| matches!(a, Action::TookOver { .. })));
        assert!(!out.iter().any(|a| matches!(a, Action::Redrive(_))), "{out:?}");
        assert!(m.rebalancer().is_quiescent());
    }

    #[test]
    fn beats_that_resume_for_two_ticks_revive_a_latched_peer() {
        let map = ShardMap::initial(&[0, 1, 2], 8);
        let t0 = Instant::now();
        let mut m = machine(1);
        m.synced = true;
        let quiet = [(2, 10 * MS)];
        let first = tick(&mut m, t0, &map, &quiet, false);
        assert!(!first.iter().any(|a| matches!(a, Action::Revive { .. })), "{first:?}");
        let second = tick(&mut m, t0 + 25 * MS, &map, &quiet, false);
        assert!(second.iter().any(|a| matches!(a, Action::Revive { peer: 2 })), "{second:?}");
    }
}

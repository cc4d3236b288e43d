//! The coordinator's HA state machine (DESIGN.md §18): every lease,
//! vote, takeover, eviction, handoff and commit decision of an elastic
//! node as one pure `step(now, event) -> Vec<Action>`. It owns the
//! node's [`LeaseState`], [`VoteLedger`], [`Rebalancer`] and timers
//! and is their only writer; it reads no clock and sends nothing. The
//! caller — `gravel-node`, or [`sim`](super::sim) for N copies in
//! virtual time — feeds it events and performs its actions in order.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gravel_pgas::ShardMap;

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

/// One input to [`HaMachine::step`].
pub enum Event<'a> {
    /// The periodic tick: the installed map, the detector's latched
    /// peers with their silence, and whether we were asked to leave.
    Tick { map: &'a ShardMap, dead: &'a [(u32, Duration)], leave: bool },
    /// A lease beat for a map at `map_version`; ours is at `mine`.
    Lease { term: u64, holder: u32, map_version: u64, mine: u64 },
    /// A TOPO frame from `from` passed the map's fence; `plan` is its
    /// change when it carries moves.
    Topo { term: u64, from: u32, plan: Option<RebalancePlan> },
    /// `from` asks for our verdict; `latched`: our detector holds it.
    VoteRequest { from: u32, term: u64, suspect: u32, latched: bool },
    Vote { from: u32, suspect: u32, dead: bool },
    /// A JOIN or LEAVE request.
    Propose(TopologyChange),
    /// A shard's new owner acked its migration.
    MigrateAck(u32),
}

/// One effect of a step, for the caller to perform.
#[derive(Clone, Debug)]
pub enum Action {
    /// Broadcast a lease beat for `(term, holder)`: us, or our
    /// successor on a handoff.
    Beat { term: u64, holder: u32 },
    AskVote { to: u32, term: u64, suspect: u32 },
    Vote { to: u32, term: u64, suspect: u32, dead: bool },
    /// Ask the holder `to` for its map: ours lags its beat.
    RequestMap { to: u32 },
    /// `peer` beats again: reset the detector's latched verdict.
    Revive { peer: u32 },
    /// We took the lease from `from`, quorum-confirmed dead.
    TookOver { term: u64, from: u32 },
    /// Live replies denied `suspect`'s death (once per round).
    Vetoed { suspect: u32 },
    /// An EVICT of `peer` was queued.
    Evicting { peer: u32 },
    /// Cut an epoch, then broadcast and install `plan` under `term`.
    Commit { term: u64, plan: RebalancePlan },
    /// Re-broadcast and install the interrupted `plan` under the
    /// takeover `term` (committed already: no cut).
    Redrive { term: u64, plan: RebalancePlan },
    /// The in-flight plan's last shard was acked.
    Migrated,
}

/// One node's HA state machine. See the module docs.
pub struct HaMachine {
    me: u32,
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
    holder_since: Option<Instant>,
    last_beat: Option<Instant>,
    last_vote: Option<Instant>,
    dead_since: HashMap<u32, Instant>,
    revive_streak: HashMap<u32, u32>,
}

impl HaMachine {
    /// Boot state: `boot_holder` holds the initial term; failure
    /// detectors beat every `beat`.
    pub fn new(me: u32, boot_holder: u32, evict_grace: Duration, beat: Duration) -> Self {
        HaMachine {
            me,
            evict_grace,
            revive_silence: beat * 3,
            lease: LeaseState::new(boot_holder),
            votes: VoteLedger::default(),
            rebalancer: Rebalancer::default(),
            last_plan: None,
            holder_since: None,
            last_beat: None,
            last_vote: None,
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

    /// Feed one event at `now`; returns what to do, in order.
    pub fn step(&mut self, now: Instant, event: Event<'_>) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Tick { map, dead, leave } => self.tick(now, map, dead, leave, &mut out),
            Event::Lease { term, holder, map_version, mine } => {
                if self.lease.observe(term, holder) && map_version > mine {
                    out.push(Action::RequestMap { to: holder });
                }
            }
            Event::Topo { term, from, plan } => {
                // The frame is current, so its issuer's claim is too.
                self.lease.observe(term, from);
                self.last_plan = plan.or(self.last_plan.take());
            }
            Event::VoteRequest { from, term, suspect, latched } => {
                // Advisory: the requester applies the quorum.
                let dead = latched && suspect != self.me;
                out.push(Action::Vote { to: from, term, suspect, dead });
            }
            Event::Vote { from, suspect, dead } => self.votes.record(suspect, from, dead),
            // The holder's own LEAVE waits for its handoff.
            Event::Propose(change) => {
                if self.is_holder() && change != TopologyChange::Leave(self.me) {
                    self.rebalancer.propose(change);
                }
            }
            Event::MigrateAck(shard) => {
                if self.rebalancer.note_shard_ready(shard) {
                    out.push(Action::Migrated);
                }
            }
        }
        out
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
        let due = |since: Option<Instant>, every| {
            since.is_none_or(|t| now.duration_since(t) >= every)
        };
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
        let (term, holder) = self.lease.current();
        let member = map.is_member(me);
        if member && due(self.last_vote, VOTE_ROUND_EVERY) {
            self.last_vote = Some(now);
            for &peer in latched.iter().filter(|&&p| map.is_member(p)) {
                self.votes.record(peer, me, true);
                for &m in members.iter().filter(|&&m| m != me && m != peer) {
                    if !latched.contains(&m) {
                        out.push(Action::AskVote { to: m, term, suspect: peer });
                    }
                }
                if self.votes.denied(peer, members) && self.votes.note_veto(peer) {
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
                self.rebalancer.seed_in_flight(plan.clone());
                out.push(Action::Redrive { term, plan });
            }
            return;
        }
        if !self.is_holder() {
            return;
        }
        let since = *self.holder_since.get_or_insert(now);
        if due(self.last_beat, LEASE_BEAT_EVERY) {
            self.last_beat = Some(now);
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
            out.push(Action::Commit { term, plan });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn machine(me: u32) -> HaMachine {
        HaMachine::new(me, 0, Duration::from_millis(500), Duration::from_millis(15))
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
    }

    #[test]
    fn a_takeover_re_drives_the_cached_plan_of_the_installed_map() {
        let map = ShardMap::initial(&[0, 1, 2, 3], 8);
        let (next, moves) = map.rebalance_leave(3).unwrap();
        let plan = RebalancePlan { change: TopologyChange::Leave(3), map: next.clone(), moves };
        let t0 = Instant::now();
        let mut m = machine(1);
        m.step(t0, Event::Topo { term: 1, from: 0, plan: Some(plan.clone()) });
        // Node 2 corroborates node 0's death: 2 of 3 is a quorum.
        m.step(t0, Event::Vote { from: 2, suspect: 0, dead: true });
        let dead = [(0, Duration::from_secs(1))];
        let first = tick(&mut m, t0, &next, &dead, false);
        let kinds: Vec<_> = first.iter().map(std::mem::discriminant).collect();
        let want = [
            Action::AskVote { to: 2, term: 1, suspect: 0 },
            Action::TookOver { term: 2, from: 0 },
            Action::Beat { term: 2, holder: 1 },
            Action::Redrive { term: 2, plan: plan.clone() },
        ];
        assert_eq!(kinds, want.iter().map(std::mem::discriminant).collect::<Vec<_>>(), "{first:?}");
        assert_eq!(m.lease(), (2, 1));
        assert_eq!(m.rebalancer().outstanding().len(), plan.moves.len());
        // The acks drain the seeded plan; the last one reports it.
        let acks: Vec<Vec<Action>> =
            plan.moves.iter().map(|mv| m.step(t0, Event::MigrateAck(mv.shard))).collect();
        assert!(matches!(acks.last().unwrap()[..], [Action::Migrated]));
        assert!(m.rebalancer().is_quiescent());
    }

    #[test]
    fn a_plan_of_an_older_map_is_not_re_driven() {
        let map = ShardMap::initial(&[0, 1, 2, 3], 8);
        let (next, moves) = map.rebalance_leave(3).unwrap();
        let plan = RebalancePlan { change: TopologyChange::Leave(3), map: next, moves };
        let t0 = Instant::now();
        let mut m = machine(1);
        m.step(t0, Event::Topo { term: 1, from: 0, plan: Some(plan) });
        m.step(t0, Event::Vote { from: 2, suspect: 0, dead: true });
        m.step(t0, Event::Vote { from: 3, suspect: 0, dead: true });
        // The installed map is still the one before the plan.
        let out = tick(&mut m, t0, &map, &[(0, Duration::from_secs(1))], false);
        assert!(out.iter().any(|a| matches!(a, Action::TookOver { .. })));
        assert!(!out.iter().any(|a| matches!(a, Action::Redrive { .. })), "{out:?}");
        assert!(m.rebalancer().is_quiescent());
    }

    #[test]
    fn beats_that_resume_for_two_ticks_revive_a_latched_peer() {
        let map = ShardMap::initial(&[0, 1, 2], 8);
        let t0 = Instant::now();
        let mut m = machine(1);
        let quiet = [(2, 10 * MS)];
        let first = tick(&mut m, t0, &map, &quiet, false);
        assert!(!first.iter().any(|a| matches!(a, Action::Revive { .. })), "{first:?}");
        let second = tick(&mut m, t0 + 25 * MS, &map, &quiet, false);
        assert!(second.iter().any(|a| matches!(a, Action::Revive { peer: 2 })), "{second:?}");
    }
}

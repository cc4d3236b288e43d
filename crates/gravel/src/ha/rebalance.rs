//! The rebalancer — the coordinator-side topology-change state machine
//! (DESIGN.md §16).
//!
//! Elastic membership changes (JOIN, LEAVE, EVICT) are *proposals*:
//! they queue here and commit one at a time, each at an epoch boundary,
//! so there is never more than one shard migration in flight and every
//! node observes the same total order of map versions. The machine is
//! deliberately pure — no I/O, no clocks, no transport — which is what
//! makes its invariants unit-testable and lets the supervisor restart
//! the driver thread around it without losing protocol state:
//!
//! * **One in flight.** A committed plan must fully migrate (every
//!   [`ShardMove`] acked) before the next proposal commits. Competing
//!   proposals wait in FIFO order.
//! * **Moot proposals evaporate.** A JOIN of a current member, a LEAVE
//!   of a non-member, or a LEAVE that would empty the cluster is
//!   skipped at commit time (the map it was judged against is the live
//!   one, not the one it was proposed under).
//! * **Monotonic versions.** Every committed plan carries
//!   `map.version == current.version + 1`; the caller broadcasts and
//!   installs it, and [`Directory::install_fenced`](gravel_pgas::Directory::install_fenced)
//!   refuses regressions independently.
//!
//! The [`HaMachine`](super::HaMachine) owns one and commits only while
//! it holds the lease; its caller broadcasts each committed
//! [`RebalancePlan`] and feeds the per-shard acks back. For an EVICT
//! the `from` nodes are dead and their shards come from the buddy ward.

use gravel_pgas::{ShardMap, ShardMove};
use std::collections::VecDeque;

/// A proposed change to the active member set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyChange {
    /// Admit a new node (it has handshaken and holds an empty heap).
    Join(u32),
    /// Graceful exit: the node drains, donates its shards, then stops.
    Leave(u32),
    /// Forced exit: the phi-accrual detector declared the node dead;
    /// its shards are reconstructed from its buddy's ward (checkpoint
    /// + forwarded replay log), not streamed from the node itself.
    Evict(u32),
}

/// A committed topology change: the next map plus the minimal set of
/// shard moves that realize it.
#[derive(Clone, Debug)]
pub struct RebalancePlan {
    pub change: TopologyChange,
    pub map: ShardMap,
    pub moves: Vec<ShardMove>,
}

struct InFlight {
    plan: RebalancePlan,
    /// Moves not yet acked by their new owner, by shard id.
    outstanding: Vec<u32>,
}

/// The coordinator's queue-and-commit machine. See the module docs for
/// the protocol it drives.
#[derive(Default)]
pub struct Rebalancer {
    pending: VecDeque<TopologyChange>,
    in_flight: Option<InFlight>,
}

impl Rebalancer {
    /// Queue a proposal. Duplicates of a queued or in-flight change are
    /// refused (a flapping detector may propose the same EVICT many
    /// times before the boundary arrives). Returns whether it queued.
    pub fn propose(&mut self, change: TopologyChange) -> bool {
        if self.pending.contains(&change) {
            return false;
        }
        if let Some(f) = &self.in_flight {
            if f.plan.change == change {
                return false;
            }
        }
        self.pending.push_back(change);
        true
    }

    /// An epoch boundary arrived: commit the next viable proposal
    /// against `current` and return its plan, or `None` if a migration
    /// is still in flight or nothing viable is queued. A plan with no
    /// moves (a join into a cluster with fewer shards than members)
    /// completes immediately — the caller still broadcasts its map.
    pub fn boundary_tick(&mut self, current: &ShardMap) -> Option<RebalancePlan> {
        if self.in_flight.is_some() {
            return None;
        }
        while let Some(change) = self.pending.pop_front() {
            let edit = match change {
                TopologyChange::Join(n) => current.rebalance_join(n),
                TopologyChange::Leave(n) | TopologyChange::Evict(n) => {
                    current.rebalance_leave(n)
                }
            };
            let Some((map, moves)) = edit else {
                continue; // moot under the live map
            };
            let plan = RebalancePlan { change, map, moves };
            if !plan.moves.is_empty() {
                self.in_flight = Some(InFlight {
                    outstanding: plan.moves.iter().map(|m| m.shard).collect(),
                    plan: plan.clone(),
                });
            }
            return Some(plan);
        }
        None
    }

    /// Reconstruct in-flight state on a **takeover coordinator**: the
    /// previous lease holder broadcast this plan (it is the cached last
    /// TOPO frame, already installed cluster-wide) and died before the
    /// migration finished acking. The successor seeds the machine as if
    /// it had committed the plan itself, re-broadcasts it under the new
    /// term — destinations re-register their pulls idempotently and
    /// re-ack already-served shards to the sender — and then collects
    /// acks through [`note_shard_ready`](Self::note_shard_ready)
    /// exactly like an uninterrupted migration — its own served shards
    /// included, which it re-acks to itself. No-op if a migration is
    /// somehow already in flight.
    pub fn seed_in_flight(&mut self, plan: RebalancePlan) {
        if self.in_flight.is_none() && !plan.moves.is_empty() {
            let outstanding = plan.moves.iter().map(|m| m.shard).collect();
            self.in_flight = Some(InFlight { plan, outstanding });
        }
    }

    /// A shard's new owner acked its migration. Returns `true` when
    /// this ack completes the in-flight plan (the machine is idle
    /// again). Unknown or duplicate shard acks are ignored — migration
    /// re-requests make duplicates routine.
    pub fn note_shard_ready(&mut self, shard: u32) -> bool {
        let Some(f) = &mut self.in_flight else {
            return false;
        };
        f.outstanding.retain(|&s| s != shard);
        if f.outstanding.is_empty() {
            self.in_flight = None;
            return true;
        }
        false
    }

    /// The plan currently migrating, if any.
    pub fn migrating(&self) -> Option<&RebalancePlan> {
        self.in_flight.as_ref().map(|f| &f.plan)
    }

    /// Shards of the in-flight plan still awaiting their ack.
    pub fn outstanding(&self) -> &[u32] {
        self.in_flight.as_ref().map_or(&[], |f| &f.outstanding)
    }

    /// Idle and nothing queued.
    pub fn is_quiescent(&self) -> bool {
        self.in_flight.is_none() && self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map4() -> ShardMap {
        ShardMap::initial(&[0, 1, 2, 3], 16)
    }

    #[test]
    fn commits_one_proposal_per_boundary_and_serializes_migrations() {
        let mut r = Rebalancer::default();
        assert!(r.propose(TopologyChange::Join(4)));
        assert!(r.propose(TopologyChange::Join(5)));
        assert!(!r.propose(TopologyChange::Join(4)), "duplicate refused");

        let m = map4();
        let plan = r.boundary_tick(&m).expect("first join commits");
        assert_eq!(plan.change, TopologyChange::Join(4));
        assert_eq!(plan.map.version, 2);
        assert!(!plan.moves.is_empty());
        assert!(
            r.boundary_tick(&plan.map).is_none(),
            "second join waits for the migration"
        );
        assert!(!r.propose(TopologyChange::Join(4)), "in-flight dup refused");

        // Ack every move (with a duplicate thrown in) — the last ack
        // reports completion.
        let mut done = false;
        for mv in &plan.moves {
            assert!(!done);
            r.note_shard_ready(mv.shard);
            done = r.outstanding().is_empty() && r.migrating().is_none();
            r.note_shard_ready(mv.shard); // duplicate: ignored
        }
        assert!(done);

        let plan2 = r.boundary_tick(&plan.map).expect("second join commits");
        assert_eq!(plan2.change, TopologyChange::Join(5));
        assert_eq!(plan2.map.version, 3);
    }

    #[test]
    fn moot_proposals_are_skipped_at_commit_time() {
        let mut r = Rebalancer::default();
        r.propose(TopologyChange::Join(2)); // already a member
        r.propose(TopologyChange::Leave(9)); // never a member
        r.propose(TopologyChange::Leave(3)); // viable
        let plan = r.boundary_tick(&map4()).expect("skips to the viable one");
        assert_eq!(plan.change, TopologyChange::Leave(3));
        assert!(plan.moves.iter().all(|m| m.from == 3));
    }

    #[test]
    fn evict_plans_like_leave_but_keeps_its_identity() {
        let mut r = Rebalancer::default();
        r.propose(TopologyChange::Evict(1));
        let plan = r.boundary_tick(&map4()).unwrap();
        assert_eq!(plan.change, TopologyChange::Evict(1));
        assert!(!plan.map.is_member(1));
        assert!(plan.moves.iter().all(|m| m.from == 1));
    }

    #[test]
    fn takeover_seeds_the_interrupted_migration() {
        // Old coordinator committed a join, broadcast the plan, died.
        let mut old = Rebalancer::default();
        old.propose(TopologyChange::Join(4));
        let plan = old.boundary_tick(&map4()).unwrap();
        assert!(plan.moves.len() >= 2, "want a multi-move plan to split acks over");

        // The successor seeds it whole; every move is outstanding.
        let mut next = Rebalancer::default();
        next.seed_in_flight(plan.clone());
        assert_eq!(next.outstanding().len(), plan.moves.len());
        assert!(
            next.boundary_tick(&plan.map).is_none(),
            "seeded migration blocks further commits like a native one"
        );

        // The acks drain it to idle; the last one reports completion.
        let (last, rest) = plan.moves.split_last().unwrap();
        for mv in rest {
            assert!(!next.note_shard_ready(mv.shard));
        }
        assert!(next.note_shard_ready(last.shard));
        assert!(next.is_quiescent());

        // A plan without moves seeds nothing.
        let mut idle = Rebalancer::default();
        idle.seed_in_flight(RebalancePlan { moves: Vec::new(), ..plan });
        assert!(idle.is_quiescent());
    }

    #[test]
    fn quiescent_when_empty_and_unknown_acks_are_ignored() {
        let mut r = Rebalancer::default();
        assert!(r.is_quiescent());
        assert!(!r.note_shard_ready(3), "no migration in flight");
        assert!(r.boundary_tick(&map4()).is_none());
        r.propose(TopologyChange::Leave(0));
        assert!(!r.is_quiescent());
    }
}

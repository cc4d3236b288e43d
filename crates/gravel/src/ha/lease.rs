//! The pieces of the coordinator lease the [`HaMachine`](super::HaMachine)
//! decides with (DESIGN.md §18):
//!
//! - [`LeaseState`] — the highest accepted **term** (fencing token) and
//!   its holder; [`observe`](LeaseState::observe) rejects stale terms
//!   and breaks equal-term collisions toward the lower node id.
//! - [`successor`] — the next holder is the **lowest-id live member**
//!   of the last-committed map: every observer computes the same one.
//! - [`VoteLedger`] + [`quorum`] — death corroboration: an eviction or
//!   a takeover needs a **majority of the current members**, so a
//!   minority partition freezes instead of forking the map.

use std::collections::{BTreeSet, HashMap};

/// The first term of a cluster's life, held by the lowest initial
/// member. Every node boots agreeing on this, so fencing works from
/// frame one without a handshake.
pub const INITIAL_TERM: u64 = 1;

/// One node's view of the coordinator lease: the highest term it has
/// accepted and who holds it.
pub struct LeaseState {
    term: u64,
    holder: u32,
}

impl LeaseState {
    /// Boot view: `initial_holder` holds [`INITIAL_TERM`].
    pub fn new(initial_holder: u32) -> Self {
        LeaseState { term: INITIAL_TERM, holder: initial_holder }
    }

    /// `(term, holder)` as currently accepted.
    pub fn current(&self) -> (u64, u32) {
        (self.term, self.holder)
    }

    /// Observe a `(term, holder)` claim carried by a control frame.
    /// Returns `true` when the claim is current (accepted or already
    /// known), `false` when it is **stale** — the fencing verdict: a
    /// frame whose claim is rejected must not be applied.
    ///
    /// Rules: a higher term always wins; the known term with the known
    /// holder is fine; the known term with a *different* holder
    /// resolves to the lower node id (deterministic collision
    /// tie-break); a lower term is fenced off.
    pub fn observe(&mut self, term: u64, holder: u32) -> bool {
        if term > self.term || (term == self.term && holder <= self.holder) {
            (self.term, self.holder) = (term, holder);
            true
        } else {
            false
        }
    }

    /// Bump to a fresh term held by `holder`: this node after a
    /// quorum-confirmed takeover, or its successor on a drain-leave
    /// handoff. Returns the new term.
    pub fn bump(&mut self, holder: u32) -> u64 {
        (self.term, self.holder) = (self.term + 1, holder);
        self.term
    }
}

/// Deterministic successor election: the lowest-id member of
/// `members` not listed in `dead`. `None` when every member is dead.
pub fn successor(members: &[u32], dead: &[u32]) -> Option<u32> {
    members.iter().copied().filter(|m| !dead.contains(m)).min()
}

/// Majority quorum for a membership of `n`: more than half.
pub fn quorum(n: usize) -> usize {
    n / 2 + 1
}

#[derive(Default)]
struct Round {
    yes: BTreeSet<u32>,
    no: BTreeSet<u32>,
    vetoed: bool,
}

/// Per-suspect death-corroboration rounds. The initiator records its
/// own verdict plus every `DEATH_VOTE` reply; eviction (or takeover)
/// proceeds only once [`confirmed`](Self::confirmed) against the
/// last-committed membership.
#[derive(Default)]
pub struct VoteLedger {
    rounds: HashMap<u32, Round>,
}

impl VoteLedger {
    /// Record `voter`'s verdict on `suspect`. A voter flipping its
    /// verdict (a revived peer's beats resumed mid-round) moves
    /// between the tallies rather than double counting.
    pub fn record(&mut self, suspect: u32, voter: u32, dead: bool) {
        let r = self.rounds.entry(suspect).or_default();
        let (to, from) = if dead { (&mut r.yes, &mut r.no) } else { (&mut r.no, &mut r.yes) };
        from.remove(&voter);
        to.insert(voter);
    }

    /// Has a majority of `members` corroborated the death? Only votes
    /// from current members count — a stale voter that was itself
    /// evicted cannot help form a quorum.
    pub fn confirmed(&self, suspect: u32, members: &[u32]) -> bool {
        self.rounds.get(&suspect).is_some_and(|r| {
            r.yes.iter().filter(|v| members.contains(v)).count() >= quorum(members.len())
        })
    }

    /// Has the death been *denied* — so many live "not dead" replies
    /// that a confirming quorum can no longer form?
    pub fn denied(&self, suspect: u32, members: &[u32]) -> bool {
        self.rounds.get(&suspect).is_some_and(|r| {
            let no = r.no.iter().filter(|v| members.contains(v)).count();
            members.len() - no < quorum(members.len())
        })
    }

    /// Latch the round as vetoed; true exactly once per round (for the
    /// `ha.evictions_vetoed` counter).
    pub fn note_veto(&mut self, suspect: u32) -> bool {
        let r = self.rounds.entry(suspect).or_default();
        !std::mem::replace(&mut r.vetoed, true)
    }

    /// Forget the round (the suspect revived, was evicted, or the
    /// veto backoff expired and suspicion should restart clean).
    pub fn clear(&mut self, suspect: u32) {
        self.rounds.remove(&suspect);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_state_agrees_everywhere() {
        assert_eq!(LeaseState::new(0).current(), (INITIAL_TERM, 0));
    }

    #[test]
    fn observe_fences_stale_terms() {
        let mut l = LeaseState::new(0);
        assert!(l.observe(1, 0), "the known claim is fine");
        assert!(l.observe(2, 1), "a higher term wins");
        assert_eq!(l.current(), (2, 1));
        assert!(!l.observe(1, 0), "the resurrected old coordinator is fenced");
        assert_eq!(l.current(), (2, 1), "stale claims change nothing");
        assert!(l.observe(5, 2), "terms may skip forward");
        assert!(!l.observe(4, 3), "anything below the accepted term is stale");
    }

    #[test]
    fn equal_term_collisions_resolve_to_the_lower_id() {
        let mut l = LeaseState::new(0);
        assert!(l.observe(2, 2), "first claim of term 2 accepted");
        assert!(!l.observe(2, 3), "higher-id twin rejected");
        assert_eq!(l.current(), (2, 2));
        assert!(l.observe(2, 1), "lower-id twin wins the collision");
        assert_eq!(l.current(), (2, 1));
    }

    #[test]
    fn takeover_and_handoff_bump_the_term() {
        let mut l = LeaseState::new(0);
        assert_eq!(l.bump(1), 2);
        assert_eq!(l.current(), (2, 1));
        assert_eq!(l.bump(3), 3);
        assert_eq!(l.current(), (3, 3));
        // The old holder's own frames are now stale by its own rules.
        assert!(!l.observe(2, 1));
    }

    #[test]
    fn successor_is_the_lowest_live_member() {
        assert_eq!(successor(&[0, 1, 2, 3], &[0]), Some(1));
        assert_eq!(successor(&[0, 1, 2, 3], &[0, 1]), Some(2));
        assert_eq!(successor(&[2, 4, 6], &[]), Some(2));
        assert_eq!(successor(&[2, 4, 6], &[2, 4, 6]), None);
        assert_eq!(successor(&[1, 3], &[5]), Some(1), "non-member deaths are irrelevant");
    }

    #[test]
    fn quorum_is_a_strict_majority() {
        assert_eq!(quorum(1), 1);
        assert_eq!(quorum(2), 2);
        assert_eq!(quorum(3), 2);
        assert_eq!(quorum(4), 3);
        assert_eq!(quorum(5), 3);
        assert_eq!(quorum(6), 4);
    }

    #[test]
    fn votes_accumulate_to_quorum() {
        let members = [0u32, 1, 2, 3, 4, 5];
        let mut v = VoteLedger::default();
        v.record(9, 0, true);
        v.record(9, 1, true);
        v.record(9, 2, true);
        assert!(!v.confirmed(9, &members), "3 of 6 is not a majority");
        v.record(9, 3, true);
        assert!(v.confirmed(9, &members), "4 of 6 confirms");
    }

    #[test]
    fn minority_partition_starves_below_quorum() {
        // A 3/3 split: the island {0,1,2} can only gather its own three
        // votes on the deaths it perceives — never a majority of 6.
        let members = [0u32, 1, 2, 3, 4, 5];
        let mut v = VoteLedger::default();
        for voter in [0, 1, 2] {
            v.record(3, voter, true);
        }
        assert!(!v.confirmed(3, &members));
        assert!(!v.denied(3, &members), "absent votes are not denials");
    }

    #[test]
    fn live_replies_deny_the_death() {
        let members = [0u32, 1, 2, 3];
        let mut v = VoteLedger::default();
        v.record(2, 0, true);
        v.record(2, 1, false);
        v.record(2, 3, false);
        // Two live denials leave at most 2 possible yes votes < quorum 3.
        assert!(v.denied(2, &members));
        assert!(!v.confirmed(2, &members));
        // A flipped verdict moves between tallies instead of doubling:
        // two yes of four is neither denied nor confirmed.
        v.record(2, 1, true);
        assert!(!v.denied(2, &members) && !v.confirmed(2, &members));
    }

    #[test]
    fn veto_latches_once_and_clear_resets() {
        let mut v = VoteLedger::default();
        v.record(7, 0, false);
        assert!(v.note_veto(7), "first veto counts");
        assert!(!v.note_veto(7), "second does not");
        v.clear(7);
        assert!(v.note_veto(7), "a fresh round can veto again");
    }

    #[test]
    fn evicted_voters_do_not_count_towards_quorum() {
        let mut v = VoteLedger::default();
        for voter in [7, 8, 9] {
            v.record(1, voter, true);
        }
        assert!(!v.confirmed(1, &[0, 1, 2, 3]), "ghost votes are ignored");
        v.record(1, 0, true);
        v.record(1, 2, true);
        v.record(1, 3, true);
        assert!(v.confirmed(1, &[0, 1, 2, 3]));
    }
}

//! Process-fault chaos plans: the node-level counterpart to
//! [`FaultConfig`](crate::FaultConfig)'s link faults.
//!
//! A [`ChaosPlan`] is a deterministic schedule of *process* faults —
//! panic a given aggregator lane at its Nth drain step, panic a network
//! thread at its Nth applied packet, or kill a whole `gravel-node`
//! process at its Nth applied packet. The runtime polls the plan from
//! the affected worker threads (`agg_tick` / `net_tick`), `gravel-node`
//! from its forwarder (`kill_tick`); each kill fires exactly once, so a
//! supervised restart of the worker does not immediately re-kill it.
//!
//! Plans are either hand-written (pinpoint a step for a regression
//! test) or derived from a seed ([`ChaosPlan::seeded`]) for sweep-style
//! chaos testing with reproducible schedules.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::{splitmix, NodeId, GAMMA};

/// One scheduled process fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessFault {
    /// Panic aggregator lane `slot` of `node` when it reaches drain
    /// step `at_step` (a drain step = one message handed to the
    /// delivery layer; step counts accumulate across restarts).
    PanicAggregator { node: NodeId, slot: u32, at_step: u64 },
    /// Panic the network thread of `node` when it is about to apply its
    /// `at_step`th message (counted across restarts).
    PanicNet { node: NodeId, at_step: u64 },
    /// Kill the whole OS process of `node` when it has applied its
    /// `at_step`th packet. Thread panics are healed by the in-process
    /// supervisor; this one is not — it is the `kill -9` class of
    /// fault. In-process the victim calls `std::process::abort()` on a
    /// matching [`kill_tick`](ChaosPlan::kill_tick); multi-process
    /// harnesses instead read the plan and deliver a literal SIGKILL
    /// from outside.
    KillProcess { node: NodeId, at_step: u64 },
}

/// A deterministic schedule of process faults, shared by every worker
/// thread of a runtime. All methods take `&self` and are called from
/// the hot paths of aggregator/net threads, so the common no-fault case
/// is a couple of integer compares under a short critical section.
pub struct ChaosPlan {
    faults: Vec<ProcessFault>,
    /// One-shot latch per fault (indexed like `faults`).
    fired: Vec<AtomicBool>,
    /// Drain-step counters per (node, slot) aggregator lane.
    agg_steps: Mutex<HashMap<(NodeId, u32), u64>>,
    /// Apply-step counters per node network thread.
    net_steps: Mutex<HashMap<NodeId, u64>>,
    /// Applied-packet counters per node process (for `KillProcess`).
    kill_steps: Mutex<HashMap<NodeId, u64>>,
}

/// SplitMix64 from state `seed + γ`: cheap, stateless, good enough for
/// schedule derivation.
fn splitmix64(seed: u64) -> impl FnMut() -> u64 {
    let mut z = seed.wrapping_add(GAMMA);
    move || splitmix(&mut z)
}

impl ChaosPlan {
    /// A plan executing exactly the given faults.
    pub fn new(faults: Vec<ProcessFault>) -> Self {
        let fired = faults.iter().map(|_| AtomicBool::new(false)).collect();
        ChaosPlan {
            faults,
            fired,
            agg_steps: Mutex::new(HashMap::new()),
            net_steps: Mutex::new(HashMap::new()),
            kill_steps: Mutex::new(HashMap::new()),
        }
    }

    /// An empty plan (no faults ever fire).
    pub fn none() -> Self {
        ChaosPlan::new(Vec::new())
    }

    /// A seeded single-kill plan for sweep harnesses: derives one
    /// aggregator or net panic somewhere in the first `horizon` steps of
    /// a random worker. Same seed + same topology → same schedule.
    pub fn seeded(seed: u64, nodes: usize, slots: usize, horizon: u64) -> Self {
        assert!(nodes > 0 && slots > 0 && horizon > 0, "empty chaos domain");
        let mut next = splitmix64(seed);
        let node = (next() % nodes as u64) as NodeId;
        let at_step = 1 + next() % horizon;
        let fault = if next().is_multiple_of(2) {
            let slot = (next() % slots as u64) as u32;
            ProcessFault::PanicAggregator { node, slot, at_step }
        } else {
            ProcessFault::PanicNet { node, at_step }
        };
        ChaosPlan::new(vec![fault])
    }

    /// The scheduled faults, in plan order.
    pub fn faults(&self) -> &[ProcessFault] {
        &self.faults
    }

    /// How many kills the plan schedules (used by tests and benches to
    /// size restart budgets).
    pub fn kills_planned(&self) -> usize {
        self.faults.len()
    }

    /// How many one-shot faults have fired so far.
    pub fn fired(&self) -> usize {
        self.fired.iter().filter(|f| f.load(Ordering::Relaxed)).count()
    }

    /// Called by aggregator lane `(node, slot)` once per drain step,
    /// *before* handing the message to the delivery layer. Returns true
    /// exactly once per matching scheduled panic: the caller must then
    /// panic with a recognizable message.
    pub fn agg_tick(&self, node: NodeId, slot: u32) -> bool {
        let step = {
            let mut steps = self.agg_steps.lock().unwrap();
            let s = steps.entry((node, slot)).or_insert(0);
            *s += 1;
            *s
        };
        self.fire_matching(|f| {
            matches!(f, ProcessFault::PanicAggregator { node: n, slot: sl, at_step }
                if *n == node && *sl == slot && *at_step == step)
        })
    }

    /// Called by node `node`'s network thread once per message it is
    /// about to apply. Returns true exactly once per matching panic.
    pub fn net_tick(&self, node: NodeId) -> bool {
        let step = {
            let mut steps = self.net_steps.lock().unwrap();
            let s = steps.entry(node).or_insert(0);
            *s += 1;
            *s
        };
        self.fire_matching(|f| {
            matches!(f, ProcessFault::PanicNet { node: n, at_step }
                if *n == node && *at_step == step)
        })
    }

    /// A seeded single process-kill plan for multi-process harnesses:
    /// picks a victim node and an applied-packet count within
    /// `horizon`. Same seed + same topology → same victim and step, so
    /// a run is reproducible end to end even though the kill itself is
    /// an OS-level SIGKILL.
    pub fn seeded_kill(seed: u64, nodes: usize, horizon: u64) -> Self {
        assert!(nodes > 0 && horizon > 0, "empty chaos domain");
        let mut next = splitmix64(seed);
        let node = (next() % nodes as u64) as NodeId;
        let at_step = 1 + next() % horizon;
        ChaosPlan::new(vec![ProcessFault::KillProcess { node, at_step }])
    }

    /// The scheduled process kill for `node`, if any (harnesses use
    /// this to know whom to SIGKILL and the victim process uses
    /// [`kill_tick`](ChaosPlan::kill_tick) to self-abort
    /// deterministically).
    pub fn process_kill(&self, node: NodeId) -> Option<u64> {
        self.faults.iter().find_map(|f| match f {
            ProcessFault::KillProcess { node: n, at_step } if *n == node => Some(*at_step),
            _ => None,
        })
    }

    /// Called by node `node`'s process once per fully applied packet.
    /// Returns true exactly once per matching `KillProcess`: the caller
    /// must then die for real (`std::process::abort()`), not panic —
    /// the in-process supervisor must not be able to heal it.
    pub fn kill_tick(&self, node: NodeId) -> bool {
        let step = {
            let mut steps = self.kill_steps.lock().unwrap();
            let s = steps.entry(node).or_insert(0);
            *s += 1;
            *s
        };
        self.fire_matching(|f| {
            matches!(f, ProcessFault::KillProcess { node: n, at_step }
                if *n == node && *at_step == step)
        })
    }

    /// Latch-and-fire: true for the first unfired fault matching `pred`.
    fn fire_matching(&self, pred: impl Fn(&ProcessFault) -> bool) -> bool {
        for (i, f) in self.faults.iter().enumerate() {
            if pred(f) && !self.fired[i].swap(true, Ordering::Relaxed) {
                return true;
            }
        }
        false
    }
}

impl fmt::Debug for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosPlan")
            .field("faults", &self.faults)
            .field("fired", &self.fired())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_panic_fires_once_at_exact_step() {
        let plan = ChaosPlan::new(vec![ProcessFault::PanicAggregator {
            node: 1,
            slot: 0,
            at_step: 3,
        }]);
        assert!(!plan.agg_tick(1, 0)); // step 1
        assert!(!plan.agg_tick(0, 0)); // other node, own counter
        assert!(!plan.agg_tick(1, 0)); // step 2
        assert!(plan.agg_tick(1, 0)); // step 3: fire
        assert!(!plan.agg_tick(1, 0)); // one-shot: never again
        assert_eq!(plan.fired(), 1);
        assert_eq!(plan.kills_planned(), 1);
    }

    #[test]
    fn net_panic_counts_independently_per_node() {
        let plan = ChaosPlan::new(vec![
            ProcessFault::PanicNet { node: 0, at_step: 2 },
            ProcessFault::PanicNet { node: 1, at_step: 1 },
        ]);
        assert!(plan.net_tick(1));
        assert!(!plan.net_tick(0));
        assert!(plan.net_tick(0));
        assert_eq!(plan.fired(), 2);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        let a = ChaosPlan::seeded(9, 4, 2, 100);
        let b = ChaosPlan::seeded(9, 4, 2, 100);
        assert_eq!(a.faults(), b.faults());
        assert_eq!(a.kills_planned(), 1);
        match a.faults()[0] {
            ProcessFault::PanicAggregator { node, slot, at_step } => {
                assert!(node < 4 && slot < 2 && (1..=100).contains(&at_step));
            }
            ProcessFault::PanicNet { node, at_step } => {
                assert!(node < 4 && (1..=100).contains(&at_step));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Different seeds eventually differ.
        assert!((0..20).any(|s| {
            ChaosPlan::seeded(s, 4, 2, 100).faults() != a.faults()
        }));
    }

    /// Schedules derived from a seed stay what they were: the sweeps and
    /// tests that name a seed mean the fault these list.
    #[test]
    fn seeded_schedules_are_pinned() {
        use ProcessFault::{KillProcess, PanicAggregator, PanicNet};
        let agg = |node, at_step| PanicAggregator { node, slot: 0, at_step };
        let net = |node, at_step| PanicNet { node, at_step };
        let want = [agg(0, 80), net(3, 95), agg(2, 48), net(1, 2), agg(0, 96), net(0, 72)];
        for (seed, fault) in want.into_iter().enumerate() {
            assert_eq!(ChaosPlan::seeded(seed as u64, 4, 1, 256).faults(), [fault], "seed {seed}");
        }
        assert_eq!(
            ChaosPlan::seeded(9, 4, 2, 100).faults(),
            [PanicAggregator { node: 2, slot: 1, at_step: 39 }]
        );
        let kills = [(0, 30), (3, 41), (2, 2), (1, 30)];
        for (seed, (node, at_step)) in kills.into_iter().enumerate() {
            assert_eq!(
                ChaosPlan::seeded_kill(seed as u64, 4, 50).faults(),
                [KillProcess { node, at_step }],
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_plan_never_fires() {
        let plan = ChaosPlan::none();
        assert!(!plan.agg_tick(0, 0));
        assert!(!plan.net_tick(0));
        assert!(!plan.kill_tick(0));
        assert_eq!(plan.kills_planned(), 0);
    }

    #[test]
    fn process_kill_fires_once_at_exact_packet() {
        let plan = ChaosPlan::new(vec![ProcessFault::KillProcess { node: 2, at_step: 2 }]);
        assert_eq!(plan.process_kill(2), Some(2));
        assert_eq!(plan.process_kill(0), None);
        assert!(!plan.kill_tick(2)); // packet 1
        assert!(!plan.kill_tick(0)); // other node, own counter
        assert!(plan.kill_tick(2)); // packet 2: die
        assert!(!plan.kill_tick(2)); // one-shot (a restarted process
                                     // builds a fresh plan anyway)
        assert_eq!(plan.kills_planned(), 1, "a process kill is a kill");
    }

    #[test]
    fn seeded_kill_is_reproducible_and_in_range() {
        let a = ChaosPlan::seeded_kill(7, 4, 50);
        let b = ChaosPlan::seeded_kill(7, 4, 50);
        assert_eq!(a.faults(), b.faults());
        match a.faults()[0] {
            ProcessFault::KillProcess { node, at_step } => {
                assert!(node < 4 && (1..=50).contains(&at_step));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

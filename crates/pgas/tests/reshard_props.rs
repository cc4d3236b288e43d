//! Property tests for the elastic shard directory's exactly-once
//! bounce ledger (DESIGN.md §16).
//!
//! The model is the node binary's protocol in miniature: senders hold
//! possibly-stale `ShardMap` snapshots and route INCs under them; the
//! receiver side applies a unit only if the *current* map says it owns
//! the address, and otherwise bounces it back (stale-routed NACK with
//! the new map attached). Map-version bumps — joins and leaves — are
//! interleaved arbitrarily with sends and deliveries. The properties:
//!
//! 1. Every increment applies exactly once, at whichever node owns the
//!    address at apply time — the cluster-wide per-address total equals
//!    the issued count, no loss, no double-apply.
//! 2. The ledger reconciles: `stale_routed == redelivered` once traffic
//!    drains (no sender ever dies in this model, so `dropped == 0`).
//! 3. Map versions only move forward, and routing always agrees with
//!    the installed map.

use std::collections::VecDeque;

use gravel_pgas::{Directory, FencedInstall, ShardMap};
use proptest::prelude::*;
use proptest::prop_oneof;

const TABLE: usize = 64;
const NSHARDS: usize = 16;
const SENDERS: usize = 4;
/// Initial members; flips only ever touch ids ≥ 3, so the founding
/// members (like the real coordinator, node 0) never leave.
const FOUNDERS: [u32; 3] = [0, 1, 2];
const MAX_NODE: u32 = 8;

#[derive(Debug, Clone)]
enum Op {
    /// Sender issues `n` INCs to `addr`, routed under its snapshot.
    Send { sender: usize, addr: usize, n: u8 },
    /// Sender refreshes its snapshot to the current map.
    Refresh { sender: usize },
    /// Deliver up to `n` in-flight units.
    Deliver { n: u8 },
    /// Topology change: `who` joins, or leaves if already a member.
    Flip { who: u32 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..SENDERS, 0usize..TABLE, 1u8..4)
            .prop_map(|(sender, addr, n)| Op::Send { sender, addr, n }),
        1 => (0usize..SENDERS).prop_map(|sender| Op::Refresh { sender }),
        3 => (1u8..8).prop_map(|n| Op::Deliver { n }),
        1 => (3u32..MAX_NODE).prop_map(|who| Op::Flip { who }),
    ]
}

/// One in-flight increment: who sent it, where it's addressed, and
/// which node the (possibly stale) snapshot routed it to.
#[derive(Debug, Clone, Copy)]
struct Unit {
    sender: usize,
    addr: usize,
    dest: u32,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interleaved_reshards_deliver_every_inc_exactly_once(
        ops in prop::collection::vec(op(), 1..120),
    ) {
        let dir = Directory::elastic(TABLE, ShardMap::initial(&FOUNDERS, NSHARDS));
        let mut snapshots: Vec<_> =
            (0..SENDERS).map(|_| dir.current_map().unwrap()).collect();
        let mut heaps = vec![vec![0u64; TABLE]; MAX_NODE as usize];
        let mut net: VecDeque<Unit> = VecDeque::new();
        let mut expected = vec![0u64; TABLE];
        let mut stale_routed = 0u64;
        let mut redelivered = 0u64;
        let mut applied = 0u64;
        let mut last_version = dir.version();
        prop_assert_eq!(last_version, 1);

        let deliver_one = |net: &mut VecDeque<Unit>,
                               heaps: &mut Vec<Vec<u64>>,
                               snapshots: &mut Vec<std::sync::Arc<ShardMap>>,
                               stale: &mut u64,
                               redel: &mut u64,
                               applied: &mut u64| {
            let Some(u) = net.pop_front() else { return false };
            let current = dir.current_map().unwrap();
            if current.owner_of(u.addr as u64) == u.dest {
                // Elastic offsets are global indices: apply verbatim.
                heaps[u.dest as usize][u.addr] += 1;
                *applied += 1;
            } else {
                // Stale-routed: bounce to the sender with the new map
                // attached; the sender installs it and re-sends.
                *stale += 1;
                *redel += 1;
                snapshots[u.sender] = current.clone();
                net.push_back(Unit { dest: current.owner_of(u.addr as u64), ..u });
            }
            true
        };

        for o in ops {
            match o {
                Op::Send { sender, addr, n } => {
                    let dest = snapshots[sender].owner_of(addr as u64);
                    expected[addr] += n as u64;
                    for _ in 0..n {
                        net.push_back(Unit { sender, addr, dest });
                    }
                }
                Op::Refresh { sender } => {
                    snapshots[sender] = dir.current_map().unwrap();
                }
                Op::Deliver { n } => {
                    for _ in 0..n {
                        if !deliver_one(
                            &mut net, &mut heaps, &mut snapshots,
                            &mut stale_routed, &mut redelivered, &mut applied,
                        ) {
                            break;
                        }
                    }
                }
                Op::Flip { who } => {
                    let m = dir.current_map().unwrap();
                    let next = if m.is_member(who) {
                        m.rebalance_leave(who).map(|(n, _)| n)
                    } else {
                        m.rebalance_join(who).map(|(n, _)| n)
                    };
                    if let Some(next) = next {
                        let v = next.version;
                        let installed = dir.install_fenced(next, 0);
                        prop_assert_eq!(installed, FencedInstall::Installed, "monotonic install");
                        prop_assert_eq!(dir.version(), v);
                        prop_assert!(v > last_version, "versions move forward");
                        last_version = v;
                    }
                }
            }
        }

        // Drain: no more topology changes, so every bounced unit
        // re-routes under the final map and must land.
        let mut guard = 0u32;
        while deliver_one(
            &mut net, &mut heaps, &mut snapshots,
            &mut stale_routed, &mut redelivered, &mut applied,
        ) {
            guard += 1;
            prop_assert!(guard < 1_000_000, "drain did not terminate");
        }

        // Exactly once: cluster-wide per-address totals match issuance.
        let issued: u64 = expected.iter().sum();
        prop_assert_eq!(applied, issued, "every unit applied exactly once");
        for (addr, &want) in expected.iter().enumerate() {
            let got: u64 = heaps.iter().map(|h| h[addr]).sum();
            prop_assert_eq!(got, want, "addr {} total", addr);
        }
        // Ledger reconciliation: every refused unit was re-delivered.
        prop_assert_eq!(stale_routed, redelivered);
        // Routing agrees with the installed map for every address.
        let fin = dir.current_map().unwrap();
        for g in 0..TABLE {
            prop_assert_eq!(dir.route(g).dest, fin.owner_of(g as u64));
            prop_assert_eq!(dir.route(g).offset, g as u64, "elastic offsets are global");
        }
    }
}

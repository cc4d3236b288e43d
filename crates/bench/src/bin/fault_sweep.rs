//! Fault sweep — live-runtime GUPS update rate as a function of injected
//! packet-drop probability and byte-level corruption.
//!
//! The paper evaluates Gravel on a reliable fabric; this sweep measures
//! what the delivery protocol (ack-clocked retransmission with selective
//! acks, added for unreliable transports) costs as the network degrades.
//! At drop = 0 on the reliable transport the protocol is pure overhead
//! (sequence stamping + ack traffic); each further column pays for the
//! retransmissions that repair real loss. The corruption cells (bit
//! flips, truncation, wholesale garbage — DESIGN.md §13) exercise the
//! other failure plane: a mangled frame fails verification at the
//! receiver and is healed exactly like a lost one, so those columns
//! price CRC verification plus the same retransmission repair. Results
//! are exact at every point — the sweep asserts delivery, not just
//! throughput.
//!
//! Emits `fault_sweep.json` via the shared report machinery, plus
//! `fault_sweep_telemetry.json`: the full metric-registry snapshot of
//! every sweep cell (per-node counters and packet-latency histograms)
//! with the integrity ledger (`net.corrupt_dropped`, `net.truncated`,
//! `net.misrouted`, `net.quarantined`) lifted out per cell.
//!
//! A second axis — `reshard_sweep.json` — prices elastic membership
//! churn (DESIGN.md §16) instead of link faults: the same update
//! stream is replayed through the real shard directory while
//! join/leave plans commit at epoch boundaries, recording shard moves,
//! stale-routed bounces, and migration-copy latency (p50/p99).

use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gravel_apps::gups::{self, GupsInput};
use gravel_bench::report::{f2, Table};
use gravel_core::ha::sim::{self, Fault, Scenario};
use gravel_core::ha::{Rebalancer, TopologyChange};
use gravel_core::net::LinkFault;
use gravel_core::{
    FaultConfig, GravelConfig, GravelRuntime, Registry, RegistrySnapshot, RpcFailure, TransportKind,
};
use gravel_pgas::{Directory, ShardMap, DEFAULT_SHARDS};

/// One sweep cell's telemetry: the injected fault kind/probability, the
/// wire-integrity and request-reply headline counters, and the
/// cluster's complete metric snapshot at quiescence.
#[derive(serde::Serialize)]
struct TelemetryCell {
    fault_kind: String,
    fault_prob: f64,
    corrupt_dropped: u64,
    truncated: u64,
    misrouted: u64,
    quarantined: u64,
    /// Request-reply ledger for the cell's GET probe stream (DESIGN.md
    /// §15): every probe ends as a completion, a deterministic timeout
    /// or a restart failure — `rpc_issued == rpc_completed +
    /// rpc_timeouts + rpc_restarted` is asserted before the cell is
    /// recorded.
    rpc_issued: u64,
    rpc_completed: u64,
    rpc_timeouts: u64,
    rpc_restarted: u64,
    rpc_replies_sent: u64,
    rpc_credits_stalled: u64,
    /// Present only on the reshard cells: the directory-churn axis and
    /// its exactly-once ledger (DESIGN.md §16).
    #[serde(skip_serializing_if = "Option::is_none")]
    reshard: Option<ReshardStats>,
    /// Present only on the failover cells: the coordinator-failover /
    /// partition axis (DESIGN.md §18).
    #[serde(skip_serializing_if = "Option::is_none")]
    failover: Option<FailoverStats>,
    telemetry: RegistrySnapshot,
}

/// One failover cell's outcome: how fast (virtual time) the successor
/// won the lease after the holder died, and how the quorum gate held
/// under partitions and one-way drops.
#[derive(Clone, Default, serde::Serialize)]
struct FailoverStats {
    scenario: String,
    members: u64,
    trials: u64,
    /// Lease takeovers asserted (coordinator-kill trials: one each).
    takeovers: u64,
    /// Eviction rounds denied by a majority that still heard the
    /// suspect (one-way cells: at least one per trial).
    evictions_vetoed: u64,
    /// Distinct `(term, holder)` views among the live members once a
    /// trial has settled, the most of any trial — 1 unless the lease
    /// forked.
    forked_maps: u64,
    /// Virtual kill → takeover latency (detector latch + quorum).
    takeover_p50_ns: u64,
    takeover_p99_ns: u64,
    /// Trials whose first migration after the kill (the corpse's EVICT,
    /// or the JOIN it cut short) completed, and kill → completion.
    migrated: u64,
    migrated_p50_ns: u64,
    migrated_p99_ns: u64,
}

/// One reshard cell's outcome: how much the directory churned, what the
/// churn moved, and what it cost the senders that raced it.
#[derive(Default, serde::Serialize)]
struct ReshardStats {
    /// Topology changes committed (map flips) — the cell's sweep axis.
    flips: u64,
    /// Final installed `ShardMap` version (`1 + flips`).
    map_version: u64,
    /// Shard migrations executed across all committed plans.
    moves: u64,
    /// Heap words copied by those migrations.
    words_moved: u64,
    /// Updates routed on a stale map and refused by the ownership gate.
    stale_routed: u64,
    /// Refused updates re-delivered under the bounced-back map. Must
    /// equal `stale_routed` — the exactly-once ledger.
    redelivered: u64,
    /// Per-shard migration latency (timed copy of the strided words).
    migration_p50_ns: u64,
    migration_p99_ns: u64,
}

impl TelemetryCell {
    /// A model-level cell: no wire, no GET probes.
    fn model(kind: &str, prob: f64, telemetry: RegistrySnapshot) -> Self {
        TelemetryCell {
            fault_kind: kind.to_string(),
            fault_prob: prob,
            corrupt_dropped: 0,
            truncated: 0,
            misrouted: 0,
            quarantined: 0,
            rpc_issued: 0,
            rpc_completed: 0,
            rpc_timeouts: 0,
            rpc_restarted: 0,
            rpc_replies_sent: 0,
            rpc_credits_stalled: 0,
            reshard: None,
            failover: None,
            telemetry,
        }
    }
}

/// Write the per-cell snapshots next to the tabular report.
fn save_telemetry(cells: Vec<TelemetryCell>) {
    let dir = std::env::var("GRAVEL_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join("fault_sweep_telemetry.json");
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = f.write_all(serde_json::to_string_pretty(&cells).unwrap().as_bytes());
        eprintln!("[saved {}]", path.display());
    }
}

/// The sweep's fault axis: probability-`p` loss, or one corruption
/// mechanism at probability `p` with everything else quiet.
fn cell_config(kind: &str, p: f64, seed: u64) -> Option<FaultConfig> {
    let quiet = FaultConfig::quiet(seed);
    match (kind, p) {
        (_, 0.0) => None,
        ("drop", p) => Some(FaultConfig { drop: p, ..quiet }),
        ("flip", p) => Some(FaultConfig { corrupt: p, ..quiet }),
        ("truncate", p) => Some(FaultConfig { truncate: p, ..quiet }),
        ("garbage", p) => Some(FaultConfig { garbage: p, ..quiet }),
        other => unreachable!("unknown sweep cell {other:?}"),
    }
}

/// One reshard cell: replay the elastic membership protocol (DESIGN.md
/// §16) in-process over the real `Directory`/`ShardMap`/`Rebalancer`
/// machinery while four senders stream the deterministic GUPS updates.
/// `flips` join/leave proposals commit one per epoch boundary; every
/// committed plan pays a timed copy of each moving shard's strided
/// words (the `migration_ns` histogram behind the p99 column). Senders
/// route on a snapshot of the map that is refreshed only when the
/// ownership gate refuses them — exactly the stale-routing NACK path
/// the socket cluster takes — so the cell prices directory churn
/// itself: lookups, bounces, re-delivery, and migration copies, with
/// no socket I/O in the way. The cell asserts bit-exact delivery
/// against a sequential replay and a balanced stale/redelivered ledger
/// before it is recorded.
fn run_reshard_cell(input: &GupsInput, flips: u64) -> (ReshardStats, RegistrySnapshot, u64, Duration) {
    let senders = 4usize;
    let capacity = 6usize;
    let nshards = DEFAULT_SHARDS.min(input.table_len.max(1));
    let members: Vec<u32> = (0..senders as u32).collect();
    let dir = Directory::elastic(input.table_len, ShardMap::initial(&members, nshards));
    let mut heaps: Vec<Vec<u64>> = vec![vec![0u64; input.table_len]; capacity];
    let mut reb = Rebalancer::default();
    let registry = Registry::enabled();
    let migration_ns = registry.histogram("bench.reshard.migration_ns");

    // The same per-node update streams the live sweep issues, drained
    // round-robin so every flip lands mid-traffic for all senders.
    let mut streams: Vec<VecDeque<usize>> =
        (0..senders).map(|s| gups::node_updates(input, senders, s).into()).collect();
    let total: u64 = streams.iter().map(|q| q.len() as u64).sum();
    let boundary_every = (total / (flips + 1)).max(1);
    // Joins and leaves of the two spare slots, interleaved so every
    // proposal is non-moot under FIFO commit order.
    let mut schedule: VecDeque<TopologyChange> = (0..flips)
        .map(|i| match i % 4 {
            0 => TopologyChange::Join(4),
            1 => TopologyChange::Join(5),
            2 => TopologyChange::Leave(4),
            _ => TopologyChange::Leave(5),
        })
        .collect();

    let mut stats = ReshardStats::default();

    // Commit the next queued change and migrate its shards: a timed
    // strided copy per move, donor → new owner, then cut the map.
    let boundary = |reb: &mut Rebalancer,
                        schedule: &mut VecDeque<TopologyChange>,
                        heaps: &mut [Vec<u64>],
                        stats: &mut ReshardStats| {
        if reb.is_quiescent() {
            if let Some(change) = schedule.pop_front() {
                reb.propose(change);
            }
        }
        let current = dir.current_map().expect("elastic directory");
        if let Some(plan) = reb.boundary_tick(&current) {
            for m in &plan.moves {
                let t0 = Instant::now();
                let mut g = m.shard as usize;
                let mut words = 0u64;
                while g < input.table_len {
                    heaps[m.to as usize][g] = heaps[m.from as usize][g];
                    g += nshards;
                    words += 1;
                }
                migration_ns.record(t0.elapsed().as_nanos() as u64);
                stats.words_moved += words;
                stats.moves += 1;
                reb.note_shard_ready(m.shard);
            }
            assert!(dir.install(plan.map), "map install must be monotonic");
            stats.flips += 1;
        }
    };

    let mut snaps: Vec<Arc<ShardMap>> =
        (0..senders).map(|_| dir.current_map().expect("elastic directory")).collect();
    let mut issued = 0u64;
    let start = Instant::now();
    loop {
        let mut any = false;
        for s in 0..senders {
            let Some(g) = streams[s].pop_front() else { continue };
            any = true;
            // Route on the sender's snapshot; the gate refuses the
            // update if the installed map owns the word elsewhere, and
            // the bounce hands the sender the new map to retry under.
            let mut dest = snaps[s].owner_of(g as u64);
            let live = dir.current_map().expect("elastic directory");
            if live.owner_of(g as u64) != dest {
                stats.stale_routed += 1;
                snaps[s] = live;
                dest = snaps[s].owner_of(g as u64);
                stats.redelivered += 1;
            }
            heaps[dest as usize][g] = heaps[dest as usize][g].wrapping_add(1);
            issued += 1;
            if issued.is_multiple_of(boundary_every) {
                boundary(&mut reb, &mut schedule, &mut heaps, &mut stats);
            }
        }
        if !any {
            break;
        }
    }
    // Flips the stream was too short to reach commit after the drain —
    // the cell's axis stays exact even when traffic can't race them.
    while !schedule.is_empty() || !reb.is_quiescent() {
        boundary(&mut reb, &mut schedule, &mut heaps, &mut stats);
    }
    let wall = start.elapsed();

    // Bit-exact vs the sequential replay, under the final ownership.
    let final_map = dir.current_map().expect("elastic directory");
    let mut expected = vec![0u64; input.table_len];
    for s in 0..senders {
        for g in gups::node_updates(input, senders, s) {
            expected[g] += 1;
        }
    }
    for (g, want) in expected.iter().enumerate() {
        let owner = final_map.owner_of(g as u64) as usize;
        assert_eq!(heaps[owner][g], *want, "reshard cell diverged at index {g} (flips={flips})");
    }
    assert_eq!(
        stats.stale_routed, stats.redelivered,
        "reshard ledger out of balance at flips={flips}"
    );
    assert_eq!(stats.flips, flips, "a scheduled topology change went moot at flips={flips}");
    stats.map_version = final_map.version;
    assert_eq!(stats.map_version, 1 + flips, "map version must count every commit");

    let telemetry = registry.snapshot();
    if let Some(h) = telemetry.histogram("bench.reshard.migration_ns") {
        stats.migration_p50_ns = h.p50();
        stats.migration_p99_ns = h.p99();
    }
    (stats, telemetry, issued, wall)
}

/// One failover cell: `trials` runs of the HA machine in virtual time
/// (`gravel_core::ha::sim`, the suite's harness), so the takeover
/// latency is the protocol's — detector latch plus vote rounds. Trial
/// k of K faults at 400 + 600·k/K ms, across four vote-round cycles;
/// control frames are never lost.
/// * `coordinator-kill` — node 0 of 5, the holder, dies.
/// * `partition` — a 3/3 split of 6 for 2 s: 3 votes never reach
///   quorum(6) = 4, so nobody takes the lease or evicts.
/// * `one-way` — node 3 of 4 stops hearing node 0 for 2 s; the
///   majority that still hears node 0 vetoes its suspicion.
/// * `join-holder-kill` — a fifth slot JOINs 4 members and the holder
///   dies right after committing it (the kill comes with the commit,
///   so only tick phases and jitter vary); the successor re-drives the
///   migration, pulling the dead donor's shards from its ward.
fn run_failover_cell(scenario: &str, trials: u64) -> FailoverStats {
    let mut stats = FailoverStats { scenario: scenario.to_string(), trials, ..Default::default() };
    let (mut latencies, mut migrations) = (Vec::new(), Vec::new());
    for seed in 0..trials {
        let from = Duration::from_millis(400 + 600 * seed / trials);
        let until = from + Duration::from_secs(2);
        let (n, fault) = match scenario {
            "coordinator-kill" => (5, Fault::Kill { node: 0, at: from }),
            "partition" => {
                (6, Fault::Cut(LinkFault::Partition { island: vec![0, 1, 2], from, until }))
            }
            "one-way" => (4, Fault::Cut(LinkFault::OneWay { src: 0, dest: 3, from, until })),
            "join-holder-kill" => (4, Fault::JoinHolderKilled),
            other => unreachable!("unknown failover scenario {other:?}"),
        };
        stats.members = n as u64;
        let grace = Duration::from_millis(1500);
        let sc = Scenario { n, fault, jitter_us: 1500, loss: 0.0, evict_grace: grace, seed };
        let out = sim::run(&sc).unwrap_or_else(|e| panic!("failover cell {scenario}: {e}"));
        stats.takeovers += out.takeovers;
        stats.evictions_vetoed += out.vetoes;
        stats.forked_maps = stats.forked_maps.max(out.forked_maps as u64);
        latencies.extend(out.takeover_after.map(|d| d.as_nanos() as u64));
        migrations.extend(out.migrated_after.map(|d| d.as_nanos() as u64));
    }
    // Exact ranks: a registry histogram's buckets are ~12 % wide.
    let ranks = |mut v: Vec<u64>| {
        v.sort_unstable();
        let rank = |q: f64| {
            let i = (q * v.len() as f64).ceil() as usize;
            v.get(i.clamp(1, v.len().max(1)) - 1).copied().unwrap_or(0)
        };
        (rank(0.50), rank(0.99))
    };
    stats.migrated = migrations.len() as u64;
    (stats.takeover_p50_ns, stats.takeover_p99_ns) = ranks(latencies);
    (stats.migrated_p50_ns, stats.migrated_p99_ns) = ranks(migrations);
    stats
}

fn main() {
    let scale = std::env::args().any(|a| a == "--full");
    let input = if scale {
        GupsInput { updates: 500_000, table_len: 1 << 14, seed: 7 }
    } else {
        GupsInput { updates: 50_000, table_len: 4096, seed: 7 }
    };
    let nodes = 4;
    let sweep: Vec<(&str, f64)> = [0.0, 0.001, 0.01, 0.05, 0.10]
        .iter()
        .map(|&p| ("drop", p))
        .chain(
            ["flip", "truncate", "garbage"]
                .iter()
                .flat_map(|&k| [0.001, 0.01].map(|p| (k, p))),
        )
        .collect();

    let mut t = Table::new(
        "fault_sweep",
        "GUPS under injected loss and corruption (4 nodes, live runtime)",
        &[
            "fault",
            "prob",
            "updates",
            "wall ms",
            "Mupdates/s",
            "retransmits",
            "dups suppressed",
            "stalls",
            "packets lost",
            "corrupt refused",
            "quarantined",
            "GETs ok",
            "GETs t/o",
        ],
    );

    let mut cells: Vec<TelemetryCell> = Vec::new();
    for (kind, prob) in sweep {
        let mut cfg = GravelConfig::small(nodes, input.table_len);
        cfg.node_queue_bytes = 4096;
        if let Some(faults) = cell_config(kind, prob, 0xFA57) {
            cfg.transport = TransportKind::Unreliable(faults);
        }
        let rt = GravelRuntime::new(cfg);
        let start = Instant::now();
        let issued = gups::run_live(&rt, &input);
        rt.quiesce();
        let wall = start.elapsed();
        // GET probes under the same fault model: request-reply frames
        // ride the degraded links, so drops and corruption hit them the
        // way they hit bulk traffic. Every probe must end bit-exact
        // (the GUPS table is quiescent) or as a deterministic timeout.
        let mut gets_ok = 0u64;
        let mut gets_timed_out = 0u64;
        for i in 0..32usize {
            let src = i % nodes;
            let dest = ((src + 1 + i / nodes) % nodes) as u32;
            let addr = (i % 16) as u64;
            match rt.host_get(src, dest, addr) {
                Ok(v) => {
                    assert_eq!(
                        v,
                        rt.heap(dest as usize).load(addr),
                        "GET returned a wrong value at {kind}={prob}"
                    );
                    gets_ok += 1;
                }
                Err(RpcFailure::TimedOut) => gets_timed_out += 1,
                Err(other) => panic!("non-deterministic GET failure at {kind}={prob}: {other}"),
            }
        }
        rt.quiesce();
        // Reconcile the probe outcomes against the rpc ledger before
        // recording the cell: the counters must balance, every Ok the
        // caller saw must be a counted completion, and nothing may
        // linger in a pending-reply table.
        let node_stats: Vec<_> = (0..nodes).map(|n| rt.node(n).stats()).collect();
        let rpc_issued: u64 = node_stats.iter().map(|s| s.rpc.issued).sum();
        let rpc_completed: u64 = node_stats.iter().map(|s| s.rpc.completed).sum();
        let rpc_timeouts: u64 = node_stats.iter().map(|s| s.rpc.timeouts).sum();
        let rpc_restarted: u64 = node_stats.iter().map(|s| s.rpc.restarted).sum();
        assert_eq!(rpc_issued, 32, "probe count off at {kind}={prob}");
        assert_eq!(
            rpc_issued,
            rpc_completed + rpc_timeouts + rpc_restarted,
            "rpc ledger out of balance at {kind}={prob}"
        );
        assert_eq!(rpc_completed, gets_ok, "completions != observed Oks at {kind}={prob}");
        for n in 0..nodes {
            assert_eq!(rt.node(n).rpc.len(), 0, "node {n} pending table leaked at {kind}={prob}");
        }
        let telemetry = rt.telemetry_snapshot();
        let stats = rt.shutdown().expect("GUPS must survive the fault sweep");
        assert_eq!(
            stats.total_offloaded(),
            stats.total_applied(),
            "lost updates at {kind}={prob}"
        );
        let truncated: u64 = stats.nodes.iter().map(|n| n.net.truncated).sum();
        let misrouted: u64 = stats.nodes.iter().map(|n| n.net.misrouted).sum();
        cells.push(TelemetryCell {
            fault_kind: kind.to_string(),
            fault_prob: prob,
            corrupt_dropped: stats.total_corrupt_dropped(),
            truncated,
            misrouted,
            quarantined: stats.total_quarantined(),
            rpc_issued,
            rpc_completed,
            rpc_timeouts,
            rpc_restarted,
            rpc_replies_sent: stats.nodes.iter().map(|n| n.rpc.replies_sent).sum(),
            rpc_credits_stalled: stats.nodes.iter().map(|n| n.rpc.credits_stalled).sum(),
            reshard: None,
            failover: None,
            telemetry,
        });
        let rate = issued as f64 / wall.as_secs_f64() / 1e6;
        t.row(vec![
            kind.to_string(),
            format!("{prob:.3}"),
            issued.to_string(),
            f2(wall.as_secs_f64() * 1e3),
            f2(rate),
            stats.total_retransmits().to_string(),
            stats.total_dups_suppressed().to_string(),
            stats.total_backpressure_stalls().to_string(),
            stats.faults.total_losses().to_string(),
            stats.total_integrity_drops().to_string(),
            stats.total_quarantined().to_string(),
            gets_ok.to_string(),
            gets_timed_out.to_string(),
        ]);
    }
    t.emit();

    // ---- Reshard cells: the same GUPS stream under directory churn
    // instead of link faults. The axis is committed topology flips;
    // the measured planes are migration cost (moves, words, p50/p99
    // copy latency) and what stale routing cost the senders.
    let mut rt = Table::new(
        "reshard_sweep",
        "GUPS under elastic membership churn (model-level reshard replay)",
        &[
            "flips",
            "updates",
            "wall ms",
            "Mupdates/s",
            "map ver",
            "moves",
            "words moved",
            "stale routed",
            "redelivered",
            "mig p50 ns",
            "mig p99 ns",
        ],
    );
    for flips in [0u64, 4, 16, 64] {
        let (rs, telemetry, issued, wall) = run_reshard_cell(&input, flips);
        let rate = issued as f64 / wall.as_secs_f64() / 1e6;
        rt.row(vec![
            flips.to_string(),
            issued.to_string(),
            f2(wall.as_secs_f64() * 1e3),
            f2(rate),
            rs.map_version.to_string(),
            rs.moves.to_string(),
            rs.words_moved.to_string(),
            rs.stale_routed.to_string(),
            rs.redelivered.to_string(),
            rs.migration_p50_ns.to_string(),
            rs.migration_p99_ns.to_string(),
        ]);
        cells.push(TelemetryCell {
            reshard: Some(rs),
            ..TelemetryCell::model("reshard", flips as f64, telemetry)
        });
    }
    rt.emit();

    // ---- Failover cells: the coordinator-failover protocol replayed
    // in virtual time (DESIGN.md §18). The headline numbers are the
    // kill → takeover latency distribution and the quorum gate holding
    // under partitions and one-way drops.
    let mut ft = Table::new(
        "failover_sweep",
        "Coordinator failover and partition tolerance (HA machine, virtual time)",
        &[
            "scenario",
            "members",
            "trials",
            "takeovers",
            "vetoed",
            "forked maps",
            "takeover p50 ms",
            "takeover p99 ms",
            "migrated",
            "migrated p50 ms",
            "migrated p99 ms",
        ],
    );
    let trials = if scale { 200 } else { 50 };
    for scenario in ["coordinator-kill", "partition", "one-way", "join-holder-kill"] {
        let fs = run_failover_cell(scenario, trials);
        ft.row(vec![
            fs.scenario.clone(),
            fs.members.to_string(),
            fs.trials.to_string(),
            fs.takeovers.to_string(),
            fs.evictions_vetoed.to_string(),
            fs.forked_maps.to_string(),
            f2(fs.takeover_p50_ns as f64 / 1e6),
            f2(fs.takeover_p99_ns as f64 / 1e6),
            fs.migrated.to_string(),
            f2(fs.migrated_p50_ns as f64 / 1e6),
            f2(fs.migrated_p99_ns as f64 / 1e6),
        ]);
        cells.push(TelemetryCell {
            failover: Some(fs),
            ..TelemetryCell::model("failover", 0.0, RegistrySnapshot::default())
        });
    }
    ft.emit();
    save_telemetry(cells);
}

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
//! churn (DESIGN.md §16) instead of link faults: `gravel_core::ha::sim`'s
//! data plane (the real gate, packetizer, receive state and buddy log)
//! streams four members' weighted INCs while two spare slots join and
//! leave, recording shard moves, stale-routed bounces and the virtual
//! pull → serve latency (p50/p99) of each migrated shard.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gravel_apps::gups::{self, GupsInput};
use gravel_bench::report::{f2, Table};
use gravel_core::ha::sim::{self, Churn, Fault, Scenario};
use gravel_core::ha::TopologyChange;
use gravel_core::net::LinkFault;
use gravel_core::{
    FaultConfig, GravelConfig, GravelRuntime, RegistrySnapshot, RpcFailure, TransportKind,
};

/// One sweep cell's telemetry: the injected fault kind/probability, the
/// wire-integrity and request-reply headline counters, and the
/// cluster's complete metric snapshot at quiescence (empty for the
/// virtual-time cells, which have no wire and no GET probes).
#[derive(Default, serde::Serialize)]
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
    /// Updates the members streamed.
    updates: u64,
    /// Shard migrations installed across all committed plans.
    moves: u64,
    /// Heap words those migrations carried.
    words_moved: u64,
    /// Updates refused by the gate (routed on a stale map), re-queued by
    /// their sender, and lost to a dead sender: `stale_routed ==
    /// redelivered + bounce_dropped` is the exactly-once ledger.
    stale_routed: u64,
    redelivered: u64,
    bounce_dropped: u64,
    /// Words an owner holds wrong against the sequential truth.
    miscounted: u64,
    /// Per-shard pull → serve latency, virtual milliseconds.
    migration_p50_ms: f64,
    migration_p99_ms: f64,
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

/// One reshard cell: `ha::sim`'s churn family without a kill. Members
/// 0–3 stream 2 000 weighted INCs each, four a 5 ms step, while the
/// spares 4 and 5 join and leave in turn (`flips` changes, each asked as
/// soon as the one before it committed), over a lossless control
/// fabric. The sim holds the owners' heaps bit-exact against the
/// sequential truth and the stale-routing ledger balanced; so does the
/// cell, before it is recorded.
fn reshard_cell(flips: u64) -> ReshardStats {
    let cycle = [
        TopologyChange::Join(4),
        TopologyChange::Join(5),
        TopologyChange::Leave(4),
        TopologyChange::Leave(5),
    ];
    let changes = (0..flips as usize).map(|i| (Duration::ZERO, cycle[i % 4])).collect();
    let churn = Churn { spares: 2, changes, updates: 2000, rate: 4, kill: None };
    let (fault, evict_grace) = (Fault::Churn(churn), Duration::from_secs(60));
    let sc = Scenario { n: 4, fault, jitter_us: 1500, loss: 0.0, evict_grace, seed: 7 };
    let o = sim::run(&sc).unwrap_or_else(|e| panic!("reshard cell at flips={flips}: {e}"));
    assert!(o.drained && o.changes as u64 == flips, "flips={flips}: {o:?}");
    assert!(o.miscounted.is_empty(), "reshard cell diverged at flips={flips}: {o:?}");
    assert_eq!(o.stale_routed, o.redelivered + o.bounce_dropped, "ledger at flips={flips}");
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (p50, p99) = ranks(o.migrations.iter().map(|d| d.as_nanos() as u64).collect());
    ReshardStats {
        flips,
        map_version: o.version,
        updates: 4 * 2000,
        moves: o.moves,
        words_moved: o.words_moved,
        stale_routed: o.stale_routed,
        redelivered: o.redelivered,
        bounce_dropped: o.bounce_dropped,
        miscounted: o.miscounted.len() as u64,
        migration_p50_ms: ms(Duration::from_nanos(p50)),
        migration_p99_ms: ms(Duration::from_nanos(p99)),
    }
}

/// The exact p50 and p99 ranks of `v` (0 if empty): a registry
/// histogram's buckets are ~12 % wide.
fn ranks(mut v: Vec<u64>) -> (u64, u64) {
    v.sort_unstable();
    let rank = |q: f64| {
        let i = (q * v.len() as f64).ceil() as usize;
        v.get(i.clamp(1, v.len().max(1)) - 1).copied().unwrap_or(0)
    };
    (rank(0.50), rank(0.99))
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

    // ---- Reshard cells: membership churn instead of link faults, in
    // virtual time. The axis is committed topology flips; the measured
    // planes are migration cost (moves, words, p50/p99 pull → serve) and
    // what stale routing cost the senders that raced it.
    let mut rt = Table::new(
        "reshard_sweep",
        "Weighted INCs under elastic membership churn (ha::sim data plane, virtual time)",
        &[
            "flips",
            "updates",
            "map ver",
            "moves",
            "words moved",
            "stale routed",
            "redelivered",
            "bounce dropped",
            "mig p50 ms",
            "mig p99 ms",
        ],
    );
    for flips in [0u64, 4, 16, 64] {
        let rs = reshard_cell(flips);
        let counts = [flips, rs.updates, rs.map_version, rs.moves, rs.words_moved];
        let ledger = [rs.stale_routed, rs.redelivered, rs.bounce_dropped];
        let mut row: Vec<String> = counts.iter().chain(&ledger).map(u64::to_string).collect();
        row.extend([f2(rs.migration_p50_ms), f2(rs.migration_p99_ms)]);
        rt.row(row);
        let (fault_kind, fault_prob) = ("reshard".to_string(), flips as f64);
        cells.push(TelemetryCell { fault_kind, fault_prob, reshard: Some(rs), ..Default::default() });
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
        let fault_kind = "failover".to_string();
        cells.push(TelemetryCell { fault_kind, failover: Some(fs), ..Default::default() });
    }
    ft.emit();
    save_telemetry(cells);
}

//! Elastic membership acceptance: a real-process cluster grows and
//! shrinks at epoch boundaries while traffic flows, under chaos.
//!
//! The headline scenario (ISSUE §acceptance): a 4-process socket
//! cluster with capacity for 6 admits two live joiners, one of which is
//! SIGKILLed in the worst mid-migration window (shard words written,
//! epoch not yet cut) and restarted; both joiners then leave again via
//! SIGUSR1. The final heap must be bit-exact against the sequential
//! truth *and* against a static-membership run of the same streams, and
//! the stale-routing ledger must reconcile.

mod common;

use std::process::Child;
use std::time::{Duration, Instant};

use common::Cluster;
use gravel_apps::gups::GupsInput;
use gravel_node::elastic;
use gravel_node::report::{read_report, OutReport};
use gravel_node::signal::{send_signal, SIGKILL, SIGUSR1};

/// Cluster-wide exactly-once ledger over a set of final (quiesced)
/// reports: every bounce was either re-enqueued at its sender or
/// counted as dropped toward a dead one.
fn ledger(reports: &[OutReport]) -> (u64, u64, u64) {
    let stale: u64 = reports.iter().map(|r| r.stats.reshard_stale_routed).sum();
    let redel: u64 = reports.iter().map(|r| r.stats.reshard_redelivered).sum();
    let dropped: u64 = reports.iter().map(|r| r.stats.reshard_bounce_dropped).sum();
    (stale, redel, dropped)
}

/// The first reading of `slots`' reports that `pred` holds for.
fn first_reports(
    cluster: &Cluster,
    slots: &[usize],
    timeout: Duration,
    what: &str,
    pred: impl Fn(&[OutReport]) -> bool,
) -> Vec<OutReport> {
    let deadline = Instant::now() + timeout;
    loop {
        let reports: Vec<OutReport> =
            slots.iter().filter_map(|&n| read_report(&cluster.out_path(n)).ok()).collect();
        if reports.len() == slots.len() && pred(&reports) {
            return reports;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn grow_shrink_under_chaos_matches_static_run_bit_exact() {
    // A stream long enough that both joins land mid-traffic: the flips
    // must race live packets, or the stale-routing path is never
    // exercised (asserted on the reports and the ledger below). The
    // members stream ~210 k updates/s in a debug build and ~3 M/s in
    // `--release` (2 vCPUs); the map reaches version 3 about 250 ms
    // after the joiners start, so each size streams for ~2 s.
    let updates = if cfg!(debug_assertions) { 480_000 } else { 6_000_000 };
    let input = GupsInput { updates, table_len: 96, seed: 17 };
    let senders: Vec<u32> = (0..4).collect();
    let expected = elastic::expected_table(&input, 6, &senders);

    // ---- Static-membership reference: same capacity, same streams,
    // nobody joins or leaves. This is the "static-N run" the chaos
    // run's final heap must match bit for bit.
    let static_table = {
        let cluster = Cluster::elastic("reshard_static", input, 6, 4);
        let mut children: Vec<(usize, Child)> =
            (0..4).map(|n| (n, cluster.spawn(n, &[]))).collect();
        let settled = cluster.wait_settled(
            &[0, 1, 2, 3],
            Duration::from_secs(45),
            "static elastic drain",
            Some(&expected),
            |r| r.completed && r.sender_drained && r.members == vec![0, 1, 2, 3],
        );
        let table = cluster.assemble(&settled);
        let finals = cluster.sigterm_and_reap(&mut children);
        // No topology changes: the gate never bounced anything.
        let (stale, redel, dropped) = ledger(&finals);
        assert_eq!((stale, redel, dropped), (0, 0, 0), "static run must not bounce");
        for r in &finals {
            assert_eq!(r.map_version, 1, "static membership never flips the map");
        }
        assert_eq!(table, expected, "static elastic run vs sequential truth");
        table
    };

    // ---- Chaos run: grow 4 → 6 (one joiner killed mid-migration and
    // restarted), then shrink back to 4 via SIGUSR1 leaves.
    let cluster = Cluster::elastic("reshard_chaos", input, 6, 4);
    // A huge evict grace: the mid-migration corpse must be *recovered*,
    // not evicted — eviction has its own test below.
    let grace = vec!["--evict-grace-ms".to_string(), "60000".to_string()];
    let mut children: Vec<(usize, Child)> =
        (0..4).map(|n| (n, cluster.spawn(n, &grace))).collect();

    // Grow only once every initial member reports streaming.
    let initial = [0, 1, 2, 3];
    let streaming = |r: &OutReport| r.updates_issued > 0 && !r.sender_drained;
    first_reports(&cluster, &initial, Duration::from_secs(30), "the members to stream", |rs| {
        rs.iter().all(streaming)
    });

    // Joiner 4 self-SIGKILLs while installing its first migrated shard
    // (words written, checkpoint-ready marked, epoch not yet cut — the
    // window where only the re-pull protocol can save the shard).
    let mut kill_extra = grace.clone();
    kill_extra.extend(["--kill-on-migrate".to_string(), "1".to_string()]);
    let mut joiner4 = cluster.spawn(4, &kill_extra);
    children.push((5, cluster.spawn(5, &grace)));

    let status = joiner4.wait().unwrap();
    assert!(!status.success(), "joiner must die by SIGKILL, got {status:?}");

    // Restart the corpse with the same command line minus the kill
    // switch: it resyncs the map (MAP_REQ → outstanding moves) and
    // re-pulls the half-installed shard from its donor.
    children.push((4, cluster.spawn(4, &grace)));

    // Both joins raced the stream: a member still streamed at version 3.
    let at_v3 = first_reports(&cluster, &initial, Duration::from_secs(60), "map version 3", |rs| {
        rs.iter().any(|r| r.map_version >= 3)
    });
    assert!(
        at_v3.iter().any(|r| !r.sender_drained),
        "every member drained before the map reached version 3: {:?}",
        at_v3.iter().map(|r| (r.node, r.map_version, r.updates_issued)).collect::<Vec<_>>()
    );

    let all: Vec<usize> = (0..6).collect();
    let grown = cluster.wait_settled(
        &all,
        Duration::from_secs(60),
        "grow to 6 members, bit-exact",
        Some(&expected),
        |r| r.completed && r.sender_drained && r.members == vec![0, 1, 2, 3, 4, 5],
    );
    // The grown map really moved shards onto the joiners, and the
    // joiners pulled them over the wire.
    for joiner in [4u64, 5u64] {
        let r = grown.iter().find(|r| r.node == joiner).unwrap();
        assert!(r.stats.reshard_shards_in > 0, "joiner {joiner} pulled shards");
        assert!(r.stats.reshard_bytes_migrated > 0, "joiner {joiner} migrated bytes");
    }
    assert!(
        grown[0].shard_owners.iter().any(|&o| o >= 4),
        "grown directory assigns shards to joiners"
    );
    // Traffic kept flowing across both flips: the table under the
    // 6-member map is already exact.
    assert_eq!(cluster.assemble(&grown), expected, "grown table vs sequential truth");

    // ---- Shrink: both joiners ask to leave (SIGUSR1 → LEAVE_REQ →
    // epoch-boundary commit → shards migrate back), then keep serving
    // as non-members until torn down.
    for (slot, c) in children.iter() {
        if *slot >= 4 {
            assert!(send_signal(c.id(), SIGUSR1), "SIGUSR1 to node {slot}");
        }
    }
    let shrunk = cluster.wait_settled(
        &all,
        Duration::from_secs(60),
        "shrink back to 4 members, bit-exact",
        Some(&expected),
        |r| r.completed && r.sender_drained && r.members == vec![0, 1, 2, 3],
    );
    // initial v1 + join + join + leave + leave = v5 everywhere.
    for r in &shrunk {
        assert_eq!(r.map_version, 5, "node {} final map version", r.node);
        assert!(
            r.shard_owners.iter().all(|&o| o < 4),
            "node {} directory routes to a departed member",
            r.node
        );
    }

    let chaos_table = cluster.assemble(&shrunk);
    assert_eq!(chaos_table, expected, "chaos table vs sequential truth");
    assert_eq!(chaos_table, static_table, "chaos grow/shrink vs static-N run");

    let finals = cluster.sigterm_and_reap(&mut children);
    assert_eq!(cluster.assemble(&finals), expected, "post-teardown table");

    // Ledger: every bounce was re-enqueued; no sender died, so nothing
    // was dropped. The SIGKILLed joiner's own stale_routed counter dies
    // with its first incarnation while the senders' redelivered counts
    // survive, so the surviving ledger is `redelivered >= stale_routed`
    // (equality whenever the kill window saw no bounces).
    let (stale, redel, dropped) = ledger(&finals);
    assert_eq!(dropped, 0, "no bounce ever lost its sender");
    assert!(
        redel >= stale,
        "ledger went backwards: stale_routed={stale} redelivered={redel}"
    );
    // The flips really exercised the stale-routing path: with senders
    // streaming across four map versions, at least one packet must have
    // raced a flip and bounced.
    assert!(redel > 0, "grow/shrink under live traffic never bounced a message");
}

#[test]
fn dead_member_is_evicted_and_its_shards_recovered_from_ward() {
    let input = GupsInput { updates: 1400, table_len: 128, seed: 23 };
    let senders: Vec<u32> = (0..4).collect();
    let expected = elastic::expected_table(&input, 4, &senders);

    let cluster = Cluster::elastic("reshard_evict", input, 4, 4);
    let extra = vec!["--evict-grace-ms".to_string(), "700".to_string()];
    let mut spawned: Vec<(usize, Child)> =
        (0..4).map(|n| (n, cluster.spawn(n, &extra))).collect();

    // Drain first: the victim's stream must be fully acked (and thus
    // forwarded to its ward keeper) before the kill, so the ward holds
    // everything the cluster ever acknowledged.
    cluster.wait_settled(
        &[0, 1, 2, 3],
        Duration::from_secs(45),
        "pre-kill drain",
        Some(&expected),
        |r| r.completed && r.sender_drained,
    );

    // kill -9 node 2 (not the coordinator, not the coordinator's
    // buddy): no goodbye, no final checkpoint. Its ward keeper is node
    // 3 by the buddy ring.
    let victim = 2usize;
    let idx = spawned.iter().position(|(s, _)| *s == victim).unwrap();
    let (_, mut corpse) = spawned.remove(idx);
    assert!(send_signal(corpse.id(), SIGKILL), "SIGKILL delivery");
    let status = corpse.wait().unwrap();
    assert!(!status.success(), "victim must die by SIGKILL");

    // Failure detector latches, grace expires, the coordinator commits
    // EVICT at an epoch boundary, and the victim's shards are pulled
    // out of its buddy's ward reconstruction by their new owners.
    let survivors = [0usize, 1, 3];
    let settled = cluster.wait_settled(
        &survivors,
        Duration::from_secs(45),
        "evict and ward takeover, bit-exact",
        Some(&expected),
        |r| r.completed && r.sender_drained && r.members == vec![0, 1, 3],
    );
    for r in &settled {
        assert_eq!(r.map_version, 2, "node {} map version after one evict", r.node);
        assert!(
            r.shard_owners.iter().all(|&o| o != victim as u32),
            "node {} still routes to the evicted member",
            r.node
        );
    }
    assert!(
        settled.iter().map(|r| r.stats.reshard_shards_in).sum::<u64>() > 0,
        "survivors took over the victim's shards"
    );
    assert!(
        settled.iter().map(|r| r.stats.deaths_declared).sum::<u64>() >= 1,
        "the failure detector declared the victim dead"
    );

    // The evicted node's words are intact: reconstructed from the ward,
    // not resent (the victim is gone for good).
    assert_eq!(cluster.assemble(&settled), expected, "post-evict table");

    let finals = cluster.sigterm_and_reap(&mut spawned);
    assert_eq!(cluster.assemble(&finals), expected, "post-teardown table");
    let (stale, redel, dropped) = ledger(&finals);
    assert_eq!(dropped, 0, "survivors' bounces all found their senders");
    assert!(redel >= stale, "ledger reconciliation");
}

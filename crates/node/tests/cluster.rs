//! Real-process cluster tests: N `gravel-node` binaries over Unix-domain
//! sockets, including the headline `kill -9` recovery scenario.
//!
//! Scales are deliberately tiny — CI runs these on a single core — but
//! the topology is real: separate OS processes, real sockets, a real
//! SIGKILL, and a real restart that must recover its state over the
//! wire from its buddy and converge to the exact no-fault heap.

mod common;

use std::process::{Child, Command};
use std::time::{Duration, Instant};

use common::{Cluster, BIN};
use gravel_apps::gups::GupsInput;
use gravel_net::ChaosPlan;
use gravel_node::report::{read_report, OutReport};
use gravel_node::signal::{send_signal, SIGTERM};

#[test]
fn no_fault_cluster_is_bit_exact_and_sigterm_is_graceful() {
    let input = GupsInput { updates: 900, table_len: 96, seed: 7 };
    let cluster = Cluster::new("cluster_nofault", input, 3);
    let children: Vec<Child> = (0..3).map(|n| cluster.spawn(n, &[])).collect();

    let reports = cluster.wait_all_completed(Duration::from_secs(45));
    cluster.assert_bit_exact(&reports);
    for r in &reports {
        assert!(!r.recovered_from_ckpt, "cold boot must not find a baseline");
        assert!(r.epoch > 0, "epoch cuts flowed");
        assert!(r.stats.fwd_sent > 0, "applied packets were forwarded");
        assert!(r.stats.handshakes >= 2, "full mesh handshakes");
    }

    // Graceful teardown: SIGTERM → final epoch cut → exit 0.
    let mut children: Vec<(usize, Child)> = children.into_iter().enumerate().collect();
    let finals = cluster.sigterm_and_reap(&mut children);
    for r in &finals {
        assert!(r.graceful && r.completed, "node {} final report", r.node);
    }
    cluster.assert_bit_exact(&finals);
}

#[test]
fn kill9_mid_run_recovers_bit_exact_over_the_wire() {
    let input = GupsInput { updates: 1600, table_len: 128, seed: 11 };
    let cluster = Cluster::new("cluster_kill9", input, 4);

    // Pick the victim and the kill step from the same seeded plan the
    // victim process will execute with --kill-at.
    let plan = ChaosPlan::seeded_kill(input.seed, 4, 12);
    let (victim, at_step) = (0..4u32)
        .find_map(|n| plan.process_kill(n).map(|s| (n as usize, s)))
        .expect("seeded plan has a victim");

    let mut children: Vec<Child> = (0..4)
        .map(|n| {
            let extra = if n == victim {
                vec!["--kill-at".to_string(), at_step.to_string()]
            } else {
                vec![]
            };
            cluster.spawn(n, &extra)
        })
        .collect();

    // The victim self-SIGKILLs after applying (and forwarding) packet
    // `at_step`. Reap the corpse and verify it really died by signal.
    let died = Instant::now();
    let status = children[victim].wait().unwrap();
    assert!(!status.success(), "victim must die by SIGKILL, got {status:?}");
    eprintln!("victim node {victim} died after {:?} (kill at step {at_step})", died.elapsed());

    // Let the survivors notice: heartbeats go silent and the
    // phi-accrual detector must latch the death before the new
    // incarnation shows up.
    std::thread::sleep(Duration::from_millis(1500));

    // Restart with the *same* command line minus the kill switch: the
    // new process re-handshakes, pulls its checkpoint + replay log from
    // its buddy over the socket, and resumes.
    children[victim] = cluster.spawn(victim, &[]);

    let reports = cluster.wait_all_completed(Duration::from_secs(50));
    cluster.assert_bit_exact(&reports);

    let vr = &reports[victim];
    assert!(
        vr.recovered_from_ckpt,
        "restarted victim recovered a buddy-held baseline"
    );
    let survivors: Vec<&OutReport> =
        reports.iter().filter(|r| r.node as usize != victim).collect();
    assert!(
        survivors.iter().any(|r| r.stats.membership_losses > 0),
        "a survivor observed the victim's link drop"
    );
    assert!(
        survivors.iter().any(|r| r.stats.membership_rejoins > 0),
        "a survivor observed the new incarnation's handshake"
    );
    assert!(
        survivors.iter().map(|r| r.stats.deaths_declared).sum::<u64>() >= 1,
        "the failure detector declared the victim dead over the wire"
    );
    for r in &survivors {
        assert!(
            r.stats.reconnects <= 8,
            "node {} reconnect storm: {} re-handshakes for one restart",
            r.node,
            r.stats.reconnects
        );
    }

    let mut children: Vec<(usize, Child)> = children.into_iter().enumerate().collect();
    let finals = cluster.sigterm_and_reap(&mut children);
    cluster.assert_bit_exact(&finals);
    for r in &finals {
        assert!(r.graceful, "node {} tore down gracefully after recovery", r.node);
    }
}

/// A restarted member whose heap is not the size of the baseline its
/// buddy holds — here it comes back with another `--table` — must
/// refuse to start. Seeding the cursors of a checkpoint it did not
/// restore would dup-suppress, and so silently lose, every update the
/// cut covers.
#[test]
fn a_restart_with_another_table_size_exits_3() {
    let input = GupsInput { updates: 1600, table_len: 128, seed: 11 };
    let cluster = Cluster::new("cluster_resized", input, 3);
    const VICTIM: usize = 1;
    let kill = ["--kill-at".to_string(), "40".to_string()];
    let mut children: Vec<Child> = (0..3)
        .map(|n| cluster.spawn(n, if n == VICTIM { &kill } else { &[] }))
        .collect();
    let status = children[VICTIM].wait().unwrap();
    assert!(!status.success(), "victim must die by SIGKILL, got {status:?}");

    let resized = ["--table", "256", "--deadline-secs", "20"].map(String::from);
    children[VICTIM] = cluster.spawn(VICTIM, &resized);
    let deadline = Instant::now() + Duration::from_secs(40);
    let status = loop {
        if let Some(status) = children[VICTIM].try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() >= deadline {
            break None;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    for c in &mut children {
        c.kill().ok();
        c.wait().ok();
    }
    assert_eq!(
        status.and_then(|s| s.code()),
        Some(3),
        "the resized restart must refuse its buddy's checkpoint"
    );
}

/// The same scenario at the binary's defaults: 64 kB packets, eight in
/// flight per flow, an epoch every 16 of them. The victim dies about
/// half-way through its inbound streams; its restarted sender restamps
/// from sequence 0 and must catch up by cumulative ack, not by pushing
/// the delivered half of a 25 MB stream through the sockets again.
#[test]
fn kill9_mid_run_at_the_default_packet_size_recovers_and_fast_forwards() {
    let input = GupsInput { updates: 2_400_000, table_len: 4096, seed: 17 };
    let cluster = Cluster::new("cluster_kill9_64k", input, 3);
    // ~195 packets of 4 095 INCs reach each member; die after applying
    // the 100th.
    const VICTIM: usize = 1;
    let kill = ["--kill-at".to_string(), "100".to_string()];
    let mut children: Vec<Child> = (0..3)
        .map(|n| cluster.spawn_default_packets(n, if n == VICTIM { &kill } else { &[] }))
        .collect();
    let status = children[VICTIM].wait().unwrap();
    assert!(!status.success(), "victim must die by SIGKILL, got {status:?}");
    assert!(
        read_report(&cluster.out_path(0)).is_err(),
        "the cluster finished before the kill landed: not a mid-run kill"
    );

    children[VICTIM] = cluster.spawn_default_packets(VICTIM, &[]);
    let reports = cluster.wait_all_completed(Duration::from_secs(50));
    cluster.assert_bit_exact(&reports);
    let vr = &reports[VICTIM];
    assert!(vr.recovered_from_ckpt, "restarted victim recovered a buddy-held baseline");
    assert!(
        vr.stats.fast_forwarded > 0,
        "the restarted sender re-sent what its peers already held"
    );
    for r in &reports {
        let packets = r.stats.fwd_sent + r.stats.fwd_dropped;
        assert!(packets < 1000, "node {} applied {packets} packets: not 64 kB ones", r.node);
    }
    let mut children: Vec<(usize, Child)> = children.into_iter().enumerate().collect();
    let finals = cluster.sigterm_and_reap(&mut children);
    cluster.assert_bit_exact(&finals);
}

#[test]
fn cluster_gets_complete_bit_exact_across_members() {
    // Request-reply traffic over the real sockets: every member issues
    // sentinel GET probes (round-robin across the cluster, self
    // included) on the dedicated RPC wire lane while the GUPS streams
    // run on lane 0. Each probe has exactly one correct answer — the
    // target's (seed, node)-derived sentinel word — so a reply is
    // verified bit-exact, not just received.
    let input = GupsInput { updates: 1200, table_len: 96, seed: 13 };
    let cluster = Cluster::new("cluster_gets", input, 4);
    const GETS: u64 = 32;
    let extra = vec!["--gets".to_string(), GETS.to_string()];
    let children: Vec<Child> = (0..4).map(|n| cluster.spawn(n, &extra)).collect();

    let reports = cluster.wait_all_completed(Duration::from_secs(60));
    cluster.assert_bit_exact(&reports);
    for r in &reports {
        assert_eq!(r.stats.gets_issued, GETS, "node {} probe count", r.node);
        assert_eq!(
            r.stats.gets_mismatched, 0,
            "node {} received a reply that did not match the sentinel",
            r.node
        );
        assert_eq!(
            r.stats.gets_ok, GETS,
            "node {} no-fault probes must all complete (timed_out={})",
            r.node, r.stats.gets_timed_out
        );
        assert_eq!(r.stats.quarantined, 0, "node {} quarantined frames", r.node);
        assert!(r.quarantine.is_empty(), "node {} quarantine report", r.node);
    }
    let mut children: Vec<(usize, Child)> = children.into_iter().enumerate().collect();
    let finals = cluster.sigterm_and_reap(&mut children);
    cluster.assert_bit_exact(&finals);
    for r in &finals {
        assert!(r.graceful && r.completed, "node {} final report", r.node);
    }
    // Each applied GET produced exactly one reply at its server
    // (retransmitted requests are seq-deduped before apply). Checked on
    // the *final* reports: a mid-run report snapshots its counters when
    // that node completes, which can precede a late peer probe; by
    // teardown every requester has observed every reply, so every
    // server counted it first.
    let replies: u64 = finals.iter().map(|r| r.stats.rpc_replies_sent).sum();
    assert_eq!(replies, 4 * GETS, "cluster-wide replies sent");
}

#[test]
fn sigterm_mid_run_exits_zero_with_graceful_report() {
    // A workload big enough that SIGTERM lands mid-stream.
    let input = GupsInput { updates: 60_000, table_len: 256, seed: 5 };
    let cluster = Cluster::new("cluster_sigterm", input, 2);
    let mut children: Vec<Child> = (0..2).map(|n| cluster.spawn(n, &[])).collect();

    // Past startup recovery (cold boot over local UDS is milliseconds),
    // but far before 60k updates complete.
    std::thread::sleep(Duration::from_millis(500));
    for c in &children {
        assert!(send_signal(c.id(), SIGTERM));
    }
    for (i, c) in children.iter_mut().enumerate() {
        let status = c.wait().unwrap();
        assert!(status.success(), "node {i} exit after SIGTERM: {status:?}");
    }
    // Both wrote a graceful report (completed or not — the point is the
    // quiesce-checkpoint-exit path ran).
    for n in 0..2 {
        let r = read_report(&cluster.out_path(n)).unwrap();
        assert!(r.graceful, "node {n} graceful flag");
    }
}

#[test]
fn usage_errors_exit_64_before_the_node_starts() {
    // `--kill-on-commit` kills an elastic cluster's coordinator; a
    // static cluster has none, so accepting it would run a chaos job
    // with no fault in it. `--integrity` is gone: every frame is CRC32C.
    // A packet of 2^59 messages overflows the window arithmetic, and
    // one of 600 000 (9.6 MB of INC records) is over the socket frame
    // ceiling, as its buddy forward would be: no peer would ever accept
    // it. The update streams draw from an empty table of `--table 0`.
    // A `--link-chaos` spec is checked against the cluster before
    // anything starts: a loopback link, an inverted window, a zero
    // delay and a node outside `--nodes` are usage errors, not panics.
    // A regression would start a node, so the deadline keeps it short.
    let dir = std::env::temp_dir().join(format!("gravel_cluster_usage_{}", std::process::id()));
    for extra in [
        &["--kill-on-commit"][..],
        &["--integrity", "off"],
        &["--msgs-per-packet", "576460752303423488"],
        &["--msgs-per-packet", "600000"],
        &["--table", "0"],
        &["--link-chaos", "oneway:1:1:0:10"],
        &["--link-chaos", "part:0:2000:1000"],
        &["--link-chaos", "delay:0:1:0:0"],
        &["--link-chaos", "oneway:0:9:0:10"],
    ] {
        let out = Command::new(BIN)
            .args(["--node", "0", "--nodes", "2", "--deadline-secs", "1", "--dir"])
            .arg(&dir)
            .args(extra)
            .output()
            .expect("run gravel-node");
        assert_eq!(out.status.code(), Some(64), "{extra:?}: {out:?}");
        if extra[0] == "--link-chaos" {
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(&format!("`{}`", extra[1])), "names the entry: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

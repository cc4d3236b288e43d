//! Coordinator-failover and partition-tolerance acceptance: the
//! control plane survives the death of its own coordinator and never
//! forks the shard map under network partitions.
//!
//! The headline scenarios (ISSUE §acceptance):
//!
//! * `kill -9` of the acting coordinator right after it broadcasts a
//!   moves-carrying TOPO: the successor asserts a higher term, re-drives
//!   the interrupted migration (pulling the dead donor's shards out of
//!   its ward), evicts the corpse, and the final heap is bit-exact.
//! * A seeded symmetric 3/3 partition of a 6-node cluster: neither side
//!   can form an eviction quorum, so the map never forks (version 1 on
//!   every node throughout), and the cluster converges bit-exact after
//!   the heal.
//! * A one-way link drop: the deafened node's suspicion is *vetoed* by
//!   the majority that still hears the suspect — no takeover, no
//!   eviction, term never moves.
//! * The boot coordinator drain-leaves: it hands the lease to its
//!   successor (term 2) and the new holder commits the LEAVE.

use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gravel_apps::gups::GupsInput;
use gravel_node::elastic;
use gravel_node::report::{read_report, OutReport};
use gravel_node::signal::{send_signal, SIGTERM, SIGUSR1};

const BIN: &str = env!("CARGO_BIN_EXE_gravel-node");

/// One cluster of real processes at a time: these tests stress timing
/// (partitions, lease beats, takeover latency) and stay deterministic
/// only without a sibling cluster stealing their cores.
static SERIAL: Mutex<()> = Mutex::new(());

struct Cluster {
    dir: PathBuf,
    input: GupsInput,
    capacity: usize,
    active: usize,
}

impl Cluster {
    fn new(tag: &str, input: GupsInput, capacity: usize, active: usize) -> Cluster {
        let dir = std::env::temp_dir().join(format!("gravel_failover_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Cluster { dir, input, capacity, active }
    }

    fn out_path(&self, node: usize) -> PathBuf {
        self.dir.join(format!("node{node}.json"))
    }

    fn spawn(&self, node: usize, extra: &[String]) -> Child {
        let mut args = vec![
            "--node".into(),
            node.to_string(),
            "--nodes".into(),
            self.capacity.to_string(),
            "--dir".into(),
            self.dir.to_str().unwrap().to_string(),
            "--updates".into(),
            self.input.updates.to_string(),
            "--table".into(),
            self.input.table_len.to_string(),
            "--seed".into(),
            self.input.seed.to_string(),
            "--ckpt-every".into(),
            "4".to_string(),
            // Small packets on purpose: the kill switches and update
            // counts below assume hundreds of packets per stream.
            "--msgs-per-packet".into(),
            "8".to_string(),
            "--deadline-secs".into(),
            "120".to_string(),
            "--out".into(),
            self.out_path(node).to_str().unwrap().to_string(),
            "--active".into(),
            self.active.to_string(),
        ];
        if node >= self.active {
            args.push("--join".into());
        }
        Command::new(BIN).args(&args).args(extra).spawn().expect("spawn gravel-node")
    }

    /// Poll `slots`' reports until `pred` holds for all, *stays* true
    /// across a 600ms re-check, and (when given) the assembled table is
    /// bit-exact. See `tests/reshard.rs` for why a single observation
    /// is not a settlement.
    fn wait_settled(
        &self,
        slots: &[usize],
        timeout: Duration,
        what: &str,
        expected: Option<&[u64]>,
        pred: impl Fn(&OutReport) -> bool,
    ) -> Vec<OutReport> {
        let deadline = Instant::now() + timeout;
        let read_all = |pred: &dyn Fn(&OutReport) -> bool| -> Option<Vec<OutReport>> {
            let reports: Vec<OutReport> = slots
                .iter()
                .filter_map(|&n| read_report(&self.out_path(n)).ok())
                .collect();
            (reports.len() == slots.len() && reports.iter().all(pred)).then_some(reports)
        };
        let exact = |reports: &[OutReport]| match expected {
            None => true,
            Some(want) => self.try_assemble(reports).is_some_and(|got| got == want),
        };
        loop {
            if read_all(&pred).filter(|r| exact(r)).is_some() {
                std::thread::sleep(Duration::from_millis(600));
                if let Some(reports) = read_all(&pred).filter(|r| exact(r)) {
                    return reports;
                }
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {what}; reports: {:?}",
                slots
                    .iter()
                    .map(|&n| read_report(&self.out_path(n)).ok().map(|r| (
                        r.node,
                        r.completed,
                        r.sender_drained,
                        r.map_version,
                        r.ha_term,
                        r.ha_holder,
                        r.members.clone()
                    )))
                    .collect::<Vec<_>>()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Assemble the authoritative table from owner heaps; `None` while
    /// reports disagree on ownership or an owner's report is missing.
    fn try_assemble(&self, reports: &[OutReport]) -> Option<Vec<u64>> {
        let owners = &reports.first()?.shard_owners;
        if owners.is_empty() || reports.iter().any(|r| &r.shard_owners != owners) {
            return None;
        }
        (0..self.input.table_len)
            .map(|g| {
                let owner = owners[g % owners.len()];
                let r = reports.iter().find(|r| r.node == owner as u64)?;
                r.heap.get(g).copied()
            })
            .collect()
    }

    fn assemble(&self, reports: &[OutReport]) -> Vec<u64> {
        self.try_assemble(reports)
            .expect("settled reports must agree on shard ownership")
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn sigterm_and_reap(
    children: &mut [(usize, Child)],
    path_of: impl Fn(usize) -> PathBuf,
) -> Vec<OutReport> {
    for (_, c) in children.iter() {
        assert!(send_signal(c.id(), SIGTERM), "SIGTERM delivery");
    }
    let mut finals = Vec::new();
    for (slot, c) in children.iter_mut() {
        let status = c.wait().unwrap();
        assert!(status.success(), "node {slot} exit status {status:?}");
        finals.push(read_report(&path_of(*slot)).unwrap());
    }
    finals
}

#[test]
fn coordinator_killed_mid_migration_successor_completes_it() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let input = GupsInput { updates: 6_000, table_len: 96, seed: 31 };
    let senders: Vec<u32> = (0..4).collect();
    let expected = elastic::expected_table(&input, 5, &senders);

    let cluster = Cluster::new("coordkill", input, 5, 4);
    let grace = vec!["--evict-grace-ms".to_string(), "800".to_string()];
    // The boot coordinator arms the chaos switch: SIGKILL itself right
    // after broadcasting its next moves-carrying TOPO — which will be
    // the JOIN commit, leaving the shard migration with no coordinator.
    let mut coord_extra = grace.clone();
    coord_extra.push("--kill-on-commit".to_string());
    let mut corpse = cluster.spawn(0, &coord_extra);
    let mut children: Vec<(usize, Child)> =
        (1..4).map(|n| (n, cluster.spawn(n, &grace))).collect();

    // Drain all streams first: node 0's words must be fully forwarded
    // to its ward keeper before it dies, or its shards die with it.
    cluster.wait_settled(
        &[0, 1, 2, 3],
        Duration::from_secs(45),
        "pre-join drain",
        Some(&expected),
        |r| r.completed && r.sender_drained && r.members == vec![0, 1, 2, 3],
    );

    // The join triggers the fatal commit.
    children.push((4, cluster.spawn(4, &grace)));
    let status = corpse.wait().unwrap();
    assert!(!status.success(), "coordinator must die by its own SIGKILL, got {status:?}");

    // Successor story: node 1 quorum-confirms the holder's death,
    // asserts term 2, re-drives the interrupted migration (the dead
    // donor's shards come out of node 1's ward reconstruction), then
    // evicts the corpse. v1 + join + evict = v3.
    let survivors = [1usize, 2, 3, 4];
    let settled = cluster.wait_settled(
        &survivors,
        Duration::from_secs(60),
        "takeover, migration completion, eviction of the corpse",
        Some(&expected),
        |r| {
            r.completed
                && r.sender_drained
                && r.members == vec![1, 2, 3, 4]
                && r.map_version == 3
        },
    );
    for r in &settled {
        assert!(r.ha_term >= 2, "node {} never saw the takeover term", r.node);
        assert_eq!(r.ha_holder, 1, "node {} holder after takeover", r.node);
        assert!(
            r.shard_owners.iter().all(|&o| o != 0),
            "node {} still routes to the dead coordinator",
            r.node
        );
    }
    assert!(
        settled.iter().map(|r| r.stats.ha_takeovers).sum::<u64>() >= 1,
        "nobody counted a takeover"
    );
    let joiner = settled.iter().find(|r| r.node == 4).unwrap();
    assert!(joiner.stats.reshard_moves_in > 0, "the joiner pulled its shards");

    let finals = sigterm_and_reap(&mut children, |n| cluster.out_path(n));
    assert_eq!(cluster.assemble(&finals), expected, "post-teardown table");
}

#[test]
fn symmetric_partition_minority_freezes_and_heals() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let input = GupsInput { updates: 10_000, table_len: 96, seed: 41 };
    let senders: Vec<u32> = (0..6).collect();
    let expected = elastic::expected_table(&input, 6, &senders);

    let cluster = Cluster::new("partition", input, 6, 6);
    // A 3/3 split 1.2s in, healed 3s later. The evict grace (600ms) is
    // far shorter than the partition: without the quorum gate every
    // node would have evicted the far side long before the heal.
    let extra = vec![
        "--link-chaos".to_string(),
        "part:0|1|2:1200:4200".to_string(),
        "--evict-grace-ms".to_string(),
        "600".to_string(),
    ];
    let mut children: Vec<(usize, Child)> =
        (0..6).map(|n| (n, cluster.spawn(n, &extra))).collect();

    let all: Vec<usize> = (0..6).collect();
    let settled = cluster.wait_settled(
        &all,
        Duration::from_secs(90),
        "heal and converge with an unforked map",
        Some(&expected),
        // `deaths_declared >= 1` keeps the wait from settling before the
        // partition window has even opened: convergence alone is already
        // true pre-chaos, and the counter is monotonic so it cannot
        // un-settle after the heal.
        |r| {
            r.completed
                && r.sender_drained
                && r.members == vec![0, 1, 2, 3, 4, 5]
                && r.map_version == 1
                && r.stats.deaths_declared >= 1
        },
    );
    // Both sides really did latch the far side dead — and still nobody
    // could evict: 3 corroborating votes can never reach quorum(6) = 4.
    assert!(
        settled.iter().map(|r| r.stats.deaths_declared).sum::<u64>() >= 1,
        "the partition never even latched a suspicion"
    );
    for r in &settled {
        assert_eq!(r.ha_term, 1, "node {} term moved under partition", r.node);
        assert_eq!(r.stats.ha_takeovers, 0, "node {} asserted a takeover", r.node);
    }

    let finals = sigterm_and_reap(&mut children, |n| cluster.out_path(n));
    for r in &finals {
        assert_eq!(r.map_version, 1, "node {} forked the shard map", r.node);
    }
    assert_eq!(cluster.assemble(&finals), expected, "post-teardown table");
}

#[test]
fn one_way_link_is_vetoed_not_escalated() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let input = GupsInput { updates: 5_000, table_len: 64, seed: 53 };
    let senders: Vec<u32> = (0..4).collect();
    let expected = elastic::expected_table(&input, 4, &senders);

    let cluster = Cluster::new("oneway", input, 4, 4);
    // Node 3 stops hearing node 0 (beats and data both) for 2.4s; the
    // reverse direction stays up. Node 3's suspicion must be vetoed by
    // the majority that still hears node 0 — never an eviction, never
    // a takeover.
    let extra = vec![
        "--link-chaos".to_string(),
        "oneway:0:3:800:3200".to_string(),
        "--evict-grace-ms".to_string(),
        "500".to_string(),
    ];
    let mut children: Vec<(usize, Child)> =
        (0..4).map(|n| (n, cluster.spawn(n, &extra))).collect();

    let all: Vec<usize> = (0..4).collect();
    let settled = cluster.wait_settled(
        &all,
        Duration::from_secs(90),
        "one-way drop healed without membership damage",
        Some(&expected),
        // Gating on node 3's veto counter keeps the wait from settling
        // before the drop window opens (convergence alone holds from
        // t=0); the counter is monotonic, so the settle re-check stands.
        |r| {
            r.completed
                && r.sender_drained
                && r.members == vec![0, 1, 2, 3]
                && r.map_version == 1
                && (r.node != 3 || r.stats.ha_evictions_vetoed >= 1)
        },
    );
    for r in &settled {
        assert_eq!(r.ha_term, 1, "node {} term moved under a one-way drop", r.node);
        assert_eq!(r.stats.ha_takeovers, 0, "node {} asserted a takeover", r.node);
    }
    // The deafened node escalated to a vote and was denied.
    let deaf = settled.iter().find(|r| r.node == 3).unwrap();
    assert!(
        deaf.stats.ha_evictions_vetoed >= 1,
        "node 3's one-sided suspicion was never vetoed"
    );

    let finals = sigterm_and_reap(&mut children, |n| cluster.out_path(n));
    assert_eq!(cluster.assemble(&finals), expected, "post-teardown table");
}

#[test]
fn holder_drain_leave_hands_off_the_lease() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let input = GupsInput { updates: 4_000, table_len: 64, seed: 67 };
    let senders: Vec<u32> = (0..4).collect();
    let expected = elastic::expected_table(&input, 4, &senders);

    let cluster = Cluster::new("handoff", input, 4, 4);
    // Huge grace: nothing here should ever look like a death.
    let extra = vec!["--evict-grace-ms".to_string(), "60000".to_string()];
    let mut children: Vec<(usize, Child)> =
        (0..4).map(|n| (n, cluster.spawn(n, &extra))).collect();

    cluster.wait_settled(
        &[0, 1, 2, 3],
        Duration::from_secs(45),
        "pre-leave drain",
        Some(&expected),
        |r| r.completed && r.sender_drained,
    );

    // SIGUSR1 to the boot holder: under the old single-coordinator
    // design node 0 could never leave. Now it hands the lease to node 1
    // (term 2) and the *new* holder commits the LEAVE.
    let (_, holder_child) = children.iter().find(|(s, _)| *s == 0).unwrap();
    assert!(send_signal(holder_child.id(), SIGUSR1), "SIGUSR1 to node 0");

    let all: Vec<usize> = (0..4).collect();
    let settled = cluster.wait_settled(
        &all,
        Duration::from_secs(45),
        "lease handoff and the old holder's leave",
        Some(&expected),
        |r| {
            r.completed
                && r.sender_drained
                && r.members == vec![1, 2, 3]
                && r.map_version == 2
        },
    );
    for r in &settled {
        assert_eq!(r.ha_term, 2, "node {} term after handoff", r.node);
        assert_eq!(r.ha_holder, 1, "node {} holder after handoff", r.node);
        assert!(
            r.shard_owners.iter().all(|&o| o != 0),
            "node {} still routes to the departed holder",
            r.node
        );
    }

    // The departed holder keeps serving as a non-member until teardown,
    // and every process — including it — exits gracefully.
    let finals = sigterm_and_reap(&mut children, |n| cluster.out_path(n));
    assert_eq!(cluster.assemble(&finals), expected, "post-teardown table");
}

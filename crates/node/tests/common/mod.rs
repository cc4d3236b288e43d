//! The process-cluster harness the node suites share: spawn
//! `gravel-node` members into one directory, poll their JSON reports,
//! tear them down with SIGTERM.
//!
//! Each member's stderr goes to `node{i}.log` in the cluster directory
//! (a restarted member appends to its predecessor's log). When a test
//! panics, dropping the [`Cluster`] prints the tail of every log and
//! SIGKILLs the members it spawned, so a failure leaves its evidence in
//! the test output and no process behind.

#![allow(dead_code)]

use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gravel_apps::gups::{self, GupsInput};
use gravel_node::report::{read_report, OutReport};
use gravel_node::signal::{send_signal, SIGKILL, SIGTERM};

pub const BIN: &str = env!("CARGO_BIN_EXE_gravel-node");

/// Lines of each member's log printed when a test panics.
const LOG_TAIL: usize = 40;

pub struct Cluster {
    pub dir: PathBuf,
    pub input: GupsInput,
    /// `--nodes`: the slot count (an elastic cluster's capacity — every
    /// process must agree on it: the deterministic streams are split
    /// across capacity, not the live membership).
    pub nodes: usize,
    /// `--active`: an elastic cluster's initial membership `0..active`;
    /// `None` for a static cluster.
    pub active: Option<usize>,
    pids: Mutex<Vec<u32>>,
}

impl Cluster {
    /// A static cluster of `nodes` members.
    pub fn new(tag: &str, input: GupsInput, nodes: usize) -> Cluster {
        Self::with(tag, input, nodes, None)
    }

    /// An elastic cluster: `capacity` slots, `0..active` members at boot.
    pub fn elastic(tag: &str, input: GupsInput, capacity: usize, active: usize) -> Cluster {
        Self::with(tag, input, capacity, Some(active))
    }

    fn with(tag: &str, input: GupsInput, nodes: usize, active: Option<usize>) -> Cluster {
        let dir = std::env::temp_dir().join(format!("gravel_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Cluster { dir, input, nodes, active, pids: Mutex::new(Vec::new()) }
    }

    pub fn out_path(&self, node: usize) -> PathBuf {
        self.dir.join(format!("node{node}.json"))
    }

    fn log_path(&self, node: usize) -> PathBuf {
        self.dir.join(format!("node{node}.log"))
    }

    /// Spawn member `node` shipping 8-message packets with an epoch
    /// every 4, so small inputs still make hundreds of packets to aim
    /// the kill switches at. Elastic members get a 120 s deadline,
    /// `--active`, and `--join` for slots outside the initial
    /// membership. `extra` appends flags.
    pub fn spawn(&self, node: usize, extra: &[String]) -> Child {
        let mut args = ["--msgs-per-packet", "8", "--ckpt-every", "4"].map(String::from).to_vec();
        if let Some(active) = self.active {
            let members = active.to_string();
            args.extend(["--deadline-secs", "120", "--active", &members].map(String::from));
            if node >= active {
                args.push("--join".into());
            }
        }
        args.extend_from_slice(extra);
        self.spawn_default_packets(node, &args)
    }

    /// Spawn member `node` with the binary's own packet size and epoch
    /// cadence; `extra` appends flags (e.g. `--kill-at`).
    pub fn spawn_default_packets(&self, node: usize, extra: &[String]) -> Child {
        let log: File =
            OpenOptions::new().create(true).append(true).open(self.log_path(node)).unwrap();
        let child = Command::new(BIN)
            .args([
                "--node",
                &node.to_string(),
                "--nodes",
                &self.nodes.to_string(),
                "--dir",
                self.dir.to_str().unwrap(),
                "--updates",
                &self.input.updates.to_string(),
                "--table",
                &self.input.table_len.to_string(),
                "--seed",
                &self.input.seed.to_string(),
                "--out",
                self.out_path(node).to_str().unwrap(),
            ])
            .args(extra)
            .stderr(log)
            .spawn()
            .expect("spawn gravel-node");
        self.pids.lock().unwrap().push(child.id());
        child
    }

    /// Poll the out files until every member reports `completed`.
    pub fn wait_all_completed(&self, timeout: Duration) -> Vec<OutReport> {
        let deadline = Instant::now() + timeout;
        loop {
            let reports: Vec<OutReport> = (0..self.nodes)
                .filter_map(|n| read_report(&self.out_path(n)).ok())
                .filter(|r| r.completed)
                .collect();
            if reports.len() == self.nodes {
                let mut reports = reports;
                reports.sort_by_key(|r| r.node);
                return reports;
            }
            assert!(
                Instant::now() < deadline,
                "cluster did not complete: {}/{} reports",
                reports.len(),
                self.nodes
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// The static bit-exactness assertion: the union of the per-node
    /// heap slices must equal the sequential histogram of every node's
    /// update stream — the same heap a no-fault run produces.
    pub fn assert_bit_exact(&self, reports: &[OutReport]) {
        let part = gups::partition(&self.input, self.nodes);
        let mut expect = vec![0u64; self.input.table_len];
        for node in 0..self.nodes {
            for g in gups::node_updates(&self.input, self.nodes, node) {
                expect[g] += 1;
            }
        }
        for (g, &want) in expect.iter().enumerate() {
            let owner = part.owner(g);
            let off = part.local_offset(g) as usize;
            assert_eq!(
                reports[owner].heap[off], want,
                "heap mismatch at global index {g} (owner {owner}, offset {off})"
            );
        }
    }

    /// Poll `slots`' reports (rewritten every 250ms by live elastic
    /// nodes) until `pred` holds for all of them, *stays* true across a
    /// re-check 600ms later, and — when `expected` is given — the
    /// assembled table is bit-exact. A drain can transiently flip back
    /// under a late bounce, so a single observation is not a
    /// settlement; and a sender can look drained while a bounce is
    /// still in flight toward it (the bounce acked the original flow),
    /// so on a loaded host the last redeliveries may land *after* every
    /// per-node flag settles — convergence is only proven by the heap
    /// contents themselves.
    pub fn wait_settled(
        &self,
        slots: &[usize],
        timeout: Duration,
        what: &str,
        expected: Option<&[u64]>,
        pred: impl Fn(&OutReport) -> bool,
    ) -> Vec<OutReport> {
        let deadline = Instant::now() + timeout;
        let read_all = |pred: &dyn Fn(&OutReport) -> bool| -> Option<Vec<OutReport>> {
            let reports: Vec<OutReport> =
                slots.iter().filter_map(|&n| read_report(&self.out_path(n)).ok()).collect();
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

    /// Assemble the authoritative elastic table: for every global
    /// index, the word held by the shard's owner under the installed
    /// map. `None` while the reports disagree on ownership (a flip
    /// mid-broadcast) or an owner's report is missing.
    pub fn try_assemble(&self, reports: &[OutReport]) -> Option<Vec<u64>> {
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

    /// [`try_assemble`](Self::try_assemble) on reports that must be
    /// settled (post-teardown finals): disagreement is a failure.
    pub fn assemble(&self, reports: &[OutReport]) -> Vec<u64> {
        self.try_assemble(reports).expect("settled reports must agree on shard ownership")
    }

    /// SIGTERM every `(slot, child)`, require a clean exit, and read the
    /// final reports in order.
    pub fn sigterm_and_reap(&self, children: &mut [(usize, Child)]) -> Vec<OutReport> {
        for (_, c) in children.iter() {
            assert!(send_signal(c.id(), SIGTERM), "SIGTERM delivery");
        }
        let mut finals = Vec::new();
        for (slot, c) in children.iter_mut() {
            let status = c.wait().unwrap();
            assert!(status.success(), "node {slot} exit status {status:?}");
            finals.push(read_report(&self.out_path(*slot)).unwrap());
        }
        finals
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Only pids still running a member of this cluster: a reaped
            // one may have been reused.
            let ours = self.dir.to_str().unwrap().as_bytes();
            for &pid in self.pids.lock().unwrap_or_else(|p| p.into_inner()).iter() {
                let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
                if cmdline.windows(ours.len()).any(|w| w == ours) {
                    send_signal(pid, SIGKILL);
                }
            }
            for node in 0..self.nodes {
                let Ok(log) = std::fs::read_to_string(self.log_path(node)) else { continue };
                let lines: Vec<&str> = log.lines().collect();
                eprintln!("---- node{node}.log, last {LOG_TAIL} of {} lines ----", lines.len());
                for line in &lines[lines.len().saturating_sub(LOG_TAIL)..] {
                    eprintln!("{line}");
                }
            }
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

//! The JSON report a `gravel-node` process writes for its harness.
//!
//! Written atomically (temp file + rename) so a watcher polling for the
//! file never reads a half-written document. Written twice in a normal
//! run: once when the node's own work completes (`completed = true`,
//! `graceful = false` — the process stays up to serve peers), and again
//! on SIGTERM/SIGINT with `graceful = true` just before exit 0.

use std::io::Write as _;
use std::path::Path;

/// Counters distilled for the harness; mirrors the socket, membership,
/// and delivery telemetry.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct OutStats {
    pub handshakes: u64,
    pub reconnects: u64,
    pub connect_failures: u64,
    pub handshake_rejects: u64,
    pub link_drops: u64,
    pub retransmits: u64,
    pub dups_suppressed: u64,
    /// Packets this (restarted) node's senders retired unsent because
    /// the peers' cumulative acks already covered them.
    #[serde(default)]
    pub fast_forwarded: u64,
    pub acks_sent: u64,
    pub deaths_declared: u64,
    pub membership_joins: u64,
    pub membership_losses: u64,
    pub membership_rejoins: u64,
    pub epochs_cut: u64,
    pub fwd_sent: u64,
    pub fwd_dropped: u64,
    pub recovered_log_packets: u64,
    #[serde(default)]
    pub gets_issued: u64,
    #[serde(default)]
    pub gets_ok: u64,
    #[serde(default)]
    pub gets_timed_out: u64,
    /// Replies that arrived but did not match the target's sentinel —
    /// any nonzero value is a correctness bug, not a fault artifact.
    #[serde(default)]
    pub gets_mismatched: u64,
    #[serde(default)]
    pub rpc_replies_sent: u64,
    #[serde(default)]
    pub quarantined: u64,
    /// Messages the elastic gate refused and bounced to their sender
    /// (stale or not-yet-migrated shard ownership).
    #[serde(default)]
    pub reshard_stale_routed: u64,
    /// Bounced messages re-enqueued by this node's sender. Across a
    /// whole cluster, `Σ stale_routed == Σ redelivered + Σ dropped`
    /// once every sender drains — the exactly-once ledger.
    #[serde(default)]
    pub reshard_redelivered: u64,
    /// Bounces that could not reach their (dead) sender.
    #[serde(default)]
    pub reshard_bounce_dropped: u64,
    /// Shards this node pulled in / served out during migrations.
    #[serde(default)]
    pub reshard_shards_in: u64,
    #[serde(default)]
    pub reshard_shards_out: u64,
    /// Shard words shipped (both directions), in bytes.
    #[serde(default)]
    pub reshard_bytes_migrated: u64,
    /// Times this node asserted a coordinator takeover (won the lease
    /// after quorum-confirming the holder's death).
    #[serde(default)]
    pub ha_takeovers: u64,
    /// Eviction rounds vetoed because a majority still heard the
    /// suspect (one-way link or local fault, not a death).
    #[serde(default)]
    pub ha_evictions_vetoed: u64,
}

/// One quarantined message's provenance, surfaced verbatim so the
/// harness (or an operator) sees *what* poison arrived, not just a
/// count.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct QuarantineEntry {
    pub src: u32,
    pub lane: u32,
    pub seq: u64,
    pub index: u64,
    pub reason: String,
}

/// Everything the harness asserts on.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct OutReport {
    pub node: u64,
    pub nodes: u64,
    /// This node's own sends are fully acked and its inbound flows are
    /// fully applied.
    pub completed: bool,
    /// The process exited via the SIGTERM/SIGINT path (final epoch cut
    /// taken). `kill -9` can, by definition, never write this.
    pub graceful: bool,
    /// Whether startup recovery found a buddy-held baseline (a restart
    /// rather than a cold boot).
    pub recovered_from_ckpt: bool,
    pub updates_issued: u64,
    pub applied: u64,
    pub epoch: u64,
    /// This node's full heap slice at report time.
    pub heap: Vec<u64>,
    pub stats: OutStats,
    /// Every message quarantined since the previous report, with full
    /// provenance (drained from the node's quarantine at write time).
    #[serde(default)]
    pub quarantine: Vec<QuarantineEntry>,
    /// Elastic mode: the installed shard-map version (0 = static).
    #[serde(default)]
    pub map_version: u64,
    /// Elastic mode: active members under the installed map.
    #[serde(default)]
    pub members: Vec<u32>,
    /// Elastic mode: owner node per shard under the installed map
    /// (shard = global index % len). Empty in static mode.
    #[serde(default)]
    pub shard_owners: Vec<u32>,
    /// Elastic mode: the sender's pending + bounce queues are empty and
    /// every in-flight packet is acked *at report time* (a later bounce
    /// can clear it again — harnesses poll for it across all nodes).
    #[serde(default)]
    pub sender_drained: bool,
    /// Elastic mode: the highest coordinator term this node accepted
    /// (0 = static mode; the boot term is 1).
    #[serde(default)]
    pub ha_term: u64,
    /// Elastic mode: who this node believes holds the coordinator
    /// lease.
    #[serde(default)]
    pub ha_holder: u32,
}

/// Atomically (re)write `report` at `path`.
pub fn write_report(path: &Path, report: &OutReport) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| std::io::Error::other(format!("serialize report: {e:?}")))?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Read a report back (harnesses).
pub fn read_report(path: &Path) -> std::io::Result<OutReport> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text)
        .map_err(|e| std::io::Error::other(format!("parse {}: {e:?}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_disk() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("gravel_report_{}.json", std::process::id()));
        let r = OutReport {
            node: 2,
            nodes: 4,
            completed: true,
            heap: vec![1, 2, 3],
            stats: OutStats { reconnects: 5, ..Default::default() },
            ..Default::default()
        };
        write_report(&path, &r).unwrap();
        let back = read_report(&path).unwrap();
        assert_eq!(back.node, 2);
        assert_eq!(back.heap, vec![1, 2, 3]);
        assert_eq!(back.stats.reconnects, 5);
        assert!(back.completed && !back.graceful);
        std::fs::remove_file(&path).ok();
    }
}

//! GET probes for the multi-process cluster.
//!
//! Request-reply traffic takes the same path as in the in-process
//! runtime: the binary runs one core aggregator lane
//! (`gravel_core::aggregator::Lane`) that drains the node's offload
//! queue — GET requests issued locally *and* reply messages the network
//! thread enqueues while serving peers — onto wire lane [`RPC_LANE`],
//! keeping the deterministic GUPS flows on lane 0 untouched. As in the
//! runtime, whoever publishes the requests or replies runs the lane's
//! express pass itself ([`Lane::try_express_pass`]) when the lane
//! thread is not in it.
//!
//! Each node owns a *sentinel* heap word just past its GUPS
//! partition, holding a value that is a pure function of `(seed, node)`
//! and is never touched by updates. A GET probe against a peer's
//! sentinel therefore has exactly one correct answer on every run,
//! which is what lets the cluster test assert bit-exact GET results
//! even across a `kill -9` recovery.

use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gravel_core::aggregator::Lane;
use gravel_core::NodeShared;
use gravel_gq::{Message, ReplySink, ReplyState, RpcFailure};
use gravel_telemetry::Counter;

/// The wire lane RPC flows travel on (GUPS owns lane 0).
pub const RPC_LANE: u32 = 1;

/// The deterministic sentinel value node `node` publishes for GET
/// probes under `seed`. Never zero, so a zeroed heap can't fake it.
pub fn sentinel_value(seed: u64, node: u32) -> u64 {
    (seed ^ u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .rotate_left((node % 63) + 1)
        | 1
}

/// Outcome ledger of one node's GET probe stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct GetsOutcome {
    pub issued: u64,
    pub ok: u64,
    pub timed_out: u64,
    pub failed: u64,
    /// Replies that arrived but did not match the target's sentinel —
    /// must be zero on every run, faults or not.
    pub mismatched: u64,
}

/// Issue `gets` sentinel GET probes round-robin across the cluster
/// (self included — loopback exercises the same path) and verify each
/// reply bit-exact against [`sentinel_value`]. Each batch of requests
/// goes out through `lane`'s express pass on this thread. Returns the
/// ledger; `issued == ok + timed_out + failed` by construction.
#[allow(clippy::too_many_arguments)]
pub fn run_gets(
    lane: &Lane,
    nodes: usize,
    gets: usize,
    seed: u64,
    sentinel_addr: impl Fn(u32) -> u64,
    stop: &AtomicBool,
    deadline: Instant,
    counters: &GetsCounters,
) -> GetsOutcome {
    let node = lane.node();
    let mut out = GetsOutcome::default();
    let deadline_ms = node.rpc_timeout.as_millis().min(u128::from(u16::MAX)) as u16;
    const BATCH: usize = 16;
    let mut k = 0usize;
    while k < gets {
        if stop.load(Relaxed) || Instant::now() >= deadline {
            break;
        }
        let n = BATCH.min(gets - k);
        let sink = Arc::new(ReplySink::new(n));
        let rpc_deadline = Instant::now() + node.rpc_timeout;
        let mut dests = Vec::with_capacity(n);
        for slot in 0..n {
            let dest = ((node.id as usize + 1 + k + slot) % nodes) as u32;
            dests.push(dest);
            match node.rpc.register(sink.clone(), slot, rpc_deadline) {
                Ok(token) => {
                    node.host_send(Message::get(dest, sentinel_addr(dest), token, deadline_ms));
                }
                Err(_) => {
                    sink.arm();
                    sink.fail(slot, RpcFailure::TableFull);
                }
            }
        }
        lane.try_express_pass();
        out.issued += n as u64;
        sink.wait_all(node.rpc_timeout * 2 + Duration::from_secs(1));
        for (slot, &dest) in dests.iter().enumerate() {
            match sink.get(slot) {
                ReplyState::Ok(v) if v == sentinel_value(seed, dest) => out.ok += 1,
                ReplyState::Ok(_) => {
                    out.ok += 1;
                    out.mismatched += 1;
                }
                ReplyState::Failed(RpcFailure::TimedOut) | ReplyState::Pending => {
                    out.timed_out += 1
                }
                ReplyState::Failed(_) => out.failed += 1,
            }
        }
        k += n;
    }
    counters.issued.add(out.issued);
    counters.ok.add(out.ok);
    counters.timed_out.add(out.timed_out);
    counters.mismatched.add(out.mismatched);
    out
}

/// Registry-backed GET-probe counters so the report reads them the same
/// way it reads every other metric.
pub struct GetsCounters {
    pub issued: Counter,
    pub ok: Counter,
    pub timed_out: Counter,
    pub mismatched: Counter,
}

impl GetsCounters {
    pub fn bound(node: &NodeShared) -> Self {
        let me = node.id;
        let name = |s: &str| format!("node{me}.gets.{s}");
        GetsCounters {
            issued: node.registry.counter(&name("issued")),
            ok: node.registry.counter(&name("ok")),
            timed_out: node.registry.counter(&name("timed_out")),
            mismatched: node.registry.counter(&name("mismatched")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_values_are_distinct_and_deterministic() {
        let a: Vec<u64> = (0..8).map(|n| sentinel_value(42, n)).collect();
        let b: Vec<u64> = (0..8).map(|n| sentinel_value(42, n)).collect();
        assert_eq!(a, b);
        for i in 0..8 {
            assert_ne!(a[i], 0);
            for j in 0..i {
                assert_ne!(a[i], a[j], "sentinels for nodes {i} and {j} collide");
            }
        }
        assert_ne!(sentinel_value(42, 0), sentinel_value(43, 0));
    }
}

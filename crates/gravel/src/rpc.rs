//! Request-reply bookkeeping: the per-node pending-reply table.
//!
//! Every GET or value-returning AM call registers here before its
//! request message is offloaded: the table hands back a *token* the
//! request carries and the reply echoes, and remembers which
//! [`ReplySink`] slot to complete when that reply (or a timeout)
//! arrives. The table is the requester-side half of the RPC contract —
//! every issued request completes exactly once, as a value or as a
//! deterministic error:
//!
//! * **bounded** — at most `cap` entries; registration past that fails
//!   fast with [`RpcError::TableFull`] instead of growing without limit
//!   under a reply outage.
//! * **evict-on-timeout** — [`sweep`](PendingReplies::sweep) (driven
//!   from the network thread's receive loop) completes overdue entries
//!   with [`RpcFailure::TimedOut`] and counts `rpc.timeouts`.
//! * **generation-guarded** — the high 8 token bits carry a generation
//!   bumped by node recovery
//!   ([`bump_generation`](PendingReplies::bump_generation)), so a reply
//!   that raced a restart is rejected (`rpc.stale_rejected`) instead of
//!   completing a recycled entry. Outstanding requests at the bump fail
//!   with [`RpcFailure::Restarted`] and count `rpc.restarted`.
//!
//! Every registered request leaves the table through exactly one of
//! those three columns, so once every sink has resolved the ledger
//! `issued == completed + timeouts + restarted` holds.
//! * **orphan-counting** — a reply whose token names no entry (already
//!   timed out, or duplicated by retransmission upstream of the dedupe
//!   window) bumps `rpc.orphan_replies` and is dropped.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gravel_gq::{ReplySink, RpcFailure};
use gravel_telemetry::{Counter, Histogram, Registry};

/// Request-reply tuning, part of
/// [`GravelConfig`](crate::GravelConfig).
#[derive(Clone, Debug)]
pub struct RpcConfig {
    /// Pending-reply table capacity (outstanding requests per node).
    pub reply_table_cap: usize,
    /// Default request deadline: how long the requester waits before an
    /// entry is evicted as timed out.
    pub timeout: Duration,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            reply_table_cap: 4096,
            timeout: Duration::from_millis(250),
        }
    }
}

/// Why a request could not be registered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcError {
    /// The pending-reply table is at capacity.
    TableFull,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::TableFull => write!(f, "pending-reply table full"),
        }
    }
}

impl std::error::Error for RpcError {}

struct Entry {
    sink: Arc<ReplySink>,
    slot: usize,
    issued: Instant,
    deadline: Instant,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    next_seq: u64,
}

/// The pending-reply table. One per node, shared by the issue path
/// (GPU ctx / host API) and the completion path (network thread).
pub struct PendingReplies {
    inner: Mutex<Inner>,
    generation: AtomicU64,
    cap: usize,
    /// Requests registered (GETs + AM calls issued).
    pub issued: Counter,
    /// Requests completed with a reply value.
    pub completed: Counter,
    /// Requests evicted as timed out.
    pub timeouts: Counter,
    /// Requests failed because their node restarted before the reply.
    pub restarted: Counter,
    /// Replies rejected by the generation guard (arrived after a
    /// restart).
    pub stale_rejected: Counter,
    /// Replies whose token named no pending entry.
    pub orphan_replies: Counter,
    /// Registrations refused because the table was at capacity.
    pub table_full: Counter,
    /// Issue→completion time of every request that left the table by
    /// reply or by timeout, in nanoseconds (`rpc.rtt_ns`).
    pub rtt: Histogram,
}

const GEN_BITS: u32 = 8;
const SEQ_MASK: u64 = (1 << (64 - GEN_BITS)) - 1;

impl PendingReplies {
    /// A table of capacity `cap` with counters registered under
    /// `{prefix}.rpc.`.
    pub fn bound(registry: &Registry, prefix: &str, cap: usize) -> Self {
        let name = |suffix: &str| format!("{prefix}.rpc.{suffix}");
        PendingReplies {
            inner: Mutex::new(Inner { entries: HashMap::new(), next_seq: 0 }),
            generation: AtomicU64::new(0),
            cap: cap.max(1),
            issued: registry.counter(&name("issued")),
            completed: registry.counter(&name("completed")),
            timeouts: registry.counter(&name("timeouts")),
            restarted: registry.counter(&name("restarted")),
            stale_rejected: registry.counter(&name("stale_rejected")),
            orphan_replies: registry.counter(&name("orphan_replies")),
            table_full: registry.counter(&name("table_full")),
            rtt: registry.histogram(&name("rtt_ns")),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock poisons it; the table's state
        // is a plain map, safe to keep using (the HA supervisor owns
        // worker-panic policy).
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Current generation (the high token byte of newly issued tokens).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst) & ((1 << GEN_BITS) - 1)
    }

    /// Register a request: on completion (reply, timeout, or restart)
    /// `sink` slot `slot` is resolved. Returns the token the request
    /// message must carry.
    pub fn register(
        &self,
        sink: Arc<ReplySink>,
        slot: usize,
        deadline: Instant,
    ) -> Result<u64, RpcError> {
        let gen = self.generation();
        let mut inner = self.lock();
        if inner.entries.len() >= self.cap {
            drop(inner);
            self.table_full.add(1);
            return Err(RpcError::TableFull);
        }
        let seq = inner.next_seq & SEQ_MASK;
        inner.next_seq = inner.next_seq.wrapping_add(1);
        let token = (gen << (64 - GEN_BITS)) | seq;
        sink.arm();
        let issued = Instant::now();
        inner.entries.insert(token, Entry { sink, slot, issued, deadline });
        drop(inner);
        self.issued.add(1);
        Ok(token)
    }

    /// Deliver a reply. Returns `true` when the token matched a pending
    /// entry and its sink was completed with `value`.
    pub fn complete(&self, token: u64, value: u64) -> bool {
        if token >> (64 - GEN_BITS) != self.generation() {
            self.stale_rejected.add(1);
            return false;
        }
        let entry = self.lock().entries.remove(&token);
        match entry {
            Some(e) => {
                // Count before waking the sink: a waiter released by
                // `complete` must already see this completion in the
                // ledger (`issued == completed + timeouts + restarted`).
                self.completed.add(1);
                self.rtt.record_duration(e.issued.elapsed());
                e.sink.complete(e.slot, value);
                true
            }
            None => {
                self.orphan_replies.add(1);
                false
            }
        }
    }

    /// Evict every entry whose deadline passed, completing its sink
    /// slot with [`RpcFailure::TimedOut`]. Returns how many were
    /// evicted. Cheap when nothing is pending; the network thread calls
    /// it once per receive-loop iteration (~1 ms cadence).
    pub fn sweep(&self, now: Instant) -> usize {
        let mut inner = self.lock();
        if inner.entries.is_empty() {
            return 0;
        }
        let expired: Vec<u64> = inner
            .entries
            .iter()
            .filter(|(_, e)| now >= e.deadline)
            .map(|(&t, _)| t)
            .collect();
        let mut evicted = Vec::with_capacity(expired.len());
        for t in &expired {
            if let Some(e) = inner.entries.remove(t) {
                evicted.push(e);
            }
        }
        drop(inner);
        let n = evicted.len();
        // Count before waking the sinks (same ordering contract as
        // `complete`).
        self.timeouts.add(n as u64);
        for e in evicted {
            self.rtt.record_duration(now.saturating_duration_since(e.issued));
            e.sink.fail(e.slot, RpcFailure::TimedOut);
        }
        n
    }

    /// Advance the generation (node recovery): every outstanding entry
    /// fails with [`RpcFailure::Restarted`], and replies carrying the
    /// old generation are rejected from now on.
    pub fn bump_generation(&self) -> usize {
        self.generation.fetch_add(1, Ordering::SeqCst);
        let drained: Vec<Entry> = {
            let mut inner = self.lock();
            inner.entries.drain().map(|(_, e)| e).collect()
        };
        let n = drained.len();
        // Count before waking the sinks (same ordering contract as
        // `complete`).
        self.restarted.add(n as u64);
        for e in drained {
            e.sink.fail(e.slot, RpcFailure::Restarted);
        }
        n
    }

    /// Outstanding entries (0 after a clean run: the chaos acceptance
    /// asserts the table never leaks).
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_gq::ReplyState;
    use gravel_telemetry::TelemetryConfig;

    fn table(cap: usize) -> PendingReplies {
        let registry = Registry::new(TelemetryConfig::default());
        PendingReplies::bound(&registry, "node0", cap)
    }

    #[test]
    fn register_complete_roundtrip() {
        let t = table(8);
        let sink = Arc::new(ReplySink::new(2));
        let deadline = Instant::now() + Duration::from_secs(5);
        let a = t.register(sink.clone(), 0, deadline).unwrap();
        let b = t.register(sink.clone(), 1, deadline).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert!(t.complete(a, 11));
        assert!(t.complete(b, 22));
        assert_eq!(t.len(), 0);
        assert!(sink.wait_all(Duration::from_secs(1)));
        assert_eq!(sink.get(0), ReplyState::Ok(11));
        assert_eq!(sink.get(1), ReplyState::Ok(22));
        assert_eq!(t.completed.get(), 2);
    }

    #[test]
    fn duplicate_reply_is_an_orphan() {
        let t = table(8);
        let sink = Arc::new(ReplySink::new(1));
        let tok = t.register(sink, 0, Instant::now() + Duration::from_secs(5)).unwrap();
        assert!(t.complete(tok, 1));
        assert!(!t.complete(tok, 1));
        assert_eq!(t.orphan_replies.get(), 1);
    }

    #[test]
    fn sweep_times_out_overdue_entries() {
        let t = table(8);
        let sink = Arc::new(ReplySink::new(2));
        let now = Instant::now();
        let tok = t.register(sink.clone(), 0, now).unwrap();
        t.register(sink.clone(), 1, now + Duration::from_secs(60)).unwrap();
        assert_eq!(t.sweep(now + Duration::from_millis(1)), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(sink.get(0), ReplyState::Failed(RpcFailure::TimedOut));
        assert_eq!(sink.get(1), ReplyState::Pending);
        assert_eq!(t.timeouts.get(), 1);
        // The timed-out token's late reply is an orphan, not a double
        // completion.
        assert!(!t.complete(tok, 9));
        assert_eq!(sink.get(0), ReplyState::Failed(RpcFailure::TimedOut));
    }

    #[test]
    fn generation_guard_rejects_post_restart_replies() {
        let t = table(8);
        let sink = Arc::new(ReplySink::new(1));
        let tok = t.register(sink.clone(), 0, Instant::now() + Duration::from_secs(5)).unwrap();
        assert_eq!(t.bump_generation(), 1);
        assert_eq!(sink.get(0), ReplyState::Failed(RpcFailure::Restarted));
        assert_eq!(t.len(), 0);
        assert_eq!(t.restarted.get(), 1);
        // The old-generation reply is stale, and the entry is gone.
        assert!(!t.complete(tok, 7));
        assert_eq!(t.stale_rejected.get(), 1);
        // New registrations carry the new generation.
        let sink2 = Arc::new(ReplySink::new(1));
        let tok2 = t.register(sink2, 0, Instant::now() + Duration::from_secs(5)).unwrap();
        assert_ne!(tok >> 56, tok2 >> 56);
        assert!(t.complete(tok2, 7));
    }

    #[test]
    fn capacity_is_enforced() {
        let t = table(2);
        let sink = Arc::new(ReplySink::new(3));
        let deadline = Instant::now() + Duration::from_secs(5);
        t.register(sink.clone(), 0, deadline).unwrap();
        t.register(sink.clone(), 1, deadline).unwrap();
        assert_eq!(t.register(sink.clone(), 2, deadline), Err(RpcError::TableFull));
        assert_eq!(t.table_full.get(), 1);
        // Slot 2 was never armed; the sink still resolves once the two
        // live entries complete.
        assert_eq!(sink.outstanding(), 2);
    }
}

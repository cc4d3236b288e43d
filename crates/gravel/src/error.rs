//! Runtime failure reporting.
//!
//! The live runtime's worker threads (aggregators, network threads) can
//! die — a panic in an active-message handler, a delivery flow whose
//! retry budget is exhausted under injected faults — and before this
//! module existed such a death turned `shutdown()` into a hang (join on
//! a thread that already unwound, quiesce on counters that will never
//! converge). Failures are now recorded in a shared [`ErrorSlot`] that
//! every worker loop polls, so the whole cluster winds down promptly
//! and [`GravelRuntime::shutdown`](crate::GravelRuntime::shutdown)
//! surfaces the *first* failure as a [`RuntimeError`] instead of
//! hanging or panicking on a join.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Why the runtime failed.
#[derive(Clone, Debug)]
pub enum RuntimeError {
    /// A worker thread panicked; the panic was caught at the thread
    /// boundary and converted into this error.
    WorkerPanic {
        /// Thread name (`gravel-agg-<node>` or `gravel-net-<node>`).
        thread: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A sender flow retransmitted `retries` times without any ack
    /// progress and gave up (see `RetryConfig::max_retries`).
    RetryExhausted {
        /// Sending node.
        src: u32,
        /// Destination node of the dead flow.
        dest: u32,
        /// Wire lane of the dead flow (aggregator lane plus band).
        lane: u32,
        /// Oldest unacknowledged sequence number.
        seq: u64,
        /// Retry rounds spent.
        retries: u32,
    },
    /// Quiescence did not converge within the deadline. Carries a
    /// per-node dump of the counters that explain *where* messages are
    /// stuck.
    QuiesceTimeout {
        /// How long the runtime waited.
        waited: Duration,
        /// Per-node queue/counter diagnostics.
        diagnostics: String,
    },
    /// Restoring a node from an epoch checkpoint failed (no checkpoint
    /// taken, checkpointing disabled, or the node id is out of range).
    RecoveryFailed {
        /// Node that could not be recovered.
        node: u32,
        /// Why.
        reason: String,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::WorkerPanic { thread, message } => {
                write!(f, "worker thread `{thread}` panicked: {message}")
            }
            RuntimeError::RetryExhausted { src, dest, lane, seq, retries } => write!(
                f,
                "delivery flow {src}/{lane} -> {dest} dead: seq {seq} unacked after {retries} retries"
            ),
            RuntimeError::QuiesceTimeout { waited, diagnostics } => {
                write!(f, "quiescence not reached after {waited:?}\n{diagnostics}")
            }
            RuntimeError::RecoveryFailed { node, reason } => {
                write!(f, "recovery of node {node} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// First-failure slot shared by all worker threads of one runtime.
///
/// The flag is checked on worker hot paths (it is a single relaxed
/// load); the mutex is only touched when recording or collecting an
/// error.
#[derive(Default)]
pub struct ErrorSlot {
    failed: AtomicBool,
    err: Mutex<Option<RuntimeError>>,
}

impl ErrorSlot {
    /// Record an error. The first recorded error wins; later ones are
    /// dropped (they are almost always secondary effects of the first).
    pub fn set(&self, e: RuntimeError) {
        let mut slot = match self.err.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if slot.is_none() {
            *slot = Some(e);
        }
        drop(slot);
        self.failed.store(true, Ordering::Release);
    }

    /// Has any error been recorded? Cheap enough for per-iteration use.
    pub fn is_set(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Take the recorded error, leaving the flag set.
    pub fn take(&self) -> Option<RuntimeError> {
        match self.err.lock() {
            Ok(mut g) => g.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        }
    }
}

/// Render a caught panic payload as a message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_error_wins() {
        let slot = ErrorSlot::default();
        assert!(!slot.is_set());
        slot.set(RuntimeError::WorkerPanic { thread: "a".into(), message: "first".into() });
        slot.set(RuntimeError::WorkerPanic { thread: "b".into(), message: "second".into() });
        assert!(slot.is_set());
        match slot.take() {
            Some(RuntimeError::WorkerPanic { message, .. }) => assert_eq!(message, "first"),
            other => panic!("{other:?}"),
        }
        assert!(slot.is_set(), "flag stays set after take");
        assert!(slot.take().is_none());
    }

    #[test]
    fn errors_render_usefully() {
        let e = RuntimeError::RetryExhausted { src: 0, dest: 3, lane: 1, seq: 42, retries: 30 };
        let s = e.to_string();
        assert!(s.contains("0/1 -> 3") && s.contains("42") && s.contains("30"), "{s}");
    }

    #[test]
    fn panic_messages_extracted() {
        let p = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "boom 7");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(classified())).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }

    fn classified() -> u32 {
        13
    }
}

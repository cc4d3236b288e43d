//! Poison-message quarantine (DESIGN.md §13).
//!
//! A message that arrives in a frame with a *valid* CRC but fails
//! semantic validation — unknown active-message handler, out-of-range
//! heap address, undecodable command word — is not a transport fault:
//! retransmitting it would deliver the same poison again. Panicking
//! would take the node down for one peer's bug; silently skipping would
//! hide the bug forever. Instead the network thread diverts the
//! offending message into this bounded per-node dead-letter buffer,
//! counts it (`net.quarantined`), and keeps applying the rest of the
//! packet. Operators (and tests) inspect the poison via
//! [`Quarantine::drain`].
//!
//! The buffer is bounded: past `capacity`, the *oldest* entry is
//! evicted (and `net.quarantine_evicted` counted) so a babbling peer
//! cannot OOM the receiver while the newest evidence is retained.

use std::collections::VecDeque;

use gravel_gq::MSG_ROWS;
use gravel_telemetry::{Counter, Registry};
use parking_lot::Mutex;

/// Why a CRC-clean message was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The command word does not decode to any known [`gravel_gq::Command`].
    BadCommand,
    /// An active message named a handler id the node never registered.
    UnknownHandler,
    /// A Put/Inc addressed a heap offset past the local partition.
    OutOfRange,
    /// The rest of the packet payload is not runs of records: a run
    /// header of unknown kind, with no records or with more records
    /// than bytes, or bytes short of a header after the last run
    /// ([`runs`](crate::runs)). A frame that verifies, sealed that way
    /// by a sender other than the runtime's; one entry holds the first
    /// four words of the rest, and the runs before it apply.
    PartialPayload,
    /// The message named a destination node outside the cluster. Caught
    /// by the *sending* aggregator lane before it reaches a queue, so
    /// the entry's `src`/`lane` are the sender's own and `seq`/`index`
    /// are the ring slot's sequence number and the message's column.
    UnknownDest,
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QuarantineReason::BadCommand => "bad-command",
            QuarantineReason::UnknownHandler => "unknown-handler",
            QuarantineReason::OutOfRange => "out-of-range",
            QuarantineReason::PartialPayload => "partial-payload",
            QuarantineReason::UnknownDest => "unknown-dest",
        };
        f.write_str(s)
    }
}

/// One quarantined message with enough provenance to debug the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantinedMessage {
    /// Node that sent the packet.
    pub src: u32,
    /// Aggregator lane (flow) it arrived on.
    pub lane: u32,
    /// Packet sequence number within the flow.
    pub seq: u64,
    /// Message index inside the packet.
    pub index: usize,
    /// The raw message words, zero-padded if the payload ended early.
    /// A PUT or INC record's words carry the packet's destination.
    pub words: [u64; MSG_ROWS],
    /// Why it was refused.
    pub reason: QuarantineReason,
}

/// A bounded per-node dead-letter buffer.
pub struct Quarantine {
    buf: Mutex<VecDeque<QuarantinedMessage>>,
    capacity: usize,
    total: Counter,
    evicted: Counter,
}

impl Quarantine {
    /// A quarantine with detached (unregistered but live) counters.
    pub fn detached(capacity: usize) -> Self {
        Quarantine {
            buf: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            total: Counter::detached(),
            evicted: Counter::detached(),
        }
    }

    /// A quarantine whose counters register as
    /// `{prefix}.net.quarantined` / `{prefix}.net.quarantine_evicted`.
    pub fn bound(registry: &Registry, prefix: &str, capacity: usize) -> Self {
        Quarantine {
            buf: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            total: registry.counter(&format!("{prefix}.net.quarantined")),
            evicted: registry.counter(&format!("{prefix}.net.quarantine_evicted")),
        }
    }

    /// Divert one poison message. Evicts the oldest entry when full.
    pub fn push(&self, msg: QuarantinedMessage) {
        self.total.inc();
        let mut buf = self.buf.lock();
        if buf.len() >= self.capacity {
            buf.pop_front();
            self.evicted.inc();
        }
        buf.push_back(msg);
    }

    /// Remove and return everything currently quarantined, oldest first.
    pub fn drain(&self) -> Vec<QuarantinedMessage> {
        self.buf.lock().drain(..).collect()
    }

    /// Messages currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// True when nothing is quarantined right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Messages ever quarantined (monotonic, survives drains).
    pub fn total(&self) -> u64 {
        self.total.get()
    }

    /// Messages evicted to make room (monotonic).
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }
}

impl std::fmt::Debug for Quarantine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Quarantine")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("total", &self.total())
            .field("evicted", &self.evicted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poison(seq: u64) -> QuarantinedMessage {
        QuarantinedMessage {
            src: 1,
            lane: 0,
            seq,
            index: 0,
            words: [seq, 0, 0, 0],
            reason: QuarantineReason::OutOfRange,
        }
    }

    #[test]
    fn push_drain_roundtrip() {
        let q = Quarantine::detached(8);
        assert!(q.is_empty());
        q.push(poison(1));
        q.push(poison(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.total(), 2);
        let drained = q.drain();
        assert_eq!(drained.iter().map(|m| m.seq).collect::<Vec<_>>(), [1, 2]);
        assert!(q.is_empty());
        // The monotonic total survives the drain.
        assert_eq!(q.total(), 2);
    }

    #[test]
    fn bounded_evicts_oldest() {
        let q = Quarantine::detached(3);
        for seq in 0..10 {
            q.push(poison(seq));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.total(), 10);
        assert_eq!(q.evicted(), 7);
        // The newest evidence is what survives.
        assert_eq!(q.drain().iter().map(|m| m.seq).collect::<Vec<_>>(), [7, 8, 9]);
    }

    #[test]
    fn bound_counters_appear_in_registry() {
        let reg = Registry::enabled();
        let q = Quarantine::bound(&reg, "node0", 4);
        q.push(poison(0));
        q.push(poison(1));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("node0.net.quarantined"), 2);
        assert_eq!(snap.counter("node0.net.quarantine_evicted"), 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = Quarantine::detached(0);
        q.push(poison(0));
        q.push(poison(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.drain()[0].seq, 1);
    }
}

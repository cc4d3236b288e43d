//! Epoch checkpointing: consistent snapshots plus per-node replay logs.
//!
//! The runtime cuts an *epoch* at a quiescent point (no messages in
//! flight): it snapshots every node's PGAS heap, captures application
//! progress through the [`Checkpoint`] trait, and clears each node's
//! [`ReplayLog`]. From then on every message a node's network thread
//! fully applies is also appended (as raw packet words) to that node's
//! log. Recovering a dead node is then: restore the heap from the epoch
//! snapshot, re-apply the log. Because messages in this system are
//! commutative-by-construction within an epoch's delivery order (the
//! log preserves the *actual* apply order), the replay reproduces the
//! exact pre-death heap — bit-for-bit, which is what the chaos
//! acceptance test asserts.
//!
//! The epoch cut must not race active dispatch:
//! [`GravelRuntime::cut_epoch`](crate::GravelRuntime::cut_epoch) quiesces
//! first and documents that callers cut between supersteps.

use std::sync::Mutex;

/// Application-level progress that must survive a node death.
///
/// The runtime snapshots heaps itself; anything the *application*
/// tracks outside the heap (iteration counters, dispatch cursors,
/// accumulated results) goes through this trait. Encodings are flat
/// `u64` words to match the heap and message formats — apps own the
/// layout of their own words.
pub trait Checkpoint {
    /// Serialize progress into flat words.
    fn save(&self) -> Vec<u64>;
    /// Restore progress from words produced by [`save`](Self::save).
    fn restore(&mut self, words: &[u64]);
}

/// A consistent cluster snapshot taken at an epoch cut.
#[derive(Clone, Debug, Default)]
pub struct EpochSnapshot {
    /// Monotonic epoch number (first cut = 1).
    pub epoch: u64,
    /// Per-node heap images, indexed by node id.
    pub heaps: Vec<Vec<u64>>,
    /// Application progress words from the [`Checkpoint`] hook (empty
    /// when the cut was taken without one).
    pub app: Vec<u64>,
}

/// The payloads of the packets one node applied since the last epoch
/// cut, in apply order and end to end: a stream of runs, which
/// `gravel_pgas::apply_words` replays.
///
/// Appended by the network thread on *packet completion* (a packet
/// interrupted by a mid-apply panic is not logged — its retransmission
/// will be, once it completes), drained by recovery. Contention is one
/// uncontended lock per applied packet.
#[derive(Debug, Default)]
pub struct ReplayLog {
    words: Mutex<Vec<u64>>,
}

impl ReplayLog {
    pub fn new() -> Self {
        ReplayLog::default()
    }

    /// Append a fully-applied packet's payload: its runs, as
    /// little-endian bytes (whole words).
    pub fn append(&self, payload: &[u8]) {
        debug_assert!(payload.len().is_multiple_of(8), "a payload's runs are whole words");
        self.lock()
            .extend(payload.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().unwrap())));
    }

    /// Forget everything (called at each epoch cut).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Copy of the logged words, in apply order.
    pub fn snapshot(&self) -> Vec<u64> {
        self.lock().clone()
    }

    /// Logged volume in words.
    pub fn len_words(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<u64>> {
        // Poison recovery: a panicking worker mid-append leaves at worst
        // a partially-extended Vec, which recovery treats as truncated —
        // the packet will be re-applied and re-logged after restart.
        self.words.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_log_appends_in_order_and_clears() {
        let log = ReplayLog::new();
        assert_eq!(log.len_words(), 0);
        let bytes = |words: &[u64]| words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<_>>();
        log.append(&bytes(&[1, 2, 3]));
        log.append(&bytes(&[4]));
        assert_eq!(log.snapshot(), vec![1, 2, 3, 4]);
        assert_eq!(log.len_words(), 4);
        log.clear();
        assert_eq!(log.len_words(), 0);
        assert!(log.snapshot().is_empty());
    }

    struct Toy {
        iter: u64,
        acc: Vec<u64>,
    }

    impl Checkpoint for Toy {
        fn save(&self) -> Vec<u64> {
            let mut w = vec![self.iter, self.acc.len() as u64];
            w.extend_from_slice(&self.acc);
            w
        }
        fn restore(&mut self, words: &[u64]) {
            self.iter = words[0];
            let n = words[1] as usize;
            self.acc = words[2..2 + n].to_vec();
        }
    }

    #[test]
    fn checkpoint_trait_roundtrips() {
        let orig = Toy { iter: 7, acc: vec![10, 20, 30] };
        let words = orig.save();
        let mut fresh = Toy { iter: 0, acc: Vec::new() };
        fresh.restore(&words);
        assert_eq!(fresh.iter, 7);
        assert_eq!(fresh.acc, vec![10, 20, 30]);
    }

    #[test]
    fn epoch_snapshot_holds_per_node_heaps() {
        let snap = EpochSnapshot {
            epoch: 1,
            heaps: vec![vec![1, 2], vec![3, 4]],
            app: vec![9],
        };
        let copy = snap.clone();
        assert_eq!(copy.epoch, 1);
        assert_eq!(copy.heaps[1], vec![3, 4]);
        assert_eq!(copy.app, vec![9]);
    }
}

//! Buddy-side storage of a ward's recovery log.
//!
//! In the ring buddy topology node `i` forwards to node `(i+1) % n`
//! (its *buddy*), which makes node `i` the keeper for node
//! `(i-1+n) % n` (its *ward*). The store is keyed by the forwarding
//! node id anyway — it costs nothing and stays correct if the topology
//! ever changes.
//!
//! Consistency comes from FIFO ordering, not locking across processes:
//! the ward emits `FWD` frames and `CKPT` frames on the same stream, so
//! applying them here in arrival order reproduces exactly the ward's
//! own cut points. A `CKPT` rebases the ward's [`RecoveryLog`]; a `FWD`
//! appends to it. Replayed, the log is the ward's state as of its last
//! forwarded packet.

use std::collections::HashMap;
use std::sync::Mutex;

use gravel_core::ha::{Baseline, LoggedPacket, RecoveryLog};
use gravel_pgas::{AmRegistry, SymmetricHeap};

/// Recovery logs held on behalf of other nodes, keyed by their id.
#[derive(Default)]
pub struct WardStores {
    wards: Mutex<HashMap<u32, RecoveryLog>>,
}

impl WardStores {
    /// Append one forwarded packet to `ward`'s log.
    pub fn on_fwd(&self, ward: u32, pkt: LoggedPacket) {
        self.lock().entry(ward).or_default().packets.push(pkt);
    }

    /// Rebase `ward`'s log on a new cut.
    pub fn on_ckpt(&self, ward: u32, baseline: Baseline) {
        self.lock().entry(ward).or_default().rebase(baseline);
    }

    /// `ward`'s log (empty if we never heard from it — a cold boot).
    pub fn recover(&self, ward: u32) -> RecoveryLog {
        self.lock().get(&ward).cloned().unwrap_or_default()
    }

    /// `ward`'s heap as of its last forwarded packet: its log replayed
    /// onto a heap of the baseline's size. `None` if no baseline is
    /// stored (nothing to take over). This is the EVICT data source —
    /// when the coordinator expels a dead member, the new owners of its
    /// shards pull from this reconstruction instead of the corpse.
    /// Forward-before-ack makes it exact: every update any sender saw
    /// acked is in here.
    pub fn reconstruct_heap(&self, ward: u32) -> Option<Vec<u64>> {
        let wards = self.lock();
        let log = wards.get(&ward)?;
        let heap = SymmetricHeap::new(log.baseline.as_ref()?.heap.len());
        // A gravel-node registers no handlers, so none can run here.
        log.replay(&heap, &AmRegistry::new()).ok()?;
        Some(heap.snapshot())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u32, RecoveryLog>> {
        self.wards.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_gq::Message;

    fn fwd(seq: u64) -> LoggedPacket {
        LoggedPacket::new(0, 0, seq, &[seq as u8; 32])
    }

    #[test]
    fn ckpt_truncates_the_log_and_recover_returns_both() {
        let s = WardStores::default();
        assert_eq!(s.recover(3), RecoveryLog::default(), "cold boot is empty");
        s.on_fwd(3, fwd(0));
        s.on_fwd(3, fwd(1));
        let cut = Baseline { epoch: 1, cursors: vec![(0, 0, 2)], heap: vec![9], app: vec![] };
        s.on_ckpt(3, cut.clone());
        assert!(s.recover(3).packets.is_empty(), "cut clears the log");
        s.on_fwd(3, fwd(2));
        let r = s.recover(3);
        assert_eq!(r.baseline, Some(cut));
        assert_eq!(r.packets, vec![fwd(2)]);
        // Wards are independent.
        assert_eq!(s.recover(1), RecoveryLog::default());
    }

    #[test]
    fn reconstruct_replays_the_log_onto_the_baseline() {
        let s = WardStores::default();
        assert_eq!(s.reconstruct_heap(2), None, "no baseline, nothing to take over");
        s.on_ckpt(2, Baseline { epoch: 1, cursors: vec![], heap: vec![10, 0, 0, 3], app: vec![0] });
        let mut words = Vec::new();
        words.extend(Message::inc(2, 0, 5).encode());
        words.extend(Message::put(2, 2, 77).encode());
        words.extend(Message::inc(2, 3, 1).encode());
        words.extend([u64::MAX, 0, 0, 0]); // undecodable: skipped
        words.extend(Message::inc(2, 999, 1).encode()); // out of range: skipped
        let payload = gravel_pgas::Packet::from_words(1, 2, &words).payload.to_vec();
        s.on_fwd(2, LoggedPacket::new(1, 0, 0, &payload));
        assert_eq!(s.reconstruct_heap(2), Some(vec![15, 0, 77, 4]));
    }
}

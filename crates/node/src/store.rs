//! Buddy-side storage of a ward's recovery state.
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
//! own cut points. A `CKPT` replaces the baseline and clears the log;
//! a `FWD` appends. `recover()` clones baseline + log — together they
//! replay to the ward's state as of its last forwarded packet.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::proto::{CkptImage, FwdPacket, RecoverResp};

#[derive(Default)]
struct WardState {
    ckpt: Option<CkptImage>,
    log: Vec<FwdPacket>,
}

/// Recovery state held on behalf of other nodes, keyed by their id.
#[derive(Default)]
pub struct WardStores {
    wards: Mutex<HashMap<u32, WardState>>,
}

impl WardStores {
    pub fn new() -> Self {
        WardStores::default()
    }

    /// Append one forwarded packet to `ward`'s log.
    pub fn on_fwd(&self, ward: u32, pkt: FwdPacket) {
        let mut wards = self.lock();
        wards.entry(ward).or_default().log.push(pkt);
    }

    /// Install a new baseline for `ward`, truncating its log: every
    /// packet the ward forwarded before this cut is already reflected
    /// in the checkpoint's heap image and cursors.
    pub fn on_ckpt(&self, ward: u32, ckpt: CkptImage) {
        let mut wards = self.lock();
        let st = wards.entry(ward).or_default();
        st.ckpt = Some(ckpt);
        st.log.clear();
    }

    /// The stored baseline + log for `ward` (empty response if we never
    /// heard from it — a cold boot).
    pub fn recover(&self, ward: u32) -> RecoverResp {
        let wards = self.lock();
        match wards.get(&ward) {
            Some(st) => RecoverResp { ckpt: st.ckpt.clone(), log: st.log.clone() },
            None => RecoverResp::default(),
        }
    }

    /// Logged packets currently held for `ward` (tests, telemetry).
    pub fn log_len(&self, ward: u32) -> usize {
        self.lock().get(&ward).map_or(0, |s| s.log.len())
    }

    /// Reconstruct `ward`'s heap as of its last forwarded packet:
    /// the stored baseline image with the replay log applied on top.
    /// `None` if no baseline is stored (nothing to take over). This is
    /// the EVICT data source — when the coordinator expels a dead
    /// member, the new owners of its shards pull from this
    /// reconstruction instead of the corpse. Forward-before-ack makes
    /// it exact: every update any sender saw acked is in here.
    ///
    /// Only the commutative write commands the elastic traffic model
    /// emits (`Put`, `Inc`) are replayed; anything else in the log is
    /// skipped, mirroring `apply_words`' tolerance of pre-validation
    /// entries.
    pub fn reconstruct_heap(&self, ward: u32) -> Option<Vec<u64>> {
        let wards = self.lock();
        let st = wards.get(&ward)?;
        let ckpt = st.ckpt.as_ref()?;
        let mut heap = ckpt.heap.clone();
        for pkt in &st.log {
            // The log holds payloads as they arrived: runs. The ward's
            // own id is every message's destination.
            for quad in gravel_pgas::runs::messages(pkt.words(), ward) {
                let Some(msg) = gravel_gq::Message::decode(quad) else {
                    continue;
                };
                let Some(slot) = heap.get_mut(msg.addr as usize) else {
                    continue;
                };
                match msg.command {
                    gravel_gq::Command::Put => *slot = msg.value,
                    gravel_gq::Command::Inc => *slot = slot.wrapping_add(msg.value),
                    _ => {}
                }
            }
        }
        Some(heap)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u32, WardState>> {
        self.wards.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fwd(seq: u64) -> FwdPacket {
        FwdPacket::new(0, 0, seq, &[seq; 4])
    }

    #[test]
    fn ckpt_truncates_the_log_and_recover_returns_both() {
        let s = WardStores::new();
        assert_eq!(s.recover(3), RecoverResp::default(), "cold boot is empty");
        s.on_fwd(3, fwd(0));
        s.on_fwd(3, fwd(1));
        let cut = CkptImage { epoch: 1, cursors: vec![(0, 0, 2)], heap: vec![9], ready: vec![] };
        s.on_ckpt(3, cut.clone());
        assert_eq!(s.log_len(3), 0, "cut clears the log");
        s.on_fwd(3, fwd(2));
        let r = s.recover(3);
        assert_eq!(r.ckpt, Some(cut));
        assert_eq!(r.log, vec![fwd(2)]);
        // Wards are independent.
        assert_eq!(s.recover(1), RecoverResp::default());
    }

    #[test]
    fn reconstruct_replays_the_log_onto_the_baseline() {
        use gravel_gq::Message;
        let s = WardStores::new();
        assert_eq!(s.reconstruct_heap(2), None, "no baseline, nothing to take over");
        s.on_ckpt(
            2,
            CkptImage { epoch: 1, cursors: vec![], heap: vec![10, 0, 0, 3], ready: vec![0] },
        );
        let mut words = Vec::new();
        words.extend(Message::inc(2, 0, 5).encode());
        words.extend(Message::put(2, 2, 77).encode());
        words.extend(Message::inc(2, 3, 1).encode());
        words.extend([u64::MAX, 0, 0, 0]); // undecodable: skipped
        words.extend(Message::inc(2, 999, 1).encode()); // out of range: skipped
        let payload = gravel_pgas::Packet::from_words(1, 2, &words).words();
        s.on_fwd(2, FwdPacket::new(1, 0, 0, &payload));
        assert_eq!(s.reconstruct_heap(2), Some(vec![15, 0, 77, 4]));
    }
}

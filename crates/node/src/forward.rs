//! The buddy forwarder: a [`PacketTap`] that streams every applied
//! packet to this node's buddy and periodically cuts an epoch.
//!
//! Crash consistency rests on two orderings:
//!
//! 1. **Forward-before-ack.** The tap runs while the network thread
//!    still holds the receive-state lock, *before* the cumulative ack
//!    is sent (see [`gravel_core::netthread::run_with`]). So by the
//!    time any sender can observe a packet as acked, its forward has
//!    already been written to the buddy's stream — an acked packet can
//!    never be missing from the buddy's log (modulo the buddy itself
//!    being down, see below).
//! 2. **Cut-in-stream.** An epoch cut snapshots the heap and the flow
//!    cursors while the same lock is held and writes the `CKPT` frame
//!    on the same FIFO stream as the forwards. No barrier, no global
//!    coordination: the cut's position in the stream *is* its
//!    consistency point.
//!
//! 3. **Refusal, forward, bounce.** What an elastic gate refused of a
//!    packet goes to the buddy (`REFUSED`) before the packet's `FWD`,
//!    and back to its sender only after, all before any cut (DESIGN.md
//!    §16): a kill anywhere leaves the packet to re-gate or the refusal
//!    to re-send.
//!
//! A forward is sealed straight from the applied packet's payload
//! bytes: the five `FWD` header words and the payload go into one
//! control frame in one pass (one copy, one CRC) and are gather-written
//! to the buddy's stream. Epochs are cut on two cadences: every
//! `--ckpt-every` applied packets, and — whatever that flag says —
//! before the log the buddy holds could outgrow the single frame a
//! `RECOVER_RESP` must fit in (see `log_budget`).
//!
//! If the buddy is down, forwards are dropped (`send_control` returns
//! false) and the node's protection degrades — the documented
//! single-failure assumption. The membership layer heals it: when the
//! buddy's link comes back, [`Forwarder::rebaseline`] cuts a fresh
//! full checkpoint, which supersedes everything the dead buddy missed.
//!
//! The tap is also where the chaos kill switch lives: `--kill-at N`
//! dies by literal SIGKILL immediately after applying (and forwarding)
//! the Nth packet — the worst possible moment, after state changed but
//! potentially before the ack left.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};

use gravel_core::ha::{Baseline, LoggedPacket};
use gravel_core::netthread::{PacketTap, RecvState};
use gravel_core::NodeShared;
use gravel_net::{ChaosPlan, SocketTransport, MAX_FRAME_BYTES};
use gravel_pgas::{Packet, FRAME_OVERHEAD};
use gravel_telemetry::Counter;

use crate::proto::{self, FWD_HEAD_WORDS};

/// How many bytes of forwards the buddy may log on top of a baseline of
/// `ckpt_words` encoded words before the next cut. A restarting node
/// gets baseline + log back in *one* `RECOVER_RESP` frame, and a frame
/// over [`MAX_FRAME_BYTES`] can never be delivered — so the log is cut
/// at half of what the baseline leaves under the ceiling, and the
/// packet that crosses the line still fits in the other half.
fn log_budget(ckpt_words: usize) -> usize {
    // `[OP_RECOVER_RESP, has_ckpt]` + the checkpoint body (the `CKPT`
    // op minus its opcode) + the log's entry count.
    let fixed = FRAME_OVERHEAD + 8 * (ckpt_words + 2);
    MAX_FRAME_BYTES.saturating_sub(fixed) / 2
}

struct FwdState {
    /// Next-expected sequence per flow, mirroring the network thread's
    /// receive state (the tap sees every applied packet in order, so
    /// the mirror is exact and needs no second lock on `RecvState`).
    cursors: HashMap<(u32, u32), u64>,
    /// Applied packets since the last cut.
    since_cut: u64,
    /// Bytes those packets occupy in the buddy's log, as `RECOVER_RESP`
    /// will encode them, and the bound that forces a cut.
    log_bytes: usize,
    log_budget: usize,
    /// Monotonic epoch number (first cut = 1).
    epoch: u64,
}

/// What an elastic node adds to each cut (the ready shards as its app
/// words) and each forward (the gate's refusal, bounced after it).
pub trait Reshard: Send + Sync {
    fn ready_shards(&self) -> Vec<u64>;
    fn take_refusal(&self) -> Option<LoggedPacket>;
    fn bounce(&self, r: LoggedPacket);
}

/// Streams applied packets to the buddy and cuts epochs.
pub struct Forwarder {
    transport: Arc<SocketTransport>,
    node: Arc<NodeShared>,
    /// Receive state shared with the network thread; locked only by
    /// [`rebaseline`](Self::rebaseline) (the tap path is called with it
    /// already held by the network thread).
    recv_state: Arc<Mutex<RecvState>>,
    /// Who keeps our state: `(me + 1) % nodes`.
    buddy: u32,
    /// Cut an epoch every this many applied packets (0 = only explicit
    /// rebaselines and the log-size bound).
    ckpt_every: u64,
    chaos: Option<Arc<ChaosPlan>>,
    state: Mutex<FwdState>,
    /// Elastic mode: the checkpoint's ready-shard set (the shards this
    /// node is serving, as recorded *in* each cut) as the baseline's app
    /// words, and the gate's refusals. Static clusters leave it unset.
    reshard: OnceLock<Arc<dyn Reshard>>,
    fwd_sent: Counter,
    fwd_dropped: Counter,
    epochs_cut: Counter,
}

impl Forwarder {
    pub fn new(
        transport: Arc<SocketTransport>,
        node: Arc<NodeShared>,
        recv_state: Arc<Mutex<RecvState>>,
        buddy: u32,
        ckpt_every: u64,
        chaos: Option<Arc<ChaosPlan>>,
    ) -> Self {
        let name = |s: &str| format!("node{}.{s}", node.id);
        let registry = node.registry.clone();
        Forwarder {
            transport,
            recv_state,
            buddy,
            ckpt_every,
            chaos,
            state: Mutex::new(FwdState {
                cursors: HashMap::new(),
                since_cut: 0,
                log_bytes: 0,
                log_budget: log_budget(0),
                epoch: 0,
            }),
            reshard: OnceLock::new(),
            fwd_sent: registry.counter(&name("fwd.sent")),
            fwd_dropped: registry.counter(&name("fwd.dropped")),
            epochs_cut: registry.counter(&name("ha.epochs_cut")),
            node,
        }
    }

    /// Install the elastic hooks, before the first cut: every cut then
    /// records the ready shards in the checkpoint image, and every
    /// forward carries the gate's refusal of its packet.
    pub fn set_reshard(&self, r: Arc<dyn Reshard>) {
        assert!(self.reshard.set(r).is_ok(), "one elastic state per node");
    }

    /// Seed the cursor mirror and epoch after recovery, before the
    /// network thread starts consuming.
    pub fn seed(&self, cursors: &[(u32, u32, u64)], epoch: u64) {
        let mut st = self.lock();
        for &(src, lane, expected) in cursors {
            st.cursors.insert((src, lane), expected);
        }
        st.epoch = epoch;
        self.stamp_epoch(epoch);
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Cut a full checkpoint *now*, even with no traffic flowing.
    /// Takes the receive-state lock to exclude a mid-packet apply, so
    /// the heap image and cursor mirror are mutually consistent.
    pub fn rebaseline(&self) {
        let _recv = self.recv_state.lock().unwrap_or_else(|p| p.into_inner());
        let mut st = self.lock();
        self.cut_locked(&mut st);
    }

    /// The cut body; caller holds (or is called under) the receive-state
    /// lock, and holds `self.state`.
    fn cut_locked(&self, st: &mut FwdState) {
        st.epoch += 1;
        st.since_cut = 0;
        let mut cursors: Vec<(u32, u32, u64)> =
            st.cursors.iter().map(|(&(s, l), &e)| (s, l, e)).collect();
        cursors.sort_unstable();
        let app = self.reshard.get().map_or_else(Vec::new, |r| r.ready_shards());
        let heap = self.node.heap.snapshot();
        let ckpt = proto::encode_ckpt(&Baseline { epoch: st.epoch, cursors, heap, app });
        st.log_bytes = 0;
        st.log_budget = log_budget(ckpt.len());
        self.transport.send_control(self.buddy, &ckpt);
        self.stamp_epoch(st.epoch);
        self.epochs_cut.inc();
    }

    /// Stamp the epoch into outgoing frame headers (data packets via
    /// the node, heartbeats/HELLOs via the transport) so cross-epoch
    /// traffic stays attributable on the wire.
    fn stamp_epoch(&self, epoch: u64) {
        self.node.wire_epoch.store(epoch as u32, Ordering::Relaxed);
        self.transport.set_epoch(epoch as u32);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FwdState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl PacketTap for Forwarder {
    fn on_packet_applied(&self, pkt: &Packet) {
        // Whole words only, as the log replays them.
        let words = &pkt.payload[..pkt.payload.len() & !7];
        let head = proto::fwd_head(pkt.src, pkt.lane, pkt.seq, words.len() / 8);
        let mut st = self.lock();
        let refusal = self.reshard.get().and_then(|r| r.take_refusal());
        if let Some(r) = &refusal {
            let op = proto::encode_refused(r);
            if self.transport.send_control(self.buddy, &op) {
                st.log_bytes += 8 * op.len();
            }
        }
        if self.transport.send_control_parts(self.buddy, &head, words) {
            self.fwd_sent.inc();
            st.log_bytes += 8 * (FWD_HEAD_WORDS - 1) + words.len();
        } else {
            // Buddy down: protection degraded until the rebaseline on
            // its rejoin (single-failure assumption).
            self.fwd_dropped.inc();
        }
        st.cursors.insert((pkt.src, pkt.lane), pkt.seq + 1);
        if let (Some(r), Some(reshard)) = (refusal, self.reshard.get()) {
            reshard.bounce(r);
        }
        st.since_cut += 1;
        if (self.ckpt_every > 0 && st.since_cut >= self.ckpt_every)
            || st.log_bytes >= st.log_budget
        {
            self.cut_locked(&mut st);
        }
        drop(st);
        // Chaos kill switch: die *after* the forward was written (the
        // guarantee under test) but before the ack goes out — the
        // network thread sends it after the tap returns, so SIGKILL
        // here is the adversarial interleaving.
        if let Some(chaos) = &self.chaos {
            if chaos.kill_tick(self.node.id) {
                eprintln!(
                    "[gravel-node {}] chaos: SIGKILL after applied packet (flow {}:{} seq {})",
                    self.node.id, pkt.src, pkt.lane, pkt.seq
                );
                crate::signal::kill_self_hard();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use gravel_core::GravelConfig;
    use gravel_net::{RecvStatus, SocketAddrSpec, SocketConfig, Transport};
    use gravel_pgas::AmRegistry;

    use super::*;
    use crate::proto::{OP_CKPT, OP_FWD};
    use crate::store::WardStores;

    /// What `WardStores::recover` would put on the wire for ward 0.
    fn recover_frame_bytes(stores: &WardStores) -> usize {
        FRAME_OVERHEAD + 8 * proto::encode_recover_resp(&stores.recover(0)).len()
    }

    /// `--ckpt-every 0` leaves the log-size bound as the only thing that
    /// cuts epochs. Forward far more than a frame holds through a real
    /// forwarder to a real buddy store: at its largest (just before
    /// each cut lands, and at the end) the stored state must still
    /// encode into one deliverable `RECOVER_RESP`.
    #[test]
    fn recovery_frame_stays_under_the_ceiling_with_packet_cadence_off() {
        const PACKETS: u64 = 300; // × 64 kB ≈ 2.4 frame ceilings
        let dir = std::env::temp_dir().join(format!("gravel-fwd-{}", std::process::id()));
        let addrs: Vec<_> = (0..2)
            .map(|i| SocketAddrSpec::Uds(dir.join(format!("n{i}.sock"))))
            .collect();
        let t0 = SocketTransport::spawn(SocketConfig::new(0, addrs.clone())).expect("bind 0");
        let t1 = SocketTransport::spawn(SocketConfig::new(1, addrs)).expect("bind 1");
        assert!(t0.wait_connected(1, Duration::from_secs(5)));

        let cfg = GravelConfig::small(2, 1024);
        let node = Arc::new(NodeShared::new(0, &cfg, Arc::new(AmRegistry::new())));
        let recv_state = Arc::new(Mutex::new(RecvState::new()));
        let fwd = Forwarder::new(t0.clone(), node, recv_state, 1, 0, None);
        fwd.rebaseline();

        // Node 1 plays `ctrl_loop`'s FWD / CKPT arms.
        let buddy = std::thread::spawn({
            let t1 = t1.clone();
            move || {
                let stores = WardStores::default();
                let (mut fwds, mut cuts, mut largest) = (0, 0, 0);
                let until = Instant::now() + Duration::from_secs(60);
                while fwds < PACKETS {
                    assert!(Instant::now() < until, "only {fwds} forwards arrived");
                    let RecvStatus::Msg(msg) = t1.recv_control(Duration::from_millis(50)) else {
                        continue;
                    };
                    match msg.words.first().copied() {
                        Some(OP_FWD) => {
                            stores.on_fwd(0, proto::decode_fwd(msg.words).expect("a forward"));
                            fwds += 1;
                        }
                        Some(OP_CKPT) => {
                            largest = largest.max(recover_frame_bytes(&stores));
                            stores.on_ckpt(0, proto::decode_ckpt(&msg.words).expect("a cut"));
                            cuts += 1;
                        }
                        other => panic!("unexpected control op {other:?}"),
                    }
                }
                (cuts, largest.max(recover_frame_bytes(&stores)))
            }
        });

        // Opaque 64 kB payloads: the forwarder never decodes them.
        let bytes: Vec<u8> = (0..8 * 1024u64).flat_map(|w| w.to_le_bytes()).collect();
        for seq in 0..PACKETS {
            let mut pkt = Packet::from_payload(1, 0, bytes.clone().into());
            pkt.seq = seq;
            fwd.on_packet_applied(&pkt);
        }
        let (cuts, largest) = buddy.join().expect("buddy thread");
        assert!(cuts >= 3, "the size bound cut {cuts} epochs for 2.4 ceilings of forwards");
        assert!(
            largest <= MAX_FRAME_BYTES,
            "a restarting node would be sent a {largest}-byte RECOVER_RESP"
        );
        assert!(largest > MAX_FRAME_BYTES / 4, "the bound cut far too eagerly ({largest} bytes)");
        t0.close();
        t1.close();
        std::fs::remove_dir_all(&dir).ok();
    }
}

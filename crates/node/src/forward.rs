//! The buddy forwarder: the socket half of the buddy protocol's ward
//! side. The decisions — what to send for each applied packet, in which
//! order, and when to cut — are [`gravel_core::ha::Ward`]'s, the type
//! `ha::sim` runs too; this module seals and writes what it returns.
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
//! An elastic node's forwarder is also its gate: the ward keeps what
//! the gate refused of a packet until the packet's sends (DESIGN.md
//! §16).
//!
//! A forward is sealed straight from the applied packet's payload
//! bytes: the five `FWD` header words and the payload go into one
//! control frame in one pass (one copy, one CRC) and are gather-written
//! to the buddy's stream.
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

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use gravel_core::ha::{Baseline, Emit, Ward};
use gravel_core::netthread::{ApplyGate, PacketTap, RecvState};
use gravel_core::NodeShared;
use gravel_net::{ChaosPlan, SocketTransport};
use gravel_pgas::Packet;
use gravel_telemetry::Counter;

use crate::elastic::ElasticState;
use crate::proto;

/// Streams applied packets to the buddy and cuts epochs, as its
/// [`Ward`] decides.
pub struct Forwarder {
    transport: Arc<SocketTransport>,
    node: Arc<NodeShared>,
    /// Receive state shared with the network thread; locked only by
    /// [`rebaseline`](Self::rebaseline) (the tap path is called with it
    /// already held by the network thread).
    recv_state: Arc<Mutex<RecvState>>,
    /// Who keeps our state: `(me + 1) % nodes`.
    buddy: u32,
    chaos: Option<Arc<ChaosPlan>>,
    ward: Mutex<Ward>,
    /// Elastic mode: the gate's map and served shards, the ready shards
    /// each cut records as its app words, and the bounce path. Static
    /// clusters leave it unset.
    elastic: OnceLock<Arc<ElasticState>>,
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
            chaos,
            ward: Mutex::new(Ward::new(ckpt_every)),
            elastic: OnceLock::new(),
            fwd_sent: registry.counter(&name("fwd.sent")),
            fwd_dropped: registry.counter(&name("fwd.dropped")),
            epochs_cut: registry.counter(&name("ha.epochs_cut")),
            node,
        }
    }

    /// Install the elastic state, before the first cut: every cut then
    /// records the ready shards in the checkpoint image, and the
    /// forwarder gates every packet before it applies.
    pub fn set_elastic(&self, st: Arc<ElasticState>) {
        assert!(self.elastic.set(st).is_ok(), "one elastic state per node");
    }

    /// Seed the cursor mirror and epoch after recovery, before the
    /// network thread starts consuming.
    pub fn seed(&self, cursors: &[(u32, u32, u64)], epoch: u64) {
        self.lock().seed(cursors, epoch);
        self.stamp_epoch(epoch);
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch()
    }

    /// Cut a full checkpoint *now*, even with no traffic flowing.
    /// Takes the receive-state lock to exclude a mid-packet apply, so
    /// the heap image and cursor mirror are mutually consistent.
    pub fn rebaseline(&self) {
        let _recv = self.recv_state.lock().unwrap_or_else(|p| p.into_inner());
        let (heap, app) = self.image();
        let b = self.lock().cut(heap, app);
        self.send_ckpt(&b);
    }

    /// A cut's heap image and app words (the ready shards).
    fn image(&self) -> (Vec<u64>, Vec<u64>) {
        let app = self.elastic.get().map_or_else(Vec::new, |st| st.ready_shards());
        (self.node.heap.snapshot(), app)
    }

    fn send_ckpt(&self, b: &Baseline) {
        self.transport.send_control(self.buddy, &proto::encode_ckpt(b));
        self.stamp_epoch(b.epoch);
        self.epochs_cut.inc();
    }

    /// Stamp the epoch into outgoing frame headers (data packets via
    /// the node, heartbeats/HELLOs via the transport) so cross-epoch
    /// traffic stays attributable on the wire.
    fn stamp_epoch(&self, epoch: u64) {
        self.node.wire_epoch.store(epoch as u32, Ordering::Relaxed);
        self.transport.set_epoch(epoch as u32);
    }

    fn lock(&self) -> MutexGuard<'_, Ward> {
        self.ward.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The elastic gate: the ward refuses what this node does not serve
/// under its installed map, and keeps the refusal for the packet's
/// sends.
impl ApplyGate for Forwarder {
    fn filter(&self, pkt: &Packet) -> Option<Packet> {
        self.elastic.get()?.gate(&mut self.lock(), pkt)
    }
}

impl PacketTap for Forwarder {
    fn on_packet_applied(&self, pkt: &Packet) {
        let mut ward = self.lock();
        for emit in ward.applied(pkt, || self.image()) {
            match emit {
                Emit::Refused(r) => {
                    self.transport.send_control(self.buddy, &proto::encode_refused(&r));
                }
                Emit::Forward => {
                    // Whole words only, as the log replays them.
                    let words = &pkt.payload[..pkt.payload.len() & !7];
                    let head = proto::fwd_head(pkt.src, pkt.lane, pkt.seq, words.len() / 8);
                    if self.transport.send_control_parts(self.buddy, &head, words) {
                        self.fwd_sent.inc();
                    } else {
                        // Buddy down: protection degraded until the
                        // rebaseline on its rejoin (single-failure
                        // assumption).
                        self.fwd_dropped.inc();
                    }
                }
                Emit::Bounce(r) => self.elastic.get().expect("only a gate refuses").bounce(r),
                Emit::Ckpt(b) => self.send_ckpt(&b),
            }
        }
        drop(ward);
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
    use gravel_core::ha::Keeper;
    use gravel_net::MAX_FRAME_BYTES;
    use gravel_pgas::FRAME_OVERHEAD;

    /// What `Keeper::recover` would put on the wire for ward 0.
    fn recover_frame_bytes(stores: &Keeper) -> usize {
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
                let stores = Keeper::default();
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

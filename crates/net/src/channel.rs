//! The reliable in-memory fabric: bounded in-memory queues.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use gravel_pgas::DataFrame;

use crate::{AckFrame, FaultStats, NodeId, RecvStatus, SendStatus, Transport};

/// Reliable bounded transport: one data ingress per node (consumed by
/// its network thread) and one ack mailbox per `(node, lane)` (consumed
/// by that aggregator).
///
/// Closing is a flag rather than sender-drop choreography: receivers
/// keep draining frames already in flight and report
/// [`RecvStatus::Closed`] only once the flag is set *and* their ingress
/// is empty, so nothing accepted before `close()` is lost.
pub struct ChannelTransport {
    data: Vec<Ingress>,
    /// Frames each of a node's two ingress queues may hold.
    capacity: usize,
    acks: Vec<Vec<(Sender<AckFrame>, Receiver<AckFrame>)>>,
    closed: AtomicBool,
    dropped_acks: AtomicU64,
}

/// One node's data ingress: an express and a bulk FIFO under one lock.
/// [`recv_data`](Transport::recv_data) serves express frames first, so
/// a request or reply waits for at most the bulk packet the network
/// thread already holds, never for the queue behind it. Each FIFO keeps
/// its own order and its own bound — the two only ever reorder frames
/// of *different* flows (every band is a flow of its own), which
/// no sequence check can see.
#[derive(Default)]
struct Ingress {
    queues: Mutex<IngressQueues>,
    /// The node's receiver waits here for a frame…
    not_empty: Condvar,
    /// …and senders here for room in a full queue.
    not_full: Condvar,
}

#[derive(Default)]
struct IngressQueues {
    express: VecDeque<DataFrame>,
    bulk: VecDeque<DataFrame>,
    /// How many receivers / senders are blocked on the condvars, so the
    /// uncontended send and receive skip the wake syscall.
    receivers_waiting: usize,
    senders_waiting: usize,
}

impl Ingress {
    fn lock(&self) -> MutexGuard<'_, IngressQueues> {
        // Every update leaves the queues valid, so a panicking peer
        // thread (injected chaos) must not take the fabric down.
        self.queues.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Ack mailboxes are small: a flow re-acks on every packet, and only
/// the latest cumulative value matters.
const ACK_MAILBOX_CAPACITY: usize = 1024;

impl ChannelTransport {
    /// Fabric for `nodes` nodes with `lanes` aggregator lanes each and
    /// `capacity` packets of data buffering per node and band.
    pub fn new(nodes: usize, lanes: usize, capacity: usize) -> Self {
        assert!(nodes > 0 && lanes > 0, "empty fabric");
        assert!(capacity > 0, "data channels must hold at least one packet");
        ChannelTransport {
            data: (0..nodes).map(|_| Ingress::default()).collect(),
            capacity,
            acks: (0..nodes)
                .map(|_| (0..lanes).map(|_| bounded(ACK_MAILBOX_CAPACITY)).collect())
                .collect(),
            closed: AtomicBool::new(false),
            dropped_acks: AtomicU64::new(0),
        }
    }
}

impl Transport for ChannelTransport {
    fn nodes(&self) -> usize {
        self.data.len()
    }

    fn lanes(&self) -> usize {
        self.acks[0].len()
    }

    fn send_data(&self, frame: DataFrame, timeout: Duration) -> SendStatus {
        if self.closed.load(Ordering::Acquire) {
            return SendStatus::Closed;
        }
        let dest = frame.dest as usize;
        debug_assert!(dest < self.data.len(), "frame to unknown node {dest}");
        let ingress = &self.data[dest];
        let mut q = ingress.lock();
        let mut deadline = None;
        loop {
            let fifo = if frame.is_express() { &mut q.express } else { &mut q.bulk };
            if fifo.len() < self.capacity {
                fifo.push_back(frame);
                break;
            }
            let now = Instant::now();
            let until = *deadline.get_or_insert(now + timeout);
            if now >= until {
                return if self.closed.load(Ordering::Acquire) {
                    SendStatus::Closed
                } else {
                    SendStatus::TimedOut
                };
            }
            q.senders_waiting += 1;
            q = ingress
                .not_full
                .wait_timeout(q, until - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
            q.senders_waiting -= 1;
        }
        let wake = q.receivers_waiting > 0;
        drop(q);
        if wake {
            ingress.not_empty.notify_one();
        }
        SendStatus::Sent
    }

    fn recv_data(&self, node: NodeId, timeout: Duration) -> RecvStatus<DataFrame> {
        let ingress = &self.data[node as usize];
        let mut q = ingress.lock();
        let mut deadline = None;
        loop {
            let next = match q.express.pop_front() {
                Some(frame) => Some(frame),
                None => q.bulk.pop_front(),
            };
            if let Some(frame) = next {
                let wake = q.senders_waiting > 0;
                drop(q);
                if wake {
                    // Senders may be waiting on either queue; all of
                    // them re-check.
                    ingress.not_full.notify_all();
                }
                return RecvStatus::Msg(frame);
            }
            let now = Instant::now();
            let until = *deadline.get_or_insert(now + timeout);
            if now >= until {
                return if self.closed.load(Ordering::Acquire) {
                    RecvStatus::Closed
                } else {
                    RecvStatus::TimedOut
                };
            }
            q.receivers_waiting += 1;
            q = ingress
                .not_empty
                .wait_timeout(q, until - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
            q.receivers_waiting -= 1;
        }
    }

    fn send_ack(&self, ack: AckFrame) {
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        let (dest, lane) = (ack.dest as usize, ack.lane as usize);
        debug_assert!(dest < self.acks.len() && lane < self.acks[dest].len());
        if let Err(TrySendError::Full(_)) = self.acks[dest][lane].0.try_send(ack) {
            self.dropped_acks.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn try_recv_ack(&self, node: NodeId, lane: u32) -> Option<AckFrame> {
        self.acks[node as usize][lane as usize].1.try_recv().ok()
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn fault_stats(&self) -> FaultStats {
        FaultStats {
            dropped_acks: self.dropped_acks.load(Ordering::Relaxed),
            ..FaultStats::default()
        }
    }

    fn data_depths(&self) -> Vec<usize> {
        self.data
            .iter()
            .map(|ingress| {
                let q = ingress.lock();
                q.express.len() + q.bulk.len()
            })
            .collect()
    }

    fn ack_depths(&self, node: NodeId) -> usize {
        self.acks[node as usize].iter().map(|(tx, _)| tx.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ack;
    use gravel_gq::{Band, Message};
    use gravel_pgas::{wire_lane, Packet, WireIntegrity};

    /// A one-word frame on bulk lane 0.
    fn frame(src: u32, dest: u32, tag: u64) -> DataFrame {
        Packet::from_payload(src, dest, tag.to_le_bytes().to_vec().into())
            .seal(0, WireIntegrity::Crc32c)
    }

    fn words(f: &DataFrame) -> Vec<u64> {
        f.open(WireIntegrity::Crc32c).expect("fabric is reliable").words()
    }

    fn ack(src: u32, dest: u32, lane: u32, cum_seq: u64) -> AckFrame {
        Ack { src, dest, lane, cum_seq }.seal(0, WireIntegrity::Crc32c)
    }

    const T: Duration = Duration::from_millis(200);

    #[test]
    fn routes_data_by_destination() {
        let t = ChannelTransport::new(3, 1, 16);
        assert_eq!(t.send_data(frame(0, 1, 7), T), SendStatus::Sent);
        assert_eq!(t.send_data(frame(0, 2, 9), T), SendStatus::Sent);
        match t.recv_data(1, T) {
            RecvStatus::Msg(f) => assert_eq!(words(&f), vec![7]),
            other => panic!("{other:?}"),
        }
        match t.recv_data(2, T) {
            RecvStatus::Msg(f) => assert_eq!(words(&f), vec![9]),
            other => panic!("{other:?}"),
        }
        assert!(matches!(t.recv_data(0, Duration::from_millis(1)), RecvStatus::TimedOut));
    }

    #[test]
    fn bounded_channel_times_out_when_full() {
        let t = ChannelTransport::new(2, 1, 1);
        assert_eq!(t.send_data(frame(0, 1, 1), T), SendStatus::Sent);
        assert_eq!(t.send_data(frame(0, 1, 2), Duration::from_millis(5)), SendStatus::TimedOut);
        // Draining unblocks the sender.
        assert!(matches!(t.recv_data(1, T), RecvStatus::Msg(_)));
        assert_eq!(t.send_data(frame(0, 1, 2), T), SendStatus::Sent);
        assert_eq!(t.data_depths(), vec![0, 1]);
    }

    /// A GET for `token` on `band`'s flow of lane 0.
    fn get_frame(src: u32, dest: u32, token: u64, band: Band) -> DataFrame {
        let mut pkt = Packet::from_words(src, dest, &Message::get(dest, 0, token, 1).encode());
        pkt.lane = wire_lane(0, band);
        pkt.seal(0, WireIntegrity::Crc32c)
    }

    #[test]
    fn express_frames_are_served_before_queued_bulk_each_in_its_own_order() {
        let t = ChannelTransport::new(2, 1, 16);
        for tag in 10..14 {
            assert_eq!(t.send_data(frame(0, 1, tag), T), SendStatus::Sent);
        }
        assert_eq!(t.send_data(get_frame(0, 1, 100, Band::Express), T), SendStatus::Sent);
        assert_eq!(t.send_data(frame(0, 1, 14), T), SendStatus::Sent);
        // A GET on a bulk lane is bulk: the band is the lane's, not the
        // payload's.
        assert_eq!(t.send_data(get_frame(0, 1, 15, Band::Bulk), T), SendStatus::Sent);
        assert_eq!(t.send_data(get_frame(0, 1, 101, Band::Express), T), SendStatus::Sent);
        assert_eq!(t.data_depths(), vec![0, 8]);
        let mut order = Vec::new();
        while let RecvStatus::Msg(f) = t.recv_data(1, Duration::ZERO) {
            // A GET's token is its message's value word; a one-word
            // frame's tag its one payload word.
            let pkt = f.open(WireIntegrity::Crc32c).expect("fabric is reliable");
            order.push(if pkt.len() == 8 { pkt.words()[0] } else { pkt.messages().next().unwrap()[3] });
        }
        // Both express GETs first (token order), then the bulk frames
        // in theirs.
        assert_eq!(order, vec![100, 101, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn a_full_bulk_queue_does_not_block_express_frames() {
        let t = ChannelTransport::new(2, 1, 1);
        assert_eq!(t.send_data(frame(0, 1, 1), T), SendStatus::Sent);
        assert_eq!(t.send_data(frame(0, 1, 2), Duration::ZERO), SendStatus::TimedOut);
        assert_eq!(t.send_data(get_frame(0, 1, 7, Band::Express), Duration::ZERO), SendStatus::Sent);
        // The express queue has its own bound.
        let second = get_frame(0, 1, 8, Band::Express);
        assert_eq!(t.send_data(second, Duration::ZERO), SendStatus::TimedOut);
        assert!(matches!(t.recv_data(1, T), RecvStatus::Msg(f) if f.is_express()));
        assert!(matches!(t.recv_data(1, T), RecvStatus::Msg(f) if !f.is_express()));
    }

    #[test]
    fn a_blocked_sender_and_a_blocked_receiver_wake_each_other() {
        let t = std::sync::Arc::new(ChannelTransport::new(2, 1, 1));
        assert_eq!(t.send_data(frame(0, 1, 1), T), SendStatus::Sent);
        let sender = {
            let t = t.clone();
            std::thread::spawn(move || t.send_data(frame(0, 1, 2), Duration::from_secs(30)))
        };
        // Frees the one bulk slot: the sender parked on it completes,
        // and its frame in turn ends this thread's second wait.
        assert!(matches!(t.recv_data(1, Duration::from_secs(30)), RecvStatus::Msg(_)));
        match t.recv_data(1, Duration::from_secs(30)) {
            RecvStatus::Msg(f) => assert_eq!(words(&f), vec![2]),
            other => panic!("{other:?}"),
        }
        assert_eq!(sender.join().unwrap(), SendStatus::Sent);
    }

    #[test]
    fn close_drains_in_flight_then_reports_closed() {
        let t = ChannelTransport::new(2, 1, 4);
        assert_eq!(t.send_data(frame(0, 1, 5), T), SendStatus::Sent);
        t.close();
        assert_eq!(t.send_data(frame(0, 1, 6), T), SendStatus::Closed);
        assert!(matches!(t.recv_data(1, T), RecvStatus::Msg(_)));
        assert!(matches!(t.recv_data(1, Duration::from_millis(1)), RecvStatus::Closed));
        assert!(t.is_closed());
    }

    #[test]
    fn acks_route_to_lane_mailboxes() {
        let t = ChannelTransport::new(2, 2, 4);
        t.send_ack(ack(1, 0, 1, 41));
        assert_eq!(t.try_recv_ack(0, 0), None);
        let got = t.try_recv_ack(0, 1).expect("routed to (0, 1)");
        assert_eq!(
            got.open(WireIntegrity::Crc32c).unwrap(),
            (Ack { src: 1, dest: 0, lane: 1, cum_seq: 41 }, 0)
        );
        assert_eq!(t.try_recv_ack(0, 1), None);
    }

    #[test]
    fn full_ack_mailbox_drops_and_counts() {
        let t = ChannelTransport::new(2, 1, 4);
        for i in 0..(ACK_MAILBOX_CAPACITY as u64 + 10) {
            t.send_ack(ack(1, 0, 0, i));
        }
        assert_eq!(t.fault_stats().dropped_acks, 10);
    }

    proptest::proptest! {
        /// An ack for any band of a lane lands in that lane's mailbox —
        /// and in no other — with its wire lane intact for the sender
        /// to pick the flow by.
        #[test]
        fn acks_of_every_band_land_in_the_owning_lanes_mailbox(
            acks in proptest::collection::vec((0u32..3, proptest::prelude::any::<bool>(), 0u64..1000), 1..40),
        ) {
            use gravel_gq::Band;
            use gravel_pgas::{split_wire_lane, wire_lane};
            let t = ChannelTransport::new(2, 3, 4);
            for &(lane, express, cum_seq) in &acks {
                let band = if express { Band::Express } else { Band::Bulk };
                let wire = wire_lane(lane, band);
                t.send_ack(ack(1, 0, wire, cum_seq));
                for other in (0..3).filter(|&l| l != lane) {
                    proptest::prop_assert_eq!(t.try_recv_ack(0, other), None);
                }
                let got = t.try_recv_ack(0, lane).expect("in the owner's mailbox");
                let (opened, _) = got.open(WireIntegrity::Crc32c).unwrap();
                proptest::prop_assert_eq!(opened, Ack { src: 1, dest: 0, lane: wire, cum_seq });
                proptest::prop_assert_eq!(split_wire_lane(opened.lane), (lane, band));
            }
        }
    }
}

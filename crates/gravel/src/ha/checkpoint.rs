//! Epoch checkpointing: one recovery log per node, a baseline plus the
//! packets applied since.
//!
//! A node's network thread applies every message addressed to it,
//! atomics included, so its state is a heap image plus the packets it
//! applied after that image, in apply order. [`RecoveryLog`] is exactly
//! that, and it is the only recovery state in the tree: the in-process
//! runtime keeps one per node in its network thread's
//! [`RecvState`](crate::netthread::RecvState); `gravel-node` keeps one
//! per ward on the ward's buddy, filled from `FWD` and `CKPT` frames and
//! shipped back whole in `RECOVER_RESP`. An epoch cut
//! [rebases](RecoveryLog::rebase) it; [`RecoveryLog::replay`] rebuilds
//! the heap with `gravel_pgas::apply_words`, the loop the network thread
//! itself runs, bit for bit, and returns the flow cursors to resume
//! from. In-process, [`GravelRuntime::cut_epoch`](crate::GravelRuntime::cut_epoch)
//! quiesces first, so callers cut between supersteps. An elastic node's
//! log also holds what its gate refused since the cut (DESIGN.md §16).

use std::collections::HashMap;

use gravel_pgas::{apply_words, AmRegistry, SymmetricHeap};

/// Application-level progress that must survive a node death.
///
/// The runtime snapshots heaps itself; anything the *application*
/// tracks outside the heap (iteration counters, dispatch cursors,
/// accumulated results) goes through this trait into each baseline's
/// [`app`](Baseline::app) words, and
/// [`recover_node`](crate::GravelRuntime::recover_node) hands them back.
/// Encodings are flat `u64` words to match the heap and message
/// formats — apps own the layout of their own words.
pub trait Checkpoint {
    /// Serialize progress into flat words.
    fn save(&self) -> Vec<u64>;
    /// Restore progress from words produced by [`save`](Self::save).
    fn restore(&mut self, words: &[u64]);
}

/// A node's state at an epoch cut.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Monotonic epoch number (first cut = 1).
    pub epoch: u64,
    /// Per-flow next-expected sequence numbers `(src, lane, expected)`,
    /// taken with the heap image under the receive-state lock.
    pub cursors: Vec<(u32, u32, u64)>,
    /// The node's full heap image.
    pub heap: Vec<u64>,
    /// Opaque progress words of whatever drives the node: a
    /// [`Checkpoint`]'s `save()` in-process, the shard ids it was
    /// serving in an elastic `gravel-node`.
    pub app: Vec<u64>,
}

/// Words ahead of a logged packet's payload:
/// `[free, src, lane, seq, nwords]`.
pub const ENTRY_HEAD_WORDS: usize = 5;

/// One applied packet: the flow coordinates it applied under and its
/// payload words (runs, as they travelled).
///
/// Stored as one word vector laid out like `gravel-node`'s `FWD` op, so
/// a buddy logs a received forward by adopting the op's own vector
/// ([`adopt`](Self::adopt)) instead of copying the packet out of it.
/// Word 0 is the op's opcode slot; the log zeroes it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoggedPacket {
    op: Vec<u64>,
}

impl LoggedPacket {
    /// The packet applied under flow `src:lane` at `seq`, whose payload
    /// is `payload` (whole little-endian words).
    pub fn new(src: u32, lane: u32, seq: u64, payload: &[u8]) -> Self {
        debug_assert!(payload.len().is_multiple_of(8), "a payload's runs are whole words");
        let n = payload.len() / 8;
        let mut op = Vec::with_capacity(ENTRY_HEAD_WORDS + n);
        op.extend([0, u64::from(src), u64::from(lane), seq, n as u64]);
        let words = payload.chunks_exact(8).map(|w| w.try_into().expect("an 8-byte chunk"));
        op.extend(words.map(u64::from_le_bytes));
        LoggedPacket { op }
    }

    /// What an elastic gate refused of packet `seq` of flow `src:lane`:
    /// its raw message words, four a message, as a refusal entry.
    pub fn refused(src: u32, lane: u32, seq: u64, quads: &[u64]) -> Self {
        let mut op = vec![0, u64::from(src), u64::from(lane), seq, quads.len() as u64];
        op.extend_from_slice(quads);
        LoggedPacket { op }
    }

    /// Adopt `op` — `[_, src, lane, seq, nwords, words…]` — as a logged
    /// packet without copying it; `None` unless the head is well formed
    /// and `nwords` words follow it exactly. Word 0 is not read.
    pub fn adopt(mut op: Vec<u64>) -> Option<Self> {
        let head = op.get(..ENTRY_HEAD_WORDS)?;
        u32::try_from(head[1]).ok()?;
        u32::try_from(head[2]).ok()?;
        let n = usize::try_from(head[4]).ok()?;
        if op.len() != n.checked_add(ENTRY_HEAD_WORDS)? {
            return None;
        }
        op[0] = 0;
        Some(LoggedPacket { op })
    }

    /// `[src, lane, seq, nwords, words…]`: the entry as a
    /// `RECOVER_RESP` carries it, and as a `FWD` op carries it after its
    /// opcode. [`adopt`](Self::adopt) of a free word plus these is the
    /// inverse.
    pub fn wire(&self) -> &[u64] {
        &self.op[1..]
    }

    /// Original sender of the packet.
    pub fn src(&self) -> u32 {
        self.op[1] as u32
    }

    /// Sender lane.
    pub fn lane(&self) -> u32 {
        self.op[2] as u32
    }

    /// Per-flow sequence number.
    pub fn seq(&self) -> u64 {
        self.op[3]
    }

    /// The payload words: runs of records (`gravel_pgas::runs`).
    pub fn words(&self) -> &[u64] {
        &self.op[ENTRY_HEAD_WORDS..]
    }
}

/// Why a [`RecoveryLog::replay`] touched nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The baseline's heap image is not the size of the heap it would
    /// restore (a restart with another table size, say): restoring it
    /// would half-apply the node's past, so neither heap nor cursors
    /// are touched.
    HeapLength { baseline: usize, heap: usize },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::HeapLength { baseline, heap } => write!(
                f,
                "baseline heap is {baseline} words, the node's heap is {heap}"
            ),
        }
    }
}

/// What a [`RecoveryLog::replay`] restored beside the heap.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Replayed {
    /// Per-flow next-expected sequence numbers `(src, lane, expected)`,
    /// sorted: the baseline's, advanced past every logged packet.
    pub cursors: Vec<(u32, u32, u64)>,
    /// Messages the replayed packets disposed of.
    pub disposed: u64,
    /// The logged refusals of packets the log applied (a packet it did
    /// not apply is re-sent and gated again): their bounces are owed.
    pub owed: Vec<LoggedPacket>,
}

/// A node's recovery state: the last [`Baseline`] (`None` before the
/// first cut) plus every packet applied since it, in apply order, and
/// every refusal ([`LoggedPacket::refused`]) its gate made since it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryLog {
    pub baseline: Option<Baseline>,
    pub packets: Vec<LoggedPacket>,
    pub refused: Vec<LoggedPacket>,
}

impl RecoveryLog {
    /// Install a new baseline and forget every packet before it: the
    /// baseline's heap image and cursors already reflect them.
    pub fn rebase(&mut self, baseline: Baseline) {
        self.baseline = Some(baseline);
        self.packets.clear();
        self.refused.clear();
    }

    /// Rebuild `heap`: refill it from the baseline (when there is one),
    /// then re-apply every logged packet in order with its sender as
    /// `src`. Replies are dropped — they were delivered when the packet
    /// first applied — and no quiescence counter moves; the caller
    /// decides what [`Replayed::disposed`] counts toward. Undecodable
    /// words are skipped uncounted, as `apply_words` does.
    ///
    /// `heap`'s single writer is the node's network thread, so call
    /// this before that thread runs or under its receive-state lock.
    pub fn replay(&self, heap: &SymmetricHeap, ams: &AmRegistry) -> Result<Replayed, ReplayError> {
        let mut cursors: HashMap<(u32, u32), u64> = HashMap::new();
        if let Some(b) = &self.baseline {
            if b.heap.len() != heap.len() {
                return Err(ReplayError::HeapLength { baseline: b.heap.len(), heap: heap.len() });
            }
            heap.fill_from(&b.heap);
            cursors.extend(b.cursors.iter().map(|&(src, lane, expected)| ((src, lane), expected)));
        }
        let mut disposed = 0;
        for p in &self.packets {
            disposed += apply_words(p.words(), p.src(), heap, ams, &mut |_| {}).0 as u64;
            let cursor = cursors.entry((p.src(), p.lane())).or_insert(0);
            *cursor = (*cursor).max(p.seq() + 1);
        }
        let applied =
            |r: &&LoggedPacket| cursors.get(&(r.src(), r.lane())).is_some_and(|&e| r.seq() < e);
        let owed = self.refused.iter().filter(applied).cloned().collect();
        let mut cursors: Vec<_> = cursors.into_iter().map(|((s, l), e)| (s, l, e)).collect();
        cursors.sort_unstable();
        Ok(Replayed { cursors, disposed, owed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_gq::Message;
    use gravel_pgas::Packet;

    fn pkt(src: u32, seq: u64, msgs: &[Message]) -> LoggedPacket {
        let words: Vec<u64> = msgs.iter().flat_map(Message::encode).collect();
        LoggedPacket::new(src, 0, seq, &Packet::from_words(src, 2, &words).payload)
    }

    /// Undecodable and out-of-range records are skipped, the rest
    /// replays onto the baseline, and the cursors advance past the log.
    #[test]
    fn replay_rebuilds_the_heap_and_the_cursors() {
        let mut log = RecoveryLog::default();
        log.rebase(Baseline {
            epoch: 1,
            cursors: vec![(0, 0, 4), (1, 0, 2)],
            heap: vec![10, 0, 0, 3],
            app: vec![0],
        });
        let mut words = Vec::new();
        words.extend(Message::inc(2, 0, 5).encode());
        words.extend(Message::put(2, 2, 77).encode());
        words.extend(Message::inc(2, 3, 1).encode());
        words.extend([u64::MAX, 0, 0, 0]); // undecodable: skipped
        words.extend(Message::inc(2, 999, 1).encode()); // out of range: skipped
        log.packets.push(LoggedPacket::new(1, 0, 2, &Packet::from_words(1, 2, &words).payload));
        log.packets.push(pkt(3, 0, &[Message::inc(2, 0, 1)]));
        let heap = SymmetricHeap::new(4);
        heap.reset(55);
        let r = log.replay(&heap, &AmRegistry::new()).expect("sizes match");
        assert_eq!(heap.snapshot(), vec![16, 0, 77, 4]);
        assert_eq!(r.cursors, vec![(0, 0, 4), (1, 0, 3), (3, 0, 1)]);
        assert_eq!(r.disposed, 5, "the undecodable record is not counted");
    }

    /// A refusal is owed only if the log applied its packet.
    #[test]
    fn replay_owes_the_refusals_of_applied_packets() {
        let mut log = RecoveryLog::default();
        log.rebase(Baseline { epoch: 1, cursors: vec![(1, 0, 4)], heap: vec![0; 4], app: vec![] });
        let refusal = |seq| LoggedPacket::refused(1, 0, seq, &[7; 4]);
        log.refused.push(refusal(4));
        log.packets.push(pkt(1, 4, &[Message::inc(2, 0, 1)]));
        log.refused.push(refusal(5));
        let r = log.replay(&SymmetricHeap::new(4), &AmRegistry::new()).expect("sizes match");
        assert_eq!(r.owed, [refusal(4)], "packet 5 was refused but never forwarded");
        log.rebase(Baseline::default());
        assert!(log.refused.is_empty(), "a cut truncates the refusals");
    }

    #[test]
    fn a_baseline_of_another_size_touches_nothing() {
        let mut log = RecoveryLog::default();
        log.rebase(Baseline { epoch: 3, cursors: vec![(0, 0, 9)], heap: vec![1; 8], app: vec![] });
        log.packets.push(pkt(0, 9, &[Message::inc(2, 0, 1)]));
        let heap = SymmetricHeap::new(4);
        heap.reset(7);
        assert_eq!(
            log.replay(&heap, &AmRegistry::new()),
            Err(ReplayError::HeapLength { baseline: 8, heap: 4 })
        );
        assert_eq!(heap.snapshot(), vec![7; 4], "heap untouched");
        assert_eq!(
            ReplayError::HeapLength { baseline: 8, heap: 4 }.to_string(),
            "baseline heap is 8 words, the node's heap is 4"
        );
    }

    /// The one log against the live receiver: random streams of
    /// applied packets over several flows, cut at random points,
    /// delivered through [`RecvState`](crate::netthread::RecvState) as
    /// the network thread delivers them (late, duplicated, parked).
    /// Replaying baseline + log must leave the live heap and the live
    /// flow cursors.
    mod property {
        use std::sync::Arc;

        use gravel_gq::MSG_ROWS;
        use proptest::prelude::*;

        use super::*;
        use crate::config::GravelConfig;
        use crate::netthread::RecvState;
        use crate::NodeShared;

        const HEAP: u64 = 16;
        /// `(src, lane)` of each flow into node 0.
        const FLOWS: [(u32, u32); 4] = [(0, 0), (1, 0), (1, 1), (2, 0)];

        fn cases() -> u32 {
            std::env::var("GRAVEL_FUZZ_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(if cfg!(debug_assertions) { 256 } else { 4096 })
        }

        /// PUT and INC (in runs), an order-sensitive active message and
        /// the poison a replay skips (RAW records), an out-of-range INC.
        fn arb_msg() -> impl Strategy<Value = [u64; MSG_ROWS]> {
            let v = 0u64..100;
            prop_oneof![
                6 => (0..HEAP, v.clone()).prop_map(|(a, v)| Message::inc(0, a, v).encode()),
                4 => (0..HEAP, v.clone()).prop_map(|(a, v)| Message::put(0, a, v).encode()),
                2 => (0..HEAP, v.clone()).prop_map(|(a, v)| Message::active(0, 0, a, v).encode()),
                1 => (HEAP..HEAP + 4, v).prop_map(|(a, v)| Message::inc(0, a, v).encode()),
                1 => any::<u64>().prop_map(|w| [w | 8, 0, 0, 0]),
            ]
        }

        /// One applied packet of the stream: its flow, its messages, and
        /// whether it arrives a step late or twice.
        type Step = (usize, Vec<[u64; MSG_ROWS]>, bool, bool);

        /// A stream and the steps after which to cut: none, after the
        /// last, or any handful.
        fn arb_stream() -> impl Strategy<Value = (Vec<Step>, Vec<usize>)> {
            let msgs = prop::collection::vec(arb_msg(), 1..10);
            let step = (0..FLOWS.len(), msgs, any::<bool>(), any::<bool>());
            prop::collection::vec(step, 0..24).prop_flat_map(|steps| {
                let n = steps.len();
                let cuts = prop_oneof![
                    Just(vec![]),
                    Just(vec![n]),
                    prop::collection::vec(0..=n, 1..5),
                ];
                (Just(steps), cuts)
            })
        }

        fn node() -> NodeShared {
            let cfg = GravelConfig::small(3, HEAP as usize);
            let mut ams = AmRegistry::new();
            ams.register(Box::new(|h, a, v| h.store(a % HEAP, h.load(a % HEAP) * 3 + v)));
            NodeShared::new(0, &cfg, Arc::new(ams))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(cases()))]

            #[test]
            fn replay_of_baseline_and_log_is_the_live_node(stream in arb_stream()) {
                let (steps, cuts) = stream;
                let node = node();
                let mut st = RecvState::new();
                st.log = Some(RecoveryLog::default());
                let mut next_seq = [0u64; FLOWS.len()];
                let (mut late, mut twice): (Option<Packet>, Vec<Packet>) = (None, Vec::new());
                let mut epoch = 0;
                for i in 0..=steps.len() {
                    for _ in cuts.iter().filter(|&&c| c == i) {
                        epoch += 1;
                        let baseline = Baseline {
                            epoch,
                            cursors: st.flow_cursors(),
                            heap: node.heap.snapshot(),
                            app: vec![epoch],
                        };
                        st.log.as_mut().expect("logging").rebase(baseline);
                    }
                    let Some((flow, msgs, delay, dup)) = steps.get(i) else { break };
                    let (src, lane) = FLOWS[*flow];
                    let mut pkt = Packet::from_words(src, 0, msgs.as_flattened());
                    pkt.lane = lane;
                    pkt.seq = next_seq[*flow];
                    next_seq[*flow] += 1;
                    if *dup {
                        twice.push(pkt.clone());
                    }
                    let held = late.take();
                    if *delay {
                        late = Some(pkt);
                    } else {
                        st.accept(&node, pkt, None, None, None);
                    }
                    for p in held.into_iter().chain(twice.pop()) {
                        st.accept(&node, p, None, None, None);
                    }
                }
                for p in late.into_iter().chain(twice) {
                    st.accept(&node, p, None, None, None);
                }

                let log = st.log.as_ref().expect("logging");
                let last_cut = log.baseline.as_ref().map(|b| b.epoch);
                prop_assert_eq!(last_cut, (!cuts.is_empty()).then_some(epoch));
                let heap = SymmetricHeap::new(HEAP as usize);
                heap.reset(0xdead);
                if log.baseline.is_none() {
                    heap.reset(0);
                }
                let replayed = log.replay(&heap, &node.ams).expect("same heap size");
                prop_assert_eq!(heap.snapshot(), node.heap.snapshot());
                let mut live = st.flow_cursors();
                live.sort_unstable();
                prop_assert_eq!(replayed.cursors, live);
            }
        }
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
}

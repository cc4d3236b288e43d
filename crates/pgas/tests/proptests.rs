//! Property tests for the PGAS substrate.

use std::time::{Duration, Instant};

use gravel_pgas::{
    apply_words, open_ack, open_control, open_frame, open_heartbeat, open_hello, open_reject,
    seal_control, seal_heartbeat, seal_hello, seal_reject, split_wire_lane, wire_lane, AmRegistry,
    DataFrame, FrameError, FrameKind, HelloInfo, Layout, NodeQueues, Packet, Partition,
    RejectReason, SymmetricHeap, WireIntegrity, ACK_FRAME_BYTES,
};
use proptest::prelude::*;

/// `words` as little-endian bytes: an opaque payload.
fn le_bytes(words: &[u64]) -> bytes::Bytes {
    words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>().into()
}

/// Case count for the wire-fuzz properties below. The default keeps CI
/// fast; the nightly-style fuzz job raises it via `GRAVEL_FUZZ_CASES`.
fn fuzz_cases() -> u32 {
    std::env::var("GRAVEL_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (lane, band) ↔ wire lane round-trips, the two bands of one lane
    /// never collide, a bulk flow keeps its aggregator lane as its wire
    /// lane, and a sealed frame carries the mapping through `open`.
    #[test]
    fn wire_lane_mapping_roundtrips(lane in 0u32..(1 << 31), other in 0u32..(1 << 31)) {
        use gravel_gq::{Band, Message};
        for band in Band::ALL {
            prop_assert_eq!(split_wire_lane(wire_lane(lane, band)), (lane, band));
            for b2 in Band::ALL {
                prop_assert_eq!(
                    wire_lane(lane, band) == wire_lane(other, b2),
                    (lane, band) == (other, b2)
                );
            }
        }
        prop_assert_eq!(wire_lane(lane, Band::Bulk), lane);
        for band in Band::ALL {
            // The lane says the band, whatever the payload opens with.
            let mut pkt = Packet::from_words(0, 1, &Message::get(1, 0, 0, 1).encode());
            pkt.lane = wire_lane(lane, band);
            let frame = pkt.seal(0, WireIntegrity::Crc32c);
            prop_assert_eq!(frame.is_express(), band == Band::Express);
            let opened = frame.open(WireIntegrity::Crc32c).unwrap();
            prop_assert_eq!(split_wire_lane(opened.lane), (lane, band));
        }
    }

    /// owner/local_offset/global round-trips and partitions cover the
    /// space exactly, for both layouts and arbitrary sizes.
    #[test]
    fn partition_roundtrip_and_coverage(
        total in 1usize..5000,
        nodes in 1usize..16,
        cyclic: bool,
    ) {
        let layout = if cyclic { Layout::Cyclic } else { Layout::Block };
        let p = Partition::new(total, nodes, layout);
        let mut seen = vec![0u32; total];
        for (g, count) in seen.iter_mut().enumerate() {
            let node = p.owner(g);
            prop_assert!(node < nodes);
            let off = p.local_offset(g);
            prop_assert!((off as usize) < p.local_len(node));
            prop_assert_eq!(p.global(node, off), g);
            *count += 1;
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
        let sum: usize = (0..nodes).map(|n| p.local_len(n)).sum();
        prop_assert_eq!(sum, total);
    }

    /// Aggregation conserves messages and bytes: whatever goes into the
    /// per-destination queues comes out in packets, exactly once, in
    /// order per destination.
    #[test]
    fn nodeq_conserves_messages(
        dests in prop::collection::vec(0usize..6, 1..300),
        // A queue holds at least a run header and one whole message.
        queue_msgs in 2usize..16,
    ) {
        let queue_bytes = queue_msgs * 32;
        let mut nq = NodeQueues::with_config(0, 6, queue_bytes, Duration::from_secs(3600));
        let now = Instant::now();
        let mut packets = Vec::new();
        for (i, &d) in dests.iter().enumerate() {
            let words = [i as u64, d as u64, 0, 0];
            if let Some(p) = nq.push(d, &words, now) {
                packets.push(p);
            }
        }
        packets.extend(nq.flush_all());
        // Every message appears exactly once, tagged by its index.
        let mut tags: Vec<u64> = packets
            .iter()
            .flat_map(|p| p.messages().map(|m| m[0]).collect::<Vec<_>>())
            .collect();
        tags.sort_unstable();
        prop_assert_eq!(tags, (0..dests.len() as u64).collect::<Vec<_>>());
        // Per destination, arrival order is preserved.
        for d in 0..6u32 {
            let per_dest: Vec<u64> = packets
                .iter()
                .filter(|p| p.dest == d)
                .flat_map(|p| p.messages().map(|m| m[0]).collect::<Vec<_>>())
                .collect();
            prop_assert!(per_dest.windows(2).all(|w| w[0] < w[1]), "dest {}", d);
        }
        // No packet exceeds the queue size.
        for p in &packets {
            prop_assert!(p.len() <= queue_bytes);
        }
    }

    /// Applying an arbitrary word stream of valid INC messages yields the
    /// exact histogram.
    #[test]
    fn apply_words_is_exact(
        addrs in prop::collection::vec(0u64..32, 0..200),
    ) {
        let heap = SymmetricHeap::new(32);
        let ams = AmRegistry::new();
        let mut msgs = Vec::new();
        for &a in &addrs {
            msgs.extend(gravel_gq::Message::inc(0, a, 1).encode());
        }
        let words = Packet::from_words(1, 0, &msgs).words();
        let (applied, shutdown) = apply_words(&words, 0, &heap, &ams, &mut |_| {});
        prop_assert_eq!(applied, addrs.len());
        prop_assert!(!shutdown);
        let mut expect = vec![0u64; 32];
        for &a in &addrs {
            expect[a as usize] += 1;
        }
        prop_assert_eq!(heap.snapshot(), expect);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// A word stream of anything — every opcode with junk above it,
    /// addresses in and out of range, a shutdown sentinel — replays to
    /// what one `Message::decode` + `apply` per message leaves: same
    /// heap, same replies, same disposed count, same stop.
    #[test]
    fn apply_words_matches_the_per_message_reference(
        msgs in prop::collection::vec(
            (
                prop_oneof![12 => 0u64..2, 3 => 2u64..8, 1 => Just(3u64), 1 => any::<u64>()],
                prop_oneof![4 => Just(0u64), 1 => any::<u64>()],
                prop_oneof![6 => 0u64..4, 1 => any::<u64>()],
                any::<u64>(),
            ),
            0..48,
        ),
    ) {
        let words: Vec<u64> = msgs
            .iter()
            .flat_map(|&(op, high, addr, value)| [op ^ high << 32, 7, addr, value])
            .collect();
        let payload = Packet::from_words(5, 7, &words).words();
        prop_assert_eq!(Replayed::of_payload(&payload), Replayed::of_messages(&words));
    }

    /// Flipping any single bit anywhere in a sealed data frame —
    /// header, payload, or CRC trailer — must make it fail to open.
    /// (CRC32C has Hamming distance ≥ 4 at these frame sizes, so a
    /// flip the structural checks miss is always caught by the CRC.)
    #[test]
    fn any_single_bit_flip_is_rejected(
        words in prop::collection::vec(any::<u64>(), 0..40),
        src in 0u32..8,
        dest in 0u32..8,
        seq in any::<u64>(),
        at in any::<usize>(),
        bit in 0u32..8,
    ) {
        let mut pkt = Packet::from_payload(src, dest, le_bytes(&words));
        pkt.seq = seq;
        let frame = pkt.seal(0, WireIntegrity::Crc32c);
        prop_assert!(frame.open(WireIntegrity::Crc32c).is_ok());
        let mut mangled = frame.bytes.to_vec();
        let i = at % mangled.len();
        mangled[i] ^= 1 << bit;
        let bad = DataFrame {
            bytes: bytes::Bytes::from(mangled),
            ..frame
        };
        prop_assert!(bad.open(WireIntegrity::Crc32c).is_err());
    }

    /// Arbitrary bytes handed to the frame decoders — data, ack, with
    /// integrity on or off — never panic; they decode or they error.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        junk in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        for integrity in [WireIntegrity::Crc32c, WireIntegrity::Off] {
            let _ = open_frame(&junk, FrameKind::Data, integrity);
            let _ = open_frame(&junk, FrameKind::Ack, integrity);
            let _ = gravel_pgas::open_data_frame(&junk, integrity);
            let _ = open_ack(&junk, integrity);
            let frame = DataFrame {
                src: 0,
                dest: 0,
                born: Instant::now(),
                bytes: bytes::Bytes::from(junk.clone()),
            };
            if let Ok(pkt) = frame.open(integrity) {
                // If something structurally valid slipped through with
                // the CRC off, decoding its messages must not panic
                // either.
                for words in pkt.messages() {
                    let _ = gravel_gq::Message::decode(words);
                }
            }
        }
    }

    /// Request-reply frames round-trip: an express packet of GET,
    /// REPLY, or AM_CALL messages seals to a DATA frame, opens through
    /// the data-plane opener, and decodes back to the identical
    /// messages — and any single-bit flip is rejected.
    #[test]
    fn rpc_frames_roundtrip_and_reject_flips(
        which in 0u8..3,
        n in 1usize..32,
        addrs in prop::collection::vec(any::<u64>(), 32),
        tokens in prop::collection::vec(any::<u64>(), 32),
        deadline in any::<u16>(),
        handler in any::<u32>(),
        at in any::<usize>(),
        bit in 0u32..8,
    ) {
        let msgs: Vec<gravel_gq::Message> = (0..n)
            .map(|i| match which {
                0 => gravel_gq::Message::get(1, addrs[i], tokens[i], deadline),
                1 => gravel_gq::Message::reply(1, tokens[i], addrs[i]),
                _ => gravel_gq::Message::am_call(1, handler, addrs[i], tokens[i], deadline),
            })
            .collect();
        let words: Vec<u64> = msgs.iter().flat_map(|m| m.encode()).collect();
        let mut pkt = Packet::from_words(0, 1, &words);
        pkt.lane = wire_lane(0, gravel_gq::Band::Express);
        let frame = pkt.seal(0, WireIntegrity::Crc32c);
        prop_assert!(frame.is_express());
        let head = gravel_pgas::open_data_frame(&frame.bytes, WireIntegrity::Crc32c).unwrap();
        prop_assert_eq!(head.kind, FrameKind::Data);
        // Payload round-trips bit-exact.
        let opened = frame.open(WireIntegrity::Crc32c).unwrap();
        let back: Vec<_> = opened.messages().map(gravel_gq::Message::decode).collect();
        prop_assert_eq!(back, msgs.iter().copied().map(Some).collect::<Vec<_>>());
        // Any single-bit flip fails verification.
        let mut mangled = frame.bytes.to_vec();
        let i = at % mangled.len();
        mangled[i] ^= 1 << bit;
        let bad = DataFrame { bytes: bytes::Bytes::from(mangled), ..frame };
        prop_assert!(bad.open(WireIntegrity::Crc32c).is_err());
    }

    /// Truncating a sealed frame at any boundary classifies as a
    /// truncation (or a length mismatch) — never a panic, never a
    /// successful open.
    #[test]
    fn truncations_never_open(
        words in prop::collection::vec(any::<u64>(), 1..40),
        cut in any::<usize>(),
    ) {
        let pkt = Packet::from_payload(0, 1, le_bytes(&words));
        let frame = pkt.seal(0, WireIntegrity::Crc32c);
        let n = cut % frame.bytes.len(); // 0..len-1: strictly shorter
        let short = DataFrame {
            bytes: frame.bytes.slice(0..n),
            ..frame
        };
        prop_assert!(short.open(WireIntegrity::Crc32c).is_err());
        prop_assert!(short.open(WireIntegrity::Off).is_err());
    }

    /// Arbitrary bytes handed to the membership-frame decoders — HELLO,
    /// REJECT, heartbeat, control — never panic; they decode or error.
    /// These are the frames a fresh (possibly hostile) socket peer gets
    /// to send before any trust is established.
    #[test]
    fn arbitrary_bytes_never_panic_the_membership_decoders(
        junk in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        for integrity in [WireIntegrity::Crc32c, WireIntegrity::Off] {
            let _ = open_hello(&junk, integrity);
            let _ = open_reject(&junk, integrity);
            let _ = open_heartbeat(&junk, integrity);
            let _ = open_control(&junk, integrity);
        }
    }

    /// Flipping any single bit in a sealed HELLO, REJECT, heartbeat, or
    /// control frame makes it fail to open (handshake and membership
    /// frames always carry CRC32C, regardless of the data-plane
    /// integrity setting).
    #[test]
    fn membership_frame_bit_flips_are_rejected(
        node in 0u32..64,
        peer in 0u32..64,
        epoch in any::<u32>(),
        seq in any::<u64>(),
        words in prop::collection::vec(any::<u64>(), 0..24),
        which in 0u8..4,
        at in any::<usize>(),
        bit in 0u32..8,
    ) {
        let integrity = WireIntegrity::Crc32c;
        let reason = match which {
            0 => RejectReason::Version,
            1 => RejectReason::ClusterShape,
            _ => RejectReason::NodeId,
        };
        let sealed: Vec<u8> = match which {
            0 => seal_hello(
                &HelloInfo { node, peer, nodes: 4, lanes: 1, epoch },
                integrity,
            ).to_vec(),
            1 => seal_reject(node, reason, peer, integrity).to_vec(),
            2 => seal_heartbeat(node, peer, epoch, seq, integrity).to_vec(),
            _ => seal_control(node, peer, epoch, &words, integrity).to_vec(),
        };
        let opens = |b: &[u8]| match which {
            0 => open_hello(b, integrity).is_ok(),
            1 => open_reject(b, integrity).is_ok(),
            2 => open_heartbeat(b, integrity).is_ok(),
            _ => open_control(b, integrity).is_ok(),
        };
        prop_assert!(opens(&sealed));
        let mut mangled = sealed.clone();
        let i = at % mangled.len();
        mangled[i] ^= 1 << bit;
        prop_assert!(!opens(&mangled), "flip at byte {} bit {}", i, bit);
        // Truncation at any boundary must also fail, never panic.
        let cut = at % sealed.len();
        prop_assert!(!opens(&sealed[..cut]));
    }

    /// An ack carries its cumulative point and its selective map
    /// through seal and open unchanged, with integrity on or off.
    #[test]
    fn ack_codec_round_trips(
        src in any::<u32>(),
        dest in any::<u32>(),
        lane in any::<u32>(),
        epoch in any::<u32>(),
        cum in any::<u64>(),
        held in any::<u64>(),
        crc in any::<bool>(),
    ) {
        let integrity = if crc { WireIntegrity::Crc32c } else { WireIntegrity::Off };
        let sealed = gravel_pgas::seal_ack(src, dest, lane, epoch, cum, held, integrity);
        let (head, map) = open_ack(&sealed, integrity).expect("clean ack");
        prop_assert_eq!(
            (head.src, head.dest, head.lane, head.epoch, head.seq, map),
            (src, dest, lane, epoch, cum, held)
        );
    }

    /// Ack frames reject every single-bit flip — in the header, the
    /// map or the trailer — and every truncation.
    #[test]
    fn ack_bit_flips_and_truncations_are_rejected(
        src in any::<u32>(),
        dest in any::<u32>(),
        lane in any::<u32>(),
        cum in any::<u64>(),
        held in any::<u64>(),
        at in 0usize..ACK_FRAME_BYTES,
        bit in 0u32..8,
    ) {
        let mut sealed = gravel_pgas::seal_ack(src, dest, lane, 3, cum, held, WireIntegrity::Crc32c);
        prop_assert!(open_ack(&sealed, WireIntegrity::Crc32c).is_ok());
        // Cut anywhere, and with the CRC out of the picture too: the
        // length checks alone must refuse a short ack.
        for integrity in [WireIntegrity::Crc32c, WireIntegrity::Off] {
            prop_assert!(open_ack(&sealed[..at], integrity).is_err());
        }
        sealed[at] ^= 1 << bit;
        prop_assert!(open_ack(&sealed, WireIntegrity::Crc32c).is_err());
    }

    /// The map-less ack of wire version 1 — 40 bytes, CRC intact — is
    /// refused for its version, not mistaken for "nothing held"; so is
    /// one that claims the current version with no map behind it.
    #[test]
    fn a_version_1_ack_is_refused(
        src in any::<u32>(),
        dest in any::<u32>(),
        lane in any::<u32>(),
        cum in any::<u64>(),
    ) {
        let mut old = Vec::new();
        old.extend(gravel_pgas::frame::MAGIC.to_le_bytes());
        old.extend(1u16.to_le_bytes());
        old.extend([1u8, 0]); // kind ACK, no flags
        for word in [src, dest, lane, 3] {
            old.extend(word.to_le_bytes());
        }
        old.extend(cum.to_le_bytes());
        old.extend(0u32.to_le_bytes()); // no payload
        old.extend(gravel_pgas::crc32c(&old).to_le_bytes());
        prop_assert_eq!(old.len(), gravel_pgas::FRAME_OVERHEAD);
        prop_assert_eq!(
            open_ack(&old, WireIntegrity::Crc32c),
            Err(FrameError::BadVersion { got: 1 })
        );
        old[4..6].copy_from_slice(&gravel_pgas::frame::VERSION.to_le_bytes());
        let body = old.len() - 4;
        let crc = gravel_pgas::crc32c(&old[..body]);
        old[body..].copy_from_slice(&crc.to_le_bytes());
        prop_assert!(matches!(
            open_ack(&old, WireIntegrity::Crc32c),
            Err(FrameError::BadLength { .. })
        ));
    }
}

/// What replaying a word stream leaves: heap, replies, disposed count,
/// whether it stopped at a shutdown sentinel.
#[derive(Debug, PartialEq)]
struct Replayed {
    heap: Vec<u64>,
    replies: Vec<gravel_gq::Message>,
    got: (usize, bool),
}

impl Replayed {
    /// A replying and a returning handler over a four-word heap.
    fn handlers() -> AmRegistry {
        let mut ams = AmRegistry::new();
        ams.register_replying(Box::new(|h, a, v, reply| {
            h.fetch_add(a % 4, v);
            reply(gravel_gq::Message::inc(1, a % 4, v));
        }));
        ams.register_returning(Box::new(|h, a| h.load(a % 4)));
        ams
    }

    /// `apply_words` over payload words (runs) from node 5.
    fn of_payload(payload: &[u64]) -> Replayed {
        let heap = SymmetricHeap::new(4);
        let mut replies = Vec::new();
        let got = apply_words(payload, 5, &heap, &Self::handlers(), &mut |m| replies.push(m));
        Replayed { heap: heap.snapshot(), replies, got }
    }

    /// The reference: one `Message::decode` + `apply` per four-word
    /// message of `msgs`.
    fn of_messages(msgs: &[u64]) -> Replayed {
        use gravel_pgas::{apply, Applied};
        let (heap, ams) = (SymmetricHeap::new(4), Self::handlers());
        let mut replies = Vec::new();
        let (mut disposed, mut shutdown) = (0, false);
        for chunk in msgs.chunks_exact(4) {
            let Some(msg) = gravel_gq::Message::decode(chunk.try_into().unwrap()) else {
                continue;
            };
            match apply(&msg, 5, &heap, &ams, &mut |m| replies.push(m)) {
                Applied::Shutdown => {
                    shutdown = true;
                    break;
                }
                _ => disposed += 1,
            }
        }
        Replayed { heap: heap.snapshot(), replies, got: (disposed, shutdown) }
    }
}

/// One message as words, for a packet to node `dest`: PUTs and INCs
/// (records, whatever their destination word), PUTs and INCs with bits
/// above the opcode (whole messages), every other command and junk.
fn arb_message(dest: u32) -> impl Strategy<Value = [u64; 4]> {
    let cmd = prop_oneof![
        8 => 0u64..2,
        1 => (0u64..2, 1u64..u64::from(u32::MAX)).prop_map(|(op, high)| op | high << 32),
        3 => 2u64..8,
        1 => any::<u64>(),
    ];
    let to = prop_oneof![6 => Just(u64::from(dest)), 1 => any::<u64>()];
    let addr = prop_oneof![6 => 0u64..4, 1 => any::<u64>()];
    (cmd, to, addr, any::<u64>()).prop_map(|(cmd, to, addr, value)| [cmd, to, addr, value])
}

/// `msgs` as a packet for `dest` gives them back: a PUT or INC record
/// carries the packet's destination, not the message's.
fn as_sent(msgs: &[[u64; 4]], dest: u32) -> Vec<[u64; 4]> {
    msgs.iter()
        .map(|&[cmd, to, addr, value]| {
            let to = if cmd < 2 { u64::from(dest) } else { to };
            [cmd, to, addr, value]
        })
        .collect()
}

/// A word that is often a plausible run header: a known kind with a
/// small count.
fn arb_payload_word() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => (0u64..5, 0u64..6).prop_map(|(kind, count)| kind | count << 32),
        4 => 0u64..8,
        3 => any::<u64>(),
    ]
}

/// How the rest of a payload stops making sense.
#[derive(Clone, Copy, Debug)]
enum Torn {
    /// A header whose kind is none of PUT, INC and RAW.
    UnknownKind,
    /// A known kind with a count of zero.
    ZeroCount,
    /// More records than there are words left.
    Overrun,
    /// One to seven bytes, short of a header.
    Ragged,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Random payloads, sealed into a frame and opened again so the
    /// payload is a view into the middle of the frame's bytes, decode
    /// without a panic and from their own bytes only: the message walk,
    /// the count, a decode of an owned copy and `apply_stream` agree on
    /// every message and on where the payload stopped making sense,
    /// which is inside it.
    #[test]
    fn run_decode_of_a_random_payload_never_panics_or_reads_past_it(
        words in prop::collection::vec(arb_payload_word(), 0..64),
        ragged in prop::collection::vec(any::<u8>(), 0..8),
        dest in 0u32..4,
    ) {
        use gravel_pgas::{apply_stream, runs, StreamEnd};
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.extend(&ragged);
        let frame =
            Packet::from_payload(1, dest, bytes.clone().into()).seal(0, WireIntegrity::Crc32c);
        let pkt = frame.open(WireIntegrity::Crc32c).unwrap();
        let payload_at = frame.bytes.as_ptr() as usize + gravel_pgas::HEADER_BYTES;
        prop_assert_eq!(pkt.payload.as_ptr() as usize, payload_at);

        let mut walk = pkt.messages();
        let msgs: Vec<[u64; 4]> = walk.by_ref().collect();
        let stopped = walk.malformed_at();
        prop_assert_eq!(msgs.len(), pkt.msg_count());
        let mut copy = runs::messages(bytes.as_slice(), dest);
        prop_assert_eq!(copy.by_ref().collect::<Vec<_>>(), msgs.clone());
        prop_assert_eq!(copy.malformed_at(), stopped);
        // Bytes short of a word never decode.
        prop_assert!(ragged.is_empty() || stopped.is_some());
        if let Some(at) = stopped {
            prop_assert!(at * 8 <= bytes.len());
        }

        let heap = SymmetricHeap::new(4);
        let (mut cursor, mut others) = (0, Vec::new());
        let payload: &[u8] = &pkt.payload;
        let end = apply_stream(payload, dest, &mut cursor, &heap, || false, |i, w| {
            others.push((i, w));
            true
        });
        prop_assert_eq!(cursor, msgs.len());
        prop_assert_eq!(end, stopped.map_or(StreamEnd::Drained, |at| StreamEnd::Malformed { at }));
        for (i, w) in others {
            prop_assert_eq!(msgs[i], w);
        }
    }

    /// Every shape of malformed header, behind any well-formed runs:
    /// the stream applies exactly the messages before it and reports
    /// it once — from the call that reaches it, however often the
    /// stream was interrupted and resumed on the way.
    #[test]
    fn run_decode_stops_once_at_a_malformed_header_behind_the_runs_before_it(
        prefix in prop::collection::vec(arb_message(0), 0..12),
        torn in prop_oneof![
            Just(Torn::UnknownKind),
            Just(Torn::ZeroCount),
            Just(Torn::Overrun),
            Just(Torn::Ragged),
        ],
        code in any::<u32>(),
        kind in 1u32..4,
        junk in prop::collection::vec(any::<u64>(), 0..6),
        short in 1usize..8,
        // At least one poll between kills, so every call makes progress.
        kill_every in 2usize..6,
    ) {
        use gravel_pgas::{apply_stream, runs::run_header, RunKind, StreamEnd};
        let flat: Vec<u64> = prefix.iter().flatten().copied().collect();
        let good = Packet::from_words(1, 0, &flat);
        let kind = RunKind::of_code(kind).unwrap();
        let header = match torn {
            Torn::UnknownKind => {
                let code = if (1..=3).contains(&code) { code + 3 } else { code };
                Some(u64::from(code) | (junk.len() as u64) << 32)
            }
            Torn::ZeroCount => Some(run_header(kind, 0)),
            Torn::Overrun => {
                Some(run_header(kind, (junk.len() / kind.record_words()) as u32 + 1))
            }
            Torn::Ragged => None,
        };
        let mut bytes = good.payload.to_vec();
        match header {
            Some(h) => {
                bytes.extend(h.to_le_bytes());
                bytes.extend(junk.iter().flat_map(|w| w.to_le_bytes()));
            }
            None => bytes.extend(&junk.first().unwrap_or(&0).to_le_bytes()[..short]),
        }
        let torn_pkt = Packet::from_payload(1, 0, bytes.into());
        let mut walk = torn_pkt.messages();
        prop_assert_eq!(walk.by_ref().collect::<Vec<_>>(), as_sent(&prefix, 0));
        let at = good.len() / 8;
        prop_assert_eq!(walk.malformed_at(), Some(at));

        // Only the prefix, run to its end.
        let want = SymmetricHeap::new(4);
        let mut cursor = 0;
        let whole: &[u8] = &good.payload;
        apply_stream(whole, 0, &mut cursor, &want, || false, |_, _| true);

        // The torn payload, interrupted every few messages and resumed.
        let heap = SymmetricHeap::new(4);
        let payload: &[u8] = &torn_pkt.payload;
        let (mut cursor, mut polls, mut ends) = (0, 0, Vec::new());
        loop {
            let end = apply_stream(payload, 0, &mut cursor, &heap, || {
                polls += 1;
                polls % kill_every == 0
            }, |_, _| true);
            ends.push(end);
            if end != StreamEnd::Interrupted {
                break;
            }
        }
        prop_assert_eq!(cursor, prefix.len());
        prop_assert_eq!(ends.last(), Some(&StreamEnd::Malformed { at }));
        let reported = ends.iter().filter(|e| matches!(e, StreamEnd::Malformed { .. })).count();
        prop_assert_eq!(reported, 1);
        prop_assert_eq!(heap.snapshot(), want.snapshot());
    }

    /// Encode → decode round-trips any mix of commands exactly, and two
    /// payloads placed end to end — a replay log — decode, and replay,
    /// as the messages of both in order.
    #[test]
    fn run_decode_round_trips_any_mix_and_payloads_end_to_end(
        a in prop::collection::vec(arb_message(3), 0..40),
        b in prop::collection::vec(arb_message(3), 0..40),
    ) {
        let [pa, pb] = [&a, &b].map(|m| Packet::from_words(0, 3, m.as_flattened()));
        for (pkt, msgs) in [(&pa, &a), (&pb, &b)] {
            let mut walk = pkt.messages();
            prop_assert_eq!(walk.by_ref().collect::<Vec<_>>(), as_sent(msgs, 3));
            prop_assert_eq!(walk.malformed_at(), None);
            prop_assert_eq!(pkt.msg_count(), msgs.len());
            prop_assert!(pkt.len() <= msgs.len() * (8 + 32));
        }
        let log = [pa.words(), pb.words()].concat();
        let both = [a.clone(), b.clone()].concat();
        let mut walk = gravel_pgas::runs::messages(log.as_slice(), 3);
        prop_assert_eq!(walk.by_ref().collect::<Vec<_>>(), as_sent(&both, 3));
        prop_assert_eq!(walk.malformed_at(), None);
        prop_assert_eq!(Replayed::of_payload(&log), Replayed::of_messages(both.as_flattened()));
    }
}

/// Case count for the differential oracles: CI's `release-oracles` job runs
/// them in `--release`.
fn oracle_cases() -> u32 {
    std::env::var("GRAVEL_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 256 } else { 4096 })
}

/// How a packet with frame room around its payload came to be.
#[derive(Clone, Copy, Debug)]
enum Built {
    /// `Packet::from_incs_in` (the `gravel-node` packetizer): any
    /// number of INCs.
    FromIncs,
    /// A lane's `NodeQueues` whose queue these messages fill exactly.
    LaneFull,
    /// The same queue flushed short of full (a timeout flush).
    LanePartial,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// The in-place seal is the copying seal minus the copy: the same
    /// frame, byte for byte, in the buffer the messages were written
    /// into; and only the first seal of the one packet that holds the
    /// room takes it — a clone, a roomless packet and a second seal all
    /// copy and leave the sealed frame alone.
    #[test]
    fn in_place_seal_matches_the_copying_seal_and_happens_once(
        // 0, one message, up to a few messages.
        words in prop::collection::vec(any::<u64>(), 0..=40),
        opcode in 0u64..8,
        src in 0u32..8,
        dest in 0u32..8,
        lane in 0u32..(1 << 31),
        band in prop_oneof![Just(gravel_gq::Band::Express), Just(gravel_gq::Band::Bulk)],
        epoch: u32,
        seq: u64,
        crc: bool,
        built in prop_oneof![Just(Built::FromIncs), Just(Built::LaneFull), Just(Built::LanePartial)],
    ) {
        use gravel_gq::BufferPool;
        use gravel_pgas::{FRAME_OVERHEAD, HEADER_BYTES};
        let integrity = if crc { WireIntegrity::Crc32c } else { WireIntegrity::Off };
        let mut words = words;
        words.truncate(words.len() / 4 * 4);
        if !matches!(built, Built::FromIncs) {
            // At least two messages, all with the first one's command
            // word: a queue they fill exactly flushes behind the last.
            words.resize((words.len() / 4).max(2) * 4, 7);
            let cmd = words[0];
            words.chunks_exact_mut(4).for_each(|msg| msg[0] = cmd);
        }
        for msg in words.chunks_exact_mut(4) {
            // Every opcode, and opcodes that are none; PUT and INC
            // records (an exact command word) as well as whole messages.
            msg[0] = match built {
                Built::FromIncs => 1,
                _ if opcode < 2 && msg[0] % 2 == 0 => opcode,
                _ => msg[0] & !0xff | opcode,
            };
        }
        let pool = BufferPool::new();
        let takes = || pool.hits() + pool.misses();
        let encoded = Packet::from_words(src, dest, &words).len();
        let mut roomy = match built {
            Built::FromIncs => {
                let incs = words.chunks_exact(4).map(|m| (m[2], m[3]));
                Packet::from_incs_in(src, dest, incs, Some(&pool))
            }
            Built::LaneFull | Built::LanePartial => {
                let slack = if matches!(built, Built::LanePartial) { 32 } else { 0 };
                let mut nq = NodeQueues::with_config(
                    src,
                    8,
                    encoded + slack,
                    Duration::from_secs(3600),
                )
                .with_pool(pool.clone());
                let now = Instant::now();
                let mut flushed: Vec<Packet> = Vec::new();
                for msg in words.chunks_exact(4) {
                    flushed.extend(nq.push(dest as usize, msg, now));
                }
                prop_assert_eq!(flushed.len(), if slack == 0 { 1 } else { 0 });
                flushed.extend(nq.flush_all());
                prop_assert_eq!(flushed.len(), 1);
                flushed.pop().unwrap()
            }
        };
        let lane = wire_lane(lane, band);
        (roomy.lane, roomy.seq) = (lane, seq);
        let sent: Vec<[u64; 4]> = words.chunks_exact(4).map(|m| m.try_into().unwrap()).collect();
        prop_assert_eq!(roomy.messages().collect::<Vec<_>>(), as_sent(&sent, dest));
        prop_assert_eq!(roomy.len(), encoded);
        let filled_at = roomy.payload.as_ptr() as usize;

        // The reference: the same packet without room, sealed by copy.
        let mut bare = Packet::from_words(src, dest, &words);
        (bare.lane, bare.seq, bare.born) = (lane, seq, roomy.born);
        let reference = bare.seal(epoch, integrity);
        prop_assert_eq!(reference.len(), encoded + FRAME_OVERHEAD);

        // A clone shares the payload, not the room: it copies.
        let before = takes();
        let of_clone = roomy.clone().seal_in(epoch, integrity, Some(&pool));
        prop_assert_eq!(takes(), before + 1);
        prop_assert_eq!(&of_clone.bytes, &reference.bytes);
        prop_assert_ne!(of_clone.bytes.as_ptr() as usize + HEADER_BYTES, filled_at);

        // The packet itself seals where its messages lie: no buffer
        // taken, the same bytes, the payload where the lane put it.
        let before = takes();
        let frame = roomy.seal_in(epoch, integrity, Some(&pool));
        prop_assert_eq!(takes(), before, "an in-place seal takes no buffer");
        prop_assert_eq!(&frame.bytes, &reference.bytes);
        prop_assert_eq!(frame.bytes.as_ptr() as usize + HEADER_BYTES, filled_at);
        prop_assert_eq!((frame.src, frame.dest), (reference.src, reference.dest));
        prop_assert_eq!(frame.is_express(), band == gravel_gq::Band::Express);
        let opened = frame.open(integrity).expect("an in-place frame verifies");
        prop_assert_eq!(opened.payload.as_ptr() as usize, filled_at, "open lends the lane's bytes");
        prop_assert_eq!(&opened, &roomy);

        // A second seal of the same packet copies, and the frame a
        // retransmission clone still holds keeps every byte.
        let held = frame.clone();
        let before = takes();
        let again = roomy.seal_in(epoch.wrapping_add(1), integrity, Some(&pool));
        prop_assert_eq!(takes(), before + 1);
        prop_assert_ne!(again.bytes.as_ptr(), frame.bytes.as_ptr());
        prop_assert_eq!(&held.bytes, &reference.bytes);
        prop_assert_eq!(again.open(integrity).expect("the copy verifies").payload, roomy.payload.clone());
        let epoch_of = |f: &DataFrame| u32::from_le_bytes(f.bytes[20..24].try_into().unwrap());
        prop_assert_eq!((epoch_of(&held), epoch_of(&again)), (epoch, epoch.wrapping_add(1)));
    }
}

//! Property tests for the PGAS substrate.

use std::time::{Duration, Instant};

use gravel_pgas::{
    apply_words, open_ack, open_control, open_frame, open_heartbeat, open_hello, open_reject,
    seal_control, seal_heartbeat, seal_hello, seal_reject, split_wire_lane, wire_lane, AmRegistry,
    DataFrame, FrameError, FrameKind, HelloInfo, Layout, NodeQueues, Packet, Partition,
    RejectReason, SymmetricHeap, WireIntegrity, ACK_FRAME_BYTES,
};
use proptest::prelude::*;

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
        let mut pkt = Packet::from_words(0, 1, &Message::get(1, 0, 0, 1).encode());
        pkt.lane = wire_lane(lane, pkt.class().band());
        let frame = pkt.seal(0, WireIntegrity::Crc32c);
        prop_assert!(frame.express);
        let opened = frame.open(WireIntegrity::Crc32c).unwrap();
        prop_assert_eq!(split_wire_lane(opened.lane), (lane, Band::Express));
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
        queue_msgs in 1usize..16,
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
            .flat_map(|p| p.words().chunks_exact(4).map(|c| c[0]).collect::<Vec<_>>())
            .collect();
        tags.sort_unstable();
        prop_assert_eq!(tags, (0..dests.len() as u64).collect::<Vec<_>>());
        // Per destination, arrival order is preserved.
        for d in 0..6u32 {
            let per_dest: Vec<u64> = packets
                .iter()
                .filter(|p| p.dest == d)
                .flat_map(|p| p.words().chunks_exact(4).map(|c| c[0]).collect::<Vec<_>>())
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
        let mut words = Vec::new();
        for &a in &addrs {
            words.extend(gravel_gq::Message::inc(0, a, 1).encode());
        }
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
        use gravel_gq::Message;
        use gravel_pgas::{apply, Applied};
        let mut ams = AmRegistry::new();
        ams.register_replying(Box::new(|h, a, v, reply| {
            h.fetch_add(a % 4, v);
            reply(Message::inc(1, a % 4, v));
        }));
        ams.register_returning(Box::new(|h, a| h.load(a % 4)));
        let words: Vec<u64> = msgs
            .iter()
            .flat_map(|&(op, high, addr, value)| [op ^ high << 32, 7, addr, value])
            .collect();

        let heap = SymmetricHeap::new(4);
        let mut replies = Vec::new();
        let got = apply_words(&words, 5, &heap, &ams, &mut |m| replies.push(m));

        let reference = SymmetricHeap::new(4);
        let mut want_replies = Vec::new();
        let (mut disposed, mut shutdown) = (0, false);
        for chunk in words.chunks_exact(4) {
            let Some(msg) = Message::decode([chunk[0], chunk[1], chunk[2], chunk[3]]) else {
                continue;
            };
            match apply(&msg, 5, &reference, &ams, &mut |m| want_replies.push(m)) {
                Applied::Shutdown => {
                    shutdown = true;
                    break;
                }
                _ => disposed += 1,
            }
        }
        prop_assert_eq!(got, (disposed, shutdown));
        prop_assert_eq!(heap.snapshot(), reference.snapshot());
        prop_assert_eq!(replies, want_replies);
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
        let mut pkt = Packet::from_words(src, dest, &words);
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
                express: false,
                born: Instant::now(),
                bytes: bytes::Bytes::from(junk.clone()),
            };
            if let Ok(pkt) = frame.open(integrity) {
                // If something structurally valid slipped through with
                // the CRC off, decoding its messages must not panic
                // either.
                for i in 0..pkt.msg_count() {
                    let _ = gravel_gq::Message::decode(pkt.msg_words(i));
                }
            }
        }
    }

    /// Request-reply frames round-trip: a class-pure packet of GET,
    /// REPLY, or AM_CALL messages seals to the matching frame kind,
    /// opens through the shared data-plane opener, and decodes back to
    /// the identical messages — and any single-bit flip is rejected.
    #[test]
    fn rpc_frame_kinds_roundtrip_and_reject_flips(
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
        let pkt = Packet::from_words(0, 1, &words);
        let frame = pkt.seal(0, WireIntegrity::Crc32c);
        // The frame kind advertises the class without decoding payload.
        let head = gravel_pgas::open_data_frame(&frame.bytes, WireIntegrity::Crc32c).unwrap();
        let expect_kind = match which {
            0 => FrameKind::Get,
            1 => FrameKind::AmReply,
            _ => FrameKind::AmCall,
        };
        prop_assert_eq!(head.kind, expect_kind);
        // A data-plane opener pinned to DATA must refuse it (kind
        // confusion is corruption).
        prop_assert!(open_frame(&frame.bytes, FrameKind::Data, WireIntegrity::Crc32c).is_err());
        // Payload round-trips bit-exact.
        let opened = frame.open(WireIntegrity::Crc32c).unwrap();
        for (i, m) in msgs.iter().enumerate() {
            prop_assert_eq!(gravel_gq::Message::decode(opened.msg_words(i)), Some(*m));
        }
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
        let pkt = Packet::from_words(0, 1, &words);
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
    /// `Packet::from_words_in` (the `gravel-node` packetizer): any
    /// whole number of words, a partial last message included.
    FromWords,
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
        // 0, one message, partial tails, up to a few messages.
        words in prop::collection::vec(any::<u64>(), 0..=40),
        opcode in 0u64..8,
        src in 0u32..8,
        dest in 0u32..8,
        lane: u32,
        epoch: u32,
        seq: u64,
        crc: bool,
        built in prop_oneof![Just(Built::FromWords), Just(Built::LaneFull), Just(Built::LanePartial)],
    ) {
        use gravel_gq::BufferPool;
        use gravel_pgas::{FRAME_OVERHEAD, HEADER_BYTES};
        let integrity = if crc { WireIntegrity::Crc32c } else { WireIntegrity::Off };
        let mut words = words;
        if let Some(first) = words.first_mut() {
            // Every class, and opcodes that are none.
            *first = *first & !0xff | opcode;
        }
        let pool = BufferPool::new();
        let takes = || pool.hits() + pool.misses();
        let mut roomy = match built {
            Built::FromWords => Packet::from_words_in(src, dest, &words, Some(&pool)),
            Built::LaneFull | Built::LanePartial => {
                // Whole messages only, and at least one.
                words.resize((words.len() / 4).max(1) * 4, 7);
                let slack = if matches!(built, Built::LanePartial) { 32 } else { 0 };
                let mut nq = NodeQueues::with_config(
                    src,
                    8,
                    words.len() * 8 + slack,
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
        (roomy.lane, roomy.seq) = (lane, seq);
        prop_assert_eq!(roomy.words(), words.clone());
        let filled_at = roomy.payload.as_ptr() as usize;

        // The reference: the same packet without room, sealed by copy.
        let mut bare = Packet::from_words(src, dest, &words);
        (bare.lane, bare.seq, bare.born) = (lane, seq, roomy.born);
        let reference = bare.seal(epoch, integrity);
        prop_assert_eq!(reference.len(), words.len() * 8 + FRAME_OVERHEAD);

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
        prop_assert_eq!((frame.src, frame.dest, frame.express), (reference.src, reference.dest, reference.express));
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

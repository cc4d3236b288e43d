//! In-process tests for the socket transport: handshake, routing on
//! every plane, version rejection, bounded redial backoff,
//! stream-reassembly at every split offset, and frames far larger than
//! a socket buffer.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gravel_net::{
    Ack, Heartbeat, PeerEvent, ReconnectConfig, RecvStatus, SocketAddrSpec, SocketConfig,
    SocketTransport, StreamDecoder, Transport, MAX_FRAME_BYTES,
};
use gravel_pgas::frame::{crc32c, open_reject, seal_control, seal_hello, HelloInfo, RejectReason};
use gravel_pgas::{seal_ack, Packet, WireIntegrity, HEADER_BYTES};
use proptest::prelude::*;

fn temp_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("gravel-sock-{}-{tag}-{n}", std::process::id()))
}

fn uds_pair(tag: &str) -> Vec<SocketAddrSpec> {
    vec![
        SocketAddrSpec::Uds(temp_path(&format!("{tag}-0"))),
        SocketAddrSpec::Uds(temp_path(&format!("{tag}-1"))),
    ]
}

fn fast_reconnect() -> ReconnectConfig {
    ReconnectConfig {
        base: Duration::from_millis(5),
        max: Duration::from_millis(50),
        handshake_timeout: Duration::from_secs(2),
    }
}

fn spawn_pair(tag: &str) -> (Arc<SocketTransport>, Arc<SocketTransport>) {
    let addrs = uds_pair(tag);
    let mut cfg0 = SocketConfig::new(0, addrs.clone());
    cfg0.reconnect = fast_reconnect();
    let mut cfg1 = SocketConfig::new(1, addrs);
    cfg1.reconnect = fast_reconnect();
    let t0 = SocketTransport::spawn(cfg0).expect("bind node 0");
    let t1 = SocketTransport::spawn(cfg1).expect("bind node 1");
    assert!(t0.wait_connected(1, Duration::from_secs(5)), "0 sees 1");
    assert!(t1.wait_connected(0, Duration::from_secs(5)), "1 sees 0");
    (t0, t1)
}

fn poll<T>(deadline: Duration, mut f: impl FnMut() -> Option<T>) -> T {
    let until = Instant::now() + deadline;
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < until, "poll timed out");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The next control message `t` receives, within `deadline`.
fn next_control(t: &SocketTransport, deadline: Duration) -> gravel_net::ControlMsg {
    poll(deadline, || match t.recv_control(Duration::from_millis(50)) {
        RecvStatus::Msg(m) => Some(m),
        _ => None,
    })
}

#[test]
fn uds_roundtrip_all_planes() {
    let (t0, t1) = spawn_pair("roundtrip");

    // Data plane: a sealed packet crosses the socket and opens clean.
    let mut pkt = Packet::from_words(1, 0, &[10, 20, 30, 40]);
    pkt.seq = 7;
    let frame = pkt.seal(3, WireIntegrity::Crc32c);
    assert_eq!(
        t1.send_data(frame, Duration::from_secs(1)),
        gravel_net::SendStatus::Sent
    );
    let got = poll(Duration::from_secs(5), || {
        match t0.recv_data(0, Duration::from_millis(50)) {
            RecvStatus::Msg(f) => Some(f),
            _ => None,
        }
    });
    let back = got.open(WireIntegrity::Crc32c).expect("clean frame");
    // `born` is re-stamped at the receiving endpoint (it never crosses
    // a real wire), so compare the protocol fields.
    assert_eq!(
        (back.src, back.dest, back.lane, back.seq, back.words()),
        (pkt.src, pkt.dest, pkt.lane, pkt.seq, pkt.words())
    );

    // Ack plane, node 0 -> node 1 lane 0.
    let ack = Ack { src: 0, dest: 1, lane: 0, cum_seq: 7 };
    let held = 0b1010 | 1 << 63;
    t0.send_ack(ack.seal_holding(held, 3, WireIntegrity::Crc32c));
    let af = poll(Duration::from_secs(5), || t1.try_recv_ack(1, 0));
    assert_eq!(af.open(WireIntegrity::Crc32c).unwrap(), (ack, held));

    // Heartbeat plane (sealed + verified over the wire).
    t0.send_heartbeat(Heartbeat { src: 0, dest: 1, seq: 42 });
    let hb = poll(Duration::from_secs(5), || t1.try_recv_heartbeat(1));
    assert_eq!(hb, Heartbeat { src: 0, dest: 1, seq: 42 });

    // Control plane, including loopback.
    assert!(t1.send_control(0, &[9, 8, 7]));
    let msg = poll(Duration::from_secs(5), || match t0.recv_control(Duration::from_millis(50)) {
        RecvStatus::Msg(m) => Some(m),
        _ => None,
    });
    assert_eq!((msg.src, msg.words.as_slice()), (1, &[9u64, 8, 7][..]));
    assert!(t0.send_control(0, &[5]));
    let lo = poll(Duration::from_secs(5), || match t0.recv_control(Duration::from_millis(50)) {
        RecvStatus::Msg(m) => Some(m),
        _ => None,
    });
    assert_eq!((lo.src, lo.words.as_slice()), (0, &[5u64][..]));

    // Loopback data obeys the same bounded-ingress semantics.
    let self_pkt = Packet::from_words(0, 0, &[1, 2, 3, 4]);
    let self_frame = self_pkt.seal(0, WireIntegrity::Crc32c);
    t0.send_data(self_frame, Duration::from_secs(1));
    let lo = poll(Duration::from_secs(5), || {
        match t0.recv_data(0, Duration::from_millis(50)) {
            RecvStatus::Msg(f) => Some(f),
            _ => None,
        }
    });
    assert_eq!(lo.open(WireIntegrity::Crc32c).unwrap(), self_pkt);

    let s0 = t0.stats();
    assert_eq!(s0.handshakes, 1);
    assert_eq!(s0.reconnects, 0);
    assert_eq!(s0.handshake_rejects, 0);
    t0.close();
    t1.close();
}

#[test]
fn tcp_behind_the_same_code() {
    // Node 0 binds an ephemeral port; node 1 (the dialer for the pair)
    // learns it before spawning.
    let mut cfg0 = SocketConfig::new(
        0,
        vec![
            SocketAddrSpec::Tcp("127.0.0.1:0".into()),
            SocketAddrSpec::Tcp("127.0.0.1:0".into()),
        ],
    );
    cfg0.reconnect = fast_reconnect();
    let t0 = SocketTransport::spawn(cfg0).expect("bind tcp node 0");
    let port = t0.tcp_port();
    assert_ne!(port, 0);
    let mut cfg1 = SocketConfig::new(
        1,
        vec![
            SocketAddrSpec::Tcp(format!("127.0.0.1:{port}")),
            SocketAddrSpec::Tcp("127.0.0.1:0".into()),
        ],
    );
    cfg1.reconnect = fast_reconnect();
    let t1 = SocketTransport::spawn(cfg1).expect("bind tcp node 1");
    assert!(t1.wait_connected(0, Duration::from_secs(5)));

    let pkt = Packet::from_words(1, 0, &[0xdead, 0xbeef, 2, 2]);
    t1.send_data(pkt.seal(0, WireIntegrity::Crc32c), Duration::from_secs(1));
    let got = poll(Duration::from_secs(5), || {
        match t0.recv_data(0, Duration::from_millis(50)) {
            RecvStatus::Msg(f) => Some(f),
            _ => None,
        }
    });
    let back = got.open(WireIntegrity::Crc32c).unwrap();
    assert_eq!(
        (back.src, back.dest, back.seq, back.words()),
        (pkt.src, pkt.dest, pkt.seq, pkt.words())
    );
    t0.close();
    t1.close();
}

/// Satellite: a HELLO carrying a mismatched wire version gets a
/// counted, logged REJECT frame back — never a silent hang.
#[test]
fn version_mismatch_is_rejected_with_a_frame() {
    let path = temp_path("reject-listener");
    let addrs = vec![
        SocketAddrSpec::Uds(path.clone()),
        SocketAddrSpec::Uds(temp_path("reject-ghost")),
    ];
    let t0 = SocketTransport::spawn(SocketConfig::new(0, addrs)).expect("bind");

    // Craft a HELLO from "node 1" and stamp the previous wire version
    // (3: bands told by frame kind), re-sealing the CRC so only the
    // version check can fail.
    let hello = seal_hello(
        &HelloInfo { node: 1, peer: 0, nodes: 2, lanes: 1, epoch: 0 },
        WireIntegrity::Crc32c,
    );
    let mut alien = hello.to_vec();
    alien[4..6].copy_from_slice(&3u16.to_le_bytes());
    let tail = alien.len() - 4;
    let crc = crc32c(&alien[..tail]);
    alien[tail..].copy_from_slice(&crc.to_le_bytes());

    let mut raw = UnixStream::connect(&path).expect("dial listener");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&(alien.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&alien).unwrap();

    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("a reply frame, not a hang");
    let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut reply).unwrap();
    let (src, reason, detail) = open_reject(&reply, WireIntegrity::Crc32c).expect("REJECT");
    assert_eq!(src, 0);
    assert_eq!(reason, RejectReason::Version);
    assert_eq!(detail, 3);

    // The stream is closed after the rejection.
    let n = raw.read(&mut len).unwrap_or(0);
    assert_eq!(n, 0, "rejecting side closes the stream");
    assert_eq!(t0.stats().handshake_rejects, 1);

    // Garbage that is not a HELLO at all is rejected as Protocol.
    let mut raw = UnixStream::connect(&path).expect("dial again");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let junk = [0x13u8; 64];
    raw.write_all(&(junk.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&junk).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("a reply frame");
    let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut reply).unwrap();
    let (_, reason, _) = open_reject(&reply, WireIntegrity::Crc32c).expect("REJECT");
    assert_eq!(reason, RejectReason::Protocol);
    assert_eq!(t0.stats().handshake_rejects, 2);
    t0.close();
}

/// A dialer that keeps getting connection-refused backs off
/// exponentially (with jitter) instead of storming, and heals the
/// moment the listener appears — then survives a listener death and
/// counts the reconnect.
#[test]
fn redial_backoff_is_bounded_and_heals() {
    let addrs = uds_pair("backoff");
    let mut cfg1 = SocketConfig::new(1, addrs.clone());
    cfg1.reconnect = ReconnectConfig {
        base: Duration::from_millis(10),
        max: Duration::from_millis(100),
        handshake_timeout: Duration::from_secs(2),
    };
    // Node 1 dials node 0, which does not exist yet.
    let t1 = SocketTransport::spawn(cfg1).expect("bind node 1");
    std::thread::sleep(Duration::from_millis(600));
    let failures = t1.stats().connect_failures;
    // Pure 10ms polling would rack up ~60 failures in 600ms; the
    // exponential schedule (10+15+20+30+... capped at 100+jitter)
    // keeps it far lower while still retrying promptly.
    assert!(failures >= 2, "dialer must keep trying (got {failures})");
    assert!(failures <= 20, "backoff must bound the storm (got {failures})");

    // The listener appears; the link heals without intervention.
    let mut cfg0 = SocketConfig::new(0, addrs.clone());
    cfg0.reconnect = fast_reconnect();
    let t0 = SocketTransport::spawn(cfg0).expect("bind node 0");
    assert!(t1.wait_connected(0, Duration::from_secs(5)), "link heals");
    assert_eq!(t1.stats().reconnects, 0, "first connect is not a reconnect");
    let up = poll(Duration::from_secs(5), || t1.poll_event(Duration::from_millis(20)));
    assert_eq!(up, PeerEvent::Up(0));

    // Kill the listener end; the dialer notices, redials, and the
    // replacement handshake counts as a reconnect.
    t0.close();
    drop(t0);
    let down = poll(Duration::from_secs(5), || {
        t1.poll_event(Duration::from_millis(20)).filter(|e| matches!(e, PeerEvent::Down(0)))
    });
    assert_eq!(down, PeerEvent::Down(0));
    let mut cfg0b = SocketConfig::new(0, addrs);
    cfg0b.reconnect = fast_reconnect();
    let t0b = SocketTransport::spawn(cfg0b).expect("rebind node 0");
    assert!(t1.wait_connected(0, Duration::from_secs(5)), "link re-heals");
    assert_eq!(t1.stats().reconnects, 1);
    t0b.close();
    t1.close();
}

/// A stream source that hands out at most `step` bytes per `read`, the
/// way a socket hands out whatever has arrived.
struct Dribble<'a> {
    data: &'a [u8],
    step: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(self.data.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Read `src` to its end through the decoder's own buffer, collecting
/// every frame it yields.
fn read_all(dec: &mut StreamDecoder, src: &mut impl Read, got: &mut Vec<Vec<u8>>) {
    while dec.read_from(src).expect("in-memory read") > 0 {
        while let Some(f) = dec.next_frame().expect("valid stream") {
            got.push(f.to_vec());
        }
    }
}

/// Append one length-delimited frame to `stream` and remember it.
fn push_frame(stream: &mut Vec<u8>, frames: &mut Vec<Vec<u8>>, bytes: Vec<u8>) {
    stream.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    stream.extend_from_slice(&bytes);
    frames.push(bytes);
}

/// Satellite: stream reassembly split at *every* byte offset. A valid
/// multi-frame byte stream cut into two arbitrary reads must reassemble
/// into the identical frame sequence. The stream mixes every plane the
/// wire carries, including express frames (a GET and its REPLY), so a
/// reply split across two kernel reads is covered at each offset.
#[test]
fn reassembly_survives_a_split_at_every_offset() {
    let mut stream = Vec::new();
    let mut frames = Vec::new();
    let pkt = Packet::from_words(1, 0, &[11, 22, 33, 44, 55, 66, 77, 88]);
    let express = |m: gravel_gq::Message, src: u32, dest: u32| {
        let mut p = Packet::from_words(src, dest, &m.encode());
        p.lane = gravel_pgas::wire_lane(0, gravel_gq::Band::Express);
        p
    };
    let get = express(gravel_gq::Message::get(0, 5, 0xAB, 250), 1, 0);
    let rep = express(gravel_gq::Message::reply(1, 0xAB, 0x5EED), 0, 1);
    for bytes in [
        pkt.seal(1, WireIntegrity::Crc32c).bytes.to_vec(),
        get.seal(1, WireIntegrity::Crc32c).bytes.to_vec(),
        rep.seal(1, WireIntegrity::Crc32c).bytes.to_vec(),
        seal_ack(0, 1, 0, 1, 3, 0b110, WireIntegrity::Crc32c).to_vec(),
        seal_control(1, 0, 2, &[1, 2, 3], WireIntegrity::Crc32c).to_vec(),
    ] {
        push_frame(&mut stream, &mut frames, bytes);
    }
    for cut in 0..=stream.len() {
        let mut dec = StreamDecoder::new(MAX_FRAME_BYTES);
        let mut got = Vec::new();
        for mut part in [&stream[..cut], &stream[cut..]] {
            read_all(&mut dec, &mut part, &mut got);
        }
        assert_eq!(got, frames, "split at byte {cut}");
        assert_eq!(dec.pending(), 0, "split at byte {cut}");
    }
    // The reassembled request-reply frames still carry their band.
    let bands: Vec<gravel_gq::Band> = frames
        .iter()
        .filter_map(|f| gravel_pgas::open_data_frame(f, WireIntegrity::Crc32c).ok())
        .map(|h| gravel_pgas::split_wire_lane(h.lane).1)
        .collect();
    use gravel_gq::Band::{Bulk, Express};
    assert_eq!(bands, vec![Bulk, Express, Express]);
    // And the ack comes out whole: header, selective map, trailer.
    assert_eq!(frames[3].len(), gravel_pgas::ACK_FRAME_BYTES);
    let (head, held) = gravel_pgas::open_ack(&frames[3], WireIntegrity::Crc32c).expect("ack");
    assert_eq!((head.seq, held), (3, 0b110));
}

/// The decoder reads into its own buffer, so the same stream must come
/// out whatever a read returns: a byte-dripped stream, reads that each
/// carry dozens of small frames, and frames several times larger than
/// any one read (the buffer grows for them and the partial frame is
/// carried across refills).
#[test]
fn reassembly_is_invariant_under_the_size_of_a_read() {
    let mut stream = Vec::new();
    let mut frames = Vec::new();
    let big: Vec<u64> = (0..150_000).collect();
    let packet: Vec<u64> = (0..8 * 1024).collect();
    for round in 0..3u64 {
        for seq in 0..40 {
            let ack = seal_ack(0, 1, 0, 1, round * 40 + seq, seq << 1, WireIntegrity::Crc32c);
            push_frame(&mut stream, &mut frames, ack.to_vec());
        }
        // 1.2 MB: several reads long at every step below.
        let ctrl = seal_control(1, 0, 2, &big, WireIntegrity::Crc32c);
        push_frame(&mut stream, &mut frames, ctrl.to_vec());
        let mut pkt = Packet::from_words(1, 0, &packet);
        pkt.seq = round;
        push_frame(&mut stream, &mut frames, pkt.seal(1, WireIntegrity::Crc32c).bytes.to_vec());
    }
    for step in [13, 4096, 65_536, 300_000, usize::MAX] {
        let mut dec = StreamDecoder::new(MAX_FRAME_BYTES);
        let mut got = Vec::new();
        read_all(&mut dec, &mut Dribble { data: &stream, step }, &mut got);
        assert!(got == frames, "reads of at most {step} bytes reassembled differently");
        assert_eq!(dec.pending(), 0, "step {step}");
    }
}

/// End-to-end on a real socket: express GET and REPLY frames dripped through
/// a raw stream one byte per write — after a genuine HELLO handshake —
/// must reassemble and route to the data plane intact. This is the
/// requester's view of a server's reply split at arbitrary kernel read
/// boundaries.
#[test]
fn reply_frames_split_at_read_boundaries_reach_the_data_plane() {
    let path = temp_path("reply-split-listener");
    let addrs = vec![
        SocketAddrSpec::Uds(path.clone()),
        SocketAddrSpec::Uds(temp_path("reply-split-ghost")),
    ];
    let mut cfg = SocketConfig::new(0, addrs);
    cfg.lanes = 2; // lane 0 = bulk, lane 1 = request-reply
    let t0 = SocketTransport::spawn(cfg).expect("bind");

    // Handshake as "node 1" over a raw stream so every subsequent write
    // boundary is under the test's control.
    let mut raw = UnixStream::connect(&path).expect("dial listener");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let hello = seal_hello(
        &HelloInfo { node: 1, peer: 0, nodes: 2, lanes: 2, epoch: 0 },
        WireIntegrity::Crc32c,
    );
    raw.write_all(&(hello.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&hello).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("listener answers with its own HELLO");
    let mut answer = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut answer).unwrap();

    // A GET request and the REPLY answering it, on the RPC lane's
    // express flow.
    let msgs = [
        gravel_gq::Message::get(0, 5, 0xAB, 250),
        gravel_gq::Message::reply(0, 0xAB, 0x5EED),
    ];
    let mut sent = Vec::new();
    for (seq, msg) in msgs.iter().enumerate() {
        let mut pkt = Packet::from_words(1, 0, &msg.encode());
        pkt.lane = gravel_pgas::wire_lane(1, gravel_gq::Band::Express);
        pkt.seq = seq as u64;
        sent.push(pkt.seal(9, WireIntegrity::Crc32c));
    }
    for frame in &sent {
        raw.write_all(&(frame.bytes.len() as u32).to_le_bytes()).unwrap();
        for b in frame.bytes.iter() {
            raw.write_all(std::slice::from_ref(b)).unwrap();
        }
    }

    for (i, msg) in msgs.iter().enumerate() {
        let got = poll(Duration::from_secs(5), || {
            match t0.recv_data(0, Duration::from_millis(50)) {
                RecvStatus::Msg(f) => Some(f),
                _ => None,
            }
        });
        assert!(got.is_express(), "frame {i} band survived the byte-dripped stream");
        let back = got.open(WireIntegrity::Crc32c).expect("opens on the data plane");
        let lane = gravel_pgas::split_wire_lane(back.lane);
        assert_eq!((lane, back.seq), ((1, gravel_gq::Band::Express), i as u64));
        let words: Vec<_> = back.messages().collect();
        assert_eq!(words, [msg.encode()], "one message per RPC packet");
    }
    t0.close();
}

/// A link whose death a write finds first — the peer stopped reading,
/// and the reader on this side has seen nothing yet — is announced
/// Down all the same: the failed write tears the stream down, and the
/// reader that would have announced it then finds its generation gone.
#[test]
fn a_link_a_write_finds_dead_is_announced_down() {
    let path = temp_path("write-dead-listener");
    let addrs = vec![
        SocketAddrSpec::Uds(path.clone()),
        SocketAddrSpec::Uds(temp_path("write-dead-ghost")),
    ];
    let t0 = SocketTransport::spawn(SocketConfig::new(0, addrs)).expect("bind");
    let mut raw = UnixStream::connect(&path).expect("dial listener");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let hello = seal_hello(
        &HelloInfo { node: 1, peer: 0, nodes: 2, lanes: 1, epoch: 0 },
        WireIntegrity::Crc32c,
    );
    raw.write_all(&(hello.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&hello).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("listener answers with its own HELLO");
    let mut answer = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut answer).unwrap();
    assert_eq!(t0.poll_event(Duration::from_secs(5)), Some(PeerEvent::Up(1)));

    // The stream stays open, so this side's reader sees no EOF; only a
    // write can find out.
    raw.shutdown(std::net::Shutdown::Read).unwrap();
    let frame = Packet::from_words(0, 1, &[1, 1, 2, 3]).seal(0, WireIntegrity::Crc32c);
    t0.send_data(frame, Duration::from_secs(1));
    assert_eq!(t0.poll_event(Duration::from_secs(5)), Some(PeerEvent::Down(1)));
    assert!(t0.stats().link_drops >= 1);
    t0.close();
}

/// A raw stream to the listener at `path`, handshaken as node 1 of 2.
fn dial_as_node_1(path: &PathBuf) -> UnixStream {
    let mut raw = UnixStream::connect(path).expect("dial listener");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let hello = seal_hello(
        &HelloInfo { node: 1, peer: 0, nodes: 2, lanes: 1, epoch: 0 },
        WireIntegrity::Crc32c,
    );
    raw.write_all(&(hello.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&hello).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("listener answers with its own HELLO");
    let mut answer = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut answer).unwrap();
    raw
}

/// A peer's frames are routed in the order it wrote them, across a
/// reconnect too. Node 1 (a raw stream) writes a 4 MB control frame and
/// a burst of small ones, and dies; node 0 then writes to it, which
/// tears the link down while node 0's reader is still routing the big
/// frame; then node 1's next incarnation connects and writes a marker.
/// The replaced reader must still route every frame its stream holds,
/// before the next connection's reader routes the marker — a keeper
/// that drops a dead ward's last forwards, or lets its restart's
/// recovery request overtake them, hands back a log without them.
#[test]
fn a_replaced_reader_routes_what_its_stream_holds_before_the_next_connection() {
    const SMALL: u64 = 512;
    let path = temp_path("replaced-listener");
    let addrs = vec![
        SocketAddrSpec::Uds(path.clone()),
        SocketAddrSpec::Uds(temp_path("replaced-ghost")),
    ];
    let t0 = SocketTransport::spawn(SocketConfig::new(0, addrs)).expect("bind");
    let framed = |words: &[u64]| -> Vec<u8> {
        let frame = seal_control(1, 0, 0, words, WireIntegrity::Crc32c);
        let mut bytes = (frame.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&frame);
        bytes
    };
    let mut raw = dial_as_node_1(&path);
    assert_eq!(t0.poll_event(Duration::from_secs(5)), Some(PeerEvent::Up(1)));
    let big: Vec<u64> = (0..512 * 1024).collect();
    raw.write_all(&framed(&big)).expect("the big frame is written");
    let burst: Vec<u8> = (1..=SMALL).flat_map(|i| framed(&[i, i, i])).collect();
    raw.write_all(&burst).expect("the burst is written");
    drop(raw);
    // Node 0's write finds the link dead and replaces the connection.
    t0.send_control(1, &[9]);

    let mut next = dial_as_node_1(&path);
    next.write_all(&framed(&[u64::MAX])).expect("the marker is written");
    let mut got = Vec::new();
    while got.last() != Some(&u64::MAX) {
        got.push(next_control(&t0, Duration::from_secs(10)).words[0]);
    }
    let want: Vec<u64> = (0..=SMALL).chain([u64::MAX]).collect();
    assert_eq!(got.len(), want.len(), "frames lost or reordered: {got:?}");
    assert_eq!(got, want);
    t0.close();
}

/// An oversized length prefix is a framing error, not an allocation.
#[test]
fn oversized_length_prefix_is_rejected() {
    let mut dec = StreamDecoder::new(1024);
    dec.push(&(4096u32).to_le_bytes());
    dec.push(&[0u8; 8]);
    assert_eq!(dec.next_frame(), Err(4096));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("GRAVEL_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
    ))]

    /// Random chunkings of a random valid frame stream always
    /// reassemble to the identical frame sequence, regardless of how
    /// the reads were sliced.
    #[test]
    fn reassembly_is_chunking_invariant(
        seqs in prop::collection::vec(any::<u64>(), 1..8),
        cuts in prop::collection::vec(1usize..64, 0..24),
    ) {
        let mut stream = Vec::new();
        let mut frames = Vec::new();
        for (i, &seq) in seqs.iter().enumerate() {
            let mut pkt = Packet::from_words(1, 0, &[seq, i as u64, 0, 0]);
            pkt.seq = seq;
            let bytes = pkt.seal(0, WireIntegrity::Crc32c).bytes.to_vec();
            stream.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            stream.extend_from_slice(&bytes);
            frames.push(bytes);
        }
        let mut dec = StreamDecoder::new(MAX_FRAME_BYTES);
        let mut got = Vec::new();
        let mut at = 0;
        for &c in &cuts {
            let end = (at + c).min(stream.len());
            dec.push(&stream[at..end]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f.to_vec());
            }
            at = end;
        }
        dec.push(&stream[at..]);
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(f.to_vec());
        }
        prop_assert_eq!(got, frames);
    }

    /// Arbitrary garbage fed to the decoder never panics: it either
    /// yields (garbage) frames, waits for more bytes, or flags an
    /// oversized prefix. Whatever it yields, the frame router's header
    /// sanity floor (HEADER_BYTES) is what protects downstream.
    #[test]
    fn decoder_never_panics_on_garbage(
        junk in prop::collection::vec(any::<u8>(), 0..256),
        cut in any::<usize>(),
    ) {
        let mut dec = StreamDecoder::new(4096);
        let cut = if junk.is_empty() { 0 } else { cut % junk.len() };
        dec.push(&junk[..cut]);
        let _ = dec.next_frame();
        dec.push(&junk[cut..]);
        while let Ok(Some(f)) = dec.next_frame() {
            // Frames shorter than a header would be counted as garbage
            // by the router; longer ones must still never panic the
            // openers.
            if f.len() >= HEADER_BYTES {
                let _ = gravel_pgas::open_frame(
                    f,
                    gravel_pgas::FrameKind::Data,
                    WireIntegrity::Crc32c,
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over a real stream and over loopback alike, an ack for any band
    /// of a lane lands in that lane's mailbox with its wire lane intact,
    /// and a data frame arrives in the band its lane was stamped with.
    #[test]
    fn acks_of_every_band_reach_the_owning_lanes_mailbox(
        acks in prop::collection::vec((0u32..3, any::<bool>(), 0u64..1000, any::<bool>()), 1..24),
    ) {
        use gravel_gq::{Band, Message};
        use gravel_pgas::{split_wire_lane, wire_lane};
        let addrs = uds_pair("bands");
        let spawn = |me: u32| {
            let mut cfg = SocketConfig::new(me, addrs.clone());
            cfg.reconnect = fast_reconnect();
            cfg.lanes = 3;
            SocketTransport::spawn(cfg).expect("bind")
        };
        let (t0, t1) = (spawn(0), spawn(1));
        prop_assert!(t0.wait_connected(1, Duration::from_secs(5)));
        prop_assert!(t1.wait_connected(0, Duration::from_secs(5)));
        for &(lane, express, cum_seq, loopback) in &acks {
            let band = if express { Band::Express } else { Band::Bulk };
            let ack = Ack { src: u32::from(!loopback), dest: 0, lane: wire_lane(lane, band), cum_seq };
            let from = if loopback { &t0 } else { &t1 };
            from.send_ack(ack.seal(0, WireIntegrity::Crc32c));
            let got = poll(Duration::from_secs(5), || t0.try_recv_ack(0, lane));
            prop_assert_eq!(got.lane, lane, "stamp names the owning lane");
            let (opened, held) = got.open(WireIntegrity::Crc32c).unwrap();
            prop_assert_eq!((opened, held), (ack, 0));
            prop_assert_eq!(split_wire_lane(opened.lane), (lane, band));
            for other in (0..3).filter(|&l| l != lane) {
                prop_assert!(t0.try_recv_ack(0, other).is_none());
            }
        }
        // The band crosses the wire in the frame's lane, whatever the
        // payload opens with.
        for band in Band::ALL {
            let mut pkt = Packet::from_words(1, 0, &Message::get(0, 1, 2, 3).encode());
            pkt.lane = wire_lane(0, band);
            t1.send_data(pkt.seal(0, WireIntegrity::Crc32c), Duration::from_secs(1));
            let got = poll(Duration::from_secs(5), || match t0.recv_data(0, Duration::from_millis(50)) {
                RecvStatus::Msg(f) => Some(f),
                _ => None,
            });
            prop_assert_eq!(got.is_express(), band == Band::Express);
        }
        t0.close();
        t1.close();
    }
}

#[test]
fn link_chaos_partitions_and_delays_the_socket_mesh() {
    use gravel_net::{LinkFault, LinkSchedule};
    let addrs = uds_pair("chaos");
    // Node 0 gets a schedule: partition from 0 for a window, then a
    // permanent delay on 0 -> 1. Node 1 runs clean (asymmetric view,
    // like a real mid-network failure near node 0's rack).
    let sched = Arc::new(LinkSchedule::new(
        5,
        vec![
            LinkFault::Partition {
                island: vec![0],
                from: Duration::ZERO,
                until: Duration::from_millis(400),
            },
            LinkFault::Delay {
                src: 0,
                dest: 1,
                base: Duration::from_millis(10),
                jitter: Duration::from_millis(5),
            },
        ],
    ));
    let mut cfg0 = SocketConfig::new(0, addrs.clone());
    cfg0.reconnect = fast_reconnect();
    cfg0.link_chaos = Some(Arc::clone(&sched));
    let mut cfg1 = SocketConfig::new(1, addrs);
    cfg1.reconnect = fast_reconnect();
    let t0 = SocketTransport::spawn(cfg0).expect("bind node 0");
    let t1 = SocketTransport::spawn(cfg1).expect("bind node 1");
    assert!(t0.wait_connected(1, Duration::from_secs(5)));
    assert!(t1.wait_connected(0, Duration::from_secs(5)));

    // During the window every outbound plane from 0 is swallowed —
    // the stream stays up, the bytes just never arrive.
    t0.send_heartbeat(Heartbeat { src: 0, dest: 1, seq: 1 });
    assert!(t0.send_control(1, &[1, 2, 3]), "partition looks like a sent frame");
    let pkt = Packet::from_payload(0, 1, 77u64.to_le_bytes().to_vec().into());
    t0.send_data(pkt.seal(0, WireIntegrity::Crc32c), Duration::from_secs(1));
    // The reverse direction (1 -> 0) is clean: node 1 has no schedule.
    t1.send_heartbeat(Heartbeat { src: 1, dest: 0, seq: 9 });
    let hb = poll(Duration::from_secs(5), || t0.try_recv_heartbeat(0));
    assert_eq!(hb.seq, 9);
    assert!(t1.try_recv_heartbeat(1).is_none(), "nothing crossed 0 -> 1");
    assert!(matches!(t1.recv_control(Duration::from_millis(50)), RecvStatus::TimedOut));
    let s = t0.fault_stats();
    assert!(s.partition_drops >= 3, "all three planes were swallowed: {s:?}");
    assert_eq!(s.total_losses(), s.partition_drops, "the schedule is the only injector");

    // After the window heals, frames flow again — via the delay fault,
    // so they arrive late but intact and in order.
    std::thread::sleep(Duration::from_millis(450));
    let sent_at = Instant::now();
    assert!(t0.send_control(1, &[4, 5, 6]));
    let msg = poll(Duration::from_secs(5), || match t1.recv_control(Duration::from_millis(20)) {
        RecvStatus::Msg(m) => Some(m),
        _ => None,
    });
    assert_eq!(msg.words, vec![4, 5, 6]);
    assert!(
        sent_at.elapsed() >= Duration::from_millis(10),
        "the healed link still carries the delay fault"
    );
    assert!(t0.fault_stats().delayed >= 1);
    assert!(t1.fault_stats().is_clean(), "node 1 runs no schedule");
    t0.close();
    t1.close();
}

/// A 4 MB control frame between two bursts of 64 kB data frames: every
/// frame is larger than what the kernel takes in one go (the control
/// frame is ~20 socket buffers), so the gather-write of
/// `[length, frame]` resumes mid-frame many times — and everything
/// still arrives whole and in order.
#[test]
fn frames_far_larger_than_the_socket_buffer_arrive_intact_and_in_order() {
    const BURST: u64 = 48;
    let (t0, t1) = spawn_pair("bigframes");
    let ctrl: Vec<u64> = (0..512 * 1024).map(|i| i ^ 0xC0DE).collect();
    // Opaque 64 kB payloads: the transport never decodes them.
    let payload = |seq: u64| -> Vec<u64> { (0..8 * 1024).map(|i| i * 31 + seq).collect() };
    let bytes =
        |words: Vec<u64>| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };
    let writer = std::thread::spawn({
        let (t1, ctrl) = (t1.clone(), ctrl.clone());
        move || {
            for seq in 0..2 * BURST {
                if seq == BURST {
                    assert!(t1.send_control(0, &ctrl), "control frame reached the stream");
                }
                let mut pkt = Packet::from_payload(1, 0, bytes(payload(seq)).into());
                pkt.seq = seq;
                t1.send_data(pkt.seal(0, WireIntegrity::Crc32c), Duration::from_secs(1));
            }
        }
    });
    let msg = next_control(&t0, Duration::from_secs(30));
    assert!(msg.words == ctrl, "the 4 MB control frame was damaged in transit");
    for seq in 0..2 * BURST {
        let got = poll(Duration::from_secs(30), || {
            match t0.recv_data(0, Duration::from_millis(50)) {
                RecvStatus::Msg(f) => Some(f),
                _ => None,
            }
        });
        let back = got.open(WireIntegrity::Crc32c).expect("clean frame");
        assert_eq!(back.seq, seq, "data frames arrive in the order they were written");
        assert!(back.words() == payload(seq), "data frame {seq} was damaged in transit");
    }
    writer.join().expect("writer thread");
    let (s0, s1) = (t0.stats(), t1.stats());
    assert_eq!((s0.garbage_frames, s1.link_drops, s1.oversize_drops), (0, 0, 0));

    // One word past the ceiling is refused at the write side, counted,
    // and costs neither the link nor the frames behind it.
    let over = vec![0u64; MAX_FRAME_BYTES / 8];
    assert!(!t1.send_control(0, &over), "an oversize frame must not be written");
    assert_eq!(t1.stats().oversize_drops, 1);
    assert!(t1.send_control(0, &[7]), "the link survived the refusal");
    assert_eq!(next_control(&t0, Duration::from_secs(5)).words, vec![7]);
    assert_eq!(t0.stats().garbage_frames, 0);
    t0.close();
    t1.close();
}

/// Both endpoints write far more than the socket buffers hold, at the
/// same time. A writer holds its peer slot across a blocking frame
/// write, so this only finishes if each side's reader keeps
/// draining without ever waiting on that slot — the two-process
/// cluster wedge (readers took the slot mutex to check their
/// generation; once both directions filled, nobody drained).
#[test]
fn bidirectional_overrun_of_both_socket_buffers_does_not_wedge() {
    const FRAMES: usize = 256;
    const LIMIT: Duration = Duration::from_secs(30);
    let (t0, t1) = spawn_pair("overrun");
    // 64 kB of payload per data frame: a few frames fill a UDS buffer.
    let words = vec![0x5EED_u64; 8 * 1024];
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let mut workers = Vec::new();
    for (me, peer, t) in [(0u32, 1u32, t0.clone()), (1, 0, t1.clone())] {
        let (words, done) = (words.clone(), done_tx.clone());
        workers.push(std::thread::spawn(move || {
            for seq in 0..FRAMES as u64 {
                let mut pkt = Packet::from_words(me, peer, &words);
                pkt.seq = seq;
                t.send_data(pkt.seal(0, WireIntegrity::Crc32c), Duration::from_secs(1));
                assert!(t.send_control(peer, &words), "control frame {seq} reached the stream");
            }
            done.send(me).ok();
        }));
    }
    for _ in 0..2 {
        done_rx
            .recv_timeout(LIMIT)
            .expect("a writer is wedged behind its own reader");
    }
    for w in workers {
        w.join().expect("writer thread");
    }
    // Nothing was lost on the way: readers only ever drop on a full
    // mailbox, and the data mailbox holds far more than FRAMES.
    for (node, t) in [(0u32, &t0), (1, &t1)] {
        let until = Instant::now() + LIMIT;
        let (mut data, mut ctrl) = (0, 0);
        while (data, ctrl) != (FRAMES, FRAMES) {
            assert!(Instant::now() < until, "node {node} received {data} data / {ctrl} control");
            if let RecvStatus::Msg(_) = t.recv_data(node, Duration::from_millis(1)) {
                data += 1;
            }
            if let RecvStatus::Msg(_) = t.recv_control(Duration::from_millis(1)) {
                ctrl += 1;
            }
        }
    }
    // `close` takes every peer slot: it must not queue behind a writer.
    let (closed_tx, closed_rx) = std::sync::mpsc::channel();
    let closer = std::thread::spawn(move || {
        t0.close();
        t1.close();
        closed_tx.send(()).ok();
    });
    closed_rx.recv_timeout(LIMIT).expect("close() wedged");
    closer.join().expect("closer thread");
}

//! Wire framing and end-to-end integrity (DESIGN.md §13).
//!
//! Every data packet and ack the runtime puts on the fabric is wrapped
//! in a self-describing frame: a fixed 36-byte header (magic, version,
//! kind, routing ids, epoch, sequence number, payload length) followed
//! by the payload and a 4-byte CRC32C trailer computed over everything
//! before it. The receiver verifies the frame *before any decode* — a
//! frame that fails verification is counted and dropped, and the
//! sender's retransmission heals it exactly as if the fabric had lost
//! the packet (corrupted ≡ lost at the protocol level).
//!
//! The header checks (magic, version, length consistency) always run;
//! the CRC is computed and verified under [`WireIntegrity::Crc32c`],
//! which is what the runtime and the socket transport always use.
//! [`WireIntegrity::Off`] is the header-only peek, for a reader that
//! wants a frame's routing fields without paying for its checksum.

use std::time::Instant;

use bytes::{BufMut, Bytes, BytesMut};
use gravel_gq::Band;

use crate::nodeq::{FrameRoom, Packet};

/// Frame magic: `b"GRVL"` read as a little-endian `u32`.
pub const MAGIC: u32 = 0x4C56_5247;

/// Wire-format version this build speaks. Version 2 gave the ack frame
/// its selective map ([`ACK_MAP_BITS`]); a version-1 ack fails
/// verification like any other alien frame.
pub const VERSION: u16 = 2;

/// Fixed header size in bytes (see the layout table in DESIGN.md §13).
pub const HEADER_BYTES: usize = 36;

/// Total framing overhead per packet: header plus CRC trailer.
pub const FRAME_OVERHEAD: usize = HEADER_BYTES + 4;

/// A heartbeat frame is a header + trailer with no payload.
pub const HEARTBEAT_FRAME_BYTES: usize = FRAME_OVERHEAD;

/// Sequence numbers an ack's selective map covers, counted from the
/// first one the receiver still lacks. A flow never has more frames on
/// the wire than this, so every one of them is either cumulatively
/// acknowledged or has a bit in the map.
pub const ACK_MAP_BITS: usize = 64;

/// An ack frame's payload is its selective map, one little-endian word.
const ACK_PAYLOAD_BYTES: usize = ACK_MAP_BITS / 8;

/// An ack frame is a header, the selective map and the trailer.
pub const ACK_FRAME_BYTES: usize = FRAME_OVERHEAD + ACK_PAYLOAD_BYTES;

/// Whether frames carry (and receivers verify) a CRC32C trailer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireIntegrity {
    /// Stamp and verify CRC32C over header + payload (the default).
    #[default]
    Crc32c,
    /// Skip checksum compute and verification; the trailer is stamped
    /// zero and ignored on receive. Structural header checks (magic,
    /// version, length) still run. For reading a header without paying
    /// for the CRC (a bench sink, a test); nothing verified this way
    /// carries any integrity guarantee.
    Off,
}

/// What a frame claims to carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// An aggregated data packet (payload = packed messages).
    Data,
    /// An acknowledgement: `seq` is the cumulative point, the payload
    /// the selective map of what is held beyond it.
    Ack,
    /// Connection handshake: the first frame on a new stream, carrying
    /// protocol version (header), node id (`src`), intended peer
    /// (`dest`), current epoch, and cluster shape (payload).
    Hello,
    /// Handshake rejection: sent in place of a HELLO-ack when the
    /// peer's version or cluster shape is unacceptable; the payload
    /// says why.
    Reject,
    /// A liveness beat for the phi-accrual detector (no payload; `seq`
    /// is the beat counter).
    Heartbeat,
    /// Cluster control plane: checkpoint shipping, replay forwarding,
    /// recovery requests. Payload is op-specific `u64` words.
    Control,
    /// A packet of one-sided GET requests (payload = packed GET
    /// messages). Travels the data plane but advertises the LATENCY
    /// band so receivers and schedulers can prioritize without
    /// decoding the payload.
    Get,
    /// A packet of value-returning active-message calls (NORMAL band).
    AmCall,
    /// A packet of replies — GET values or AM return values — headed
    /// back to the requester (LATENCY band).
    AmReply,
}

impl FrameKind {
    fn encode(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Ack => 1,
            FrameKind::Hello => 2,
            FrameKind::Reject => 3,
            FrameKind::Heartbeat => 4,
            FrameKind::Control => 5,
            FrameKind::Get => 6,
            FrameKind::AmCall => 7,
            FrameKind::AmReply => 8,
        }
    }

    fn decode(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Ack),
            2 => Some(FrameKind::Hello),
            3 => Some(FrameKind::Reject),
            4 => Some(FrameKind::Heartbeat),
            5 => Some(FrameKind::Control),
            6 => Some(FrameKind::Get),
            7 => Some(FrameKind::AmCall),
            8 => Some(FrameKind::AmReply),
            _ => None,
        }
    }

    /// True for the four kinds that carry packed messages over the data
    /// plane (sequenced, acked, retransmitted by the flow engine). The
    /// other kinds each have their own opener.
    pub fn is_data_plane(self) -> bool {
        matches!(
            self,
            FrameKind::Data | FrameKind::Get | FrameKind::AmCall | FrameKind::AmReply
        )
    }
}

/// Why a frame failed verification. The receiver maps `TooShort` and
/// `Truncated` to its `net.truncated` counter and everything else to
/// `net.corrupt_dropped`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a header — nothing can be trusted.
    TooShort { have: usize },
    /// The magic word is wrong (garbage frame, or a flip in the first
    /// four bytes).
    BadMagic { got: u32 },
    /// Unknown wire-format version.
    BadVersion { got: u16 },
    /// The kind byte is not a known kind, or not the kind this plane
    /// carries.
    WrongKind { got: u8 },
    /// The frame ends before `payload_len` + trailer bytes arrive.
    Truncated { need: usize, have: usize },
    /// The frame is *longer* than the header says it should be.
    BadLength { expect: usize, have: usize },
    /// The CRC32C trailer does not match the frame contents.
    BadCrc { expect: u32, got: u32 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort { have } => write!(f, "frame too short ({have} bytes)"),
            FrameError::BadMagic { got } => write!(f, "bad frame magic {got:#010x}"),
            FrameError::BadVersion { got } => write!(f, "unknown wire version {got}"),
            FrameError::WrongKind { got } => write!(f, "unexpected frame kind {got}"),
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            FrameError::BadLength { expect, have } => {
                write!(f, "oversized frame: expect {expect} bytes, have {have}")
            }
            FrameError::BadCrc { expect, got } => {
                write!(f, "crc mismatch: computed {expect:#010x}, frame says {got:#010x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// True for the error classes the receiver counts as truncation
    /// (the frame ended early) rather than generic corruption.
    pub fn is_truncation(&self) -> bool {
        matches!(self, FrameError::TooShort { .. } | FrameError::Truncated { .. })
    }
}

/// A verified frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHead {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Reserved flag bits (zero so far).
    pub flags: u8,
    /// Sending node.
    pub src: u32,
    /// Destination node the *sender* stamped — the receiver checks this
    /// against its own id to catch misrouted frames.
    pub dest: u32,
    /// Wire lane of the flow: aggregator lane plus band
    /// ([`wire_lane`]).
    pub lane: u32,
    /// Checkpoint epoch at the sender when the frame was sealed.
    pub epoch: u32,
    /// Per-flow sequence number (data) or cumulative ack (ack).
    pub seq: u64,
    /// Payload bytes following the header.
    pub payload_len: u32,
}

/// Bit of a wire lane number that marks the express band.
const EXPRESS_LANE_BIT: u32 = 1 << 31;

/// The lane number a flow carries on the wire. Each band of an
/// aggregator lane is its own flow with its own sequence
/// space, and `(src, wire lane)` is the one flow identity receivers,
/// acks, checkpoint cursors and forward logs key on. A bulk flow's wire
/// lane *is* its aggregator lane, so bulk frames read as they always
/// did; the express flow sets the top bit.
pub fn wire_lane(lane: u32, band: Band) -> u32 {
    debug_assert!(lane & EXPRESS_LANE_BIT == 0, "lane {lane} overflows");
    match band {
        Band::Express => lane | EXPRESS_LANE_BIT,
        Band::Bulk => lane,
    }
}

/// Inverse of [`wire_lane`]: the owning aggregator lane (whose ack
/// mailbox the flow's acks land in) and the band.
pub fn split_wire_lane(wire: u32) -> (u32, Band) {
    let band = if wire & EXPRESS_LANE_BIT != 0 {
        Band::Express
    } else {
        Band::Bulk
    };
    (wire & !EXPRESS_LANE_BIT, band)
}

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli), slice-by-8, tables generated at compile time.
// ---------------------------------------------------------------------------

/// Reflected CRC-32C polynomial.
const CRC_POLY: u32 = 0x82F6_3B78;

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC_POLY } else { crc >> 1 };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = make_tables();

/// Bytes per interleaved lane in the 3-way hardware CRC kernel. A
/// power of two so the zero-append operator below is pure squarings.
const CRC_LANE_BYTES: usize = 1024;

/// The "append one zero byte" operator on the (reflected) CRC register
/// is linear over GF(2): `crc' = (crc >> 8) ^ T0[crc & 0xff]`. Columns
/// are the operator applied to each basis vector.
const fn gf2_zero_byte_op() -> [u32; 32] {
    let mut m = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let v = 1u32 << i;
        m[i] = (v >> 8) ^ CRC_TABLES[0][(v & 0xff) as usize];
        i += 1;
    }
    m
}

/// `out = a ∘ b`: column i of the composition is `a` applied to column
/// i of `b`.
const fn gf2_compose(a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
    let mut out = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let mut acc = 0u32;
        let col = b[i];
        let mut j = 0;
        while j < 32 {
            if col >> j & 1 != 0 {
                acc ^= a[j];
            }
            j += 1;
        }
        out[i] = acc;
        i += 1;
    }
    out
}

/// Byte-indexed lookup tables for appending `CRC_LANE_BYTES` zero bytes
/// to a CRC register: the zero-byte operator raised to the 1024th power
/// (ten squarings), split into four per-byte tables so the combine is
/// four loads and three XORs at runtime.
const fn make_shift_tables() -> [[u32; 256]; 4] {
    let mut m = gf2_zero_byte_op();
    let mut s = 0;
    while (1usize << s) < CRC_LANE_BYTES {
        m = gf2_compose(&m, &m);
        s += 1;
    }
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut v = 0;
        while v < 256 {
            let mut acc = 0u32;
            let mut j = 0;
            while j < 8 {
                if v >> j & 1 != 0 {
                    acc ^= m[k * 8 + j];
                }
                j += 1;
            }
            t[k][v] = acc;
            v += 1;
        }
        k += 1;
    }
    t
}

static CRC_SHIFT_TABLES: [[u32; 256]; 4] = make_shift_tables();

/// Advance `crc` past `CRC_LANE_BYTES` zero bytes.
#[inline]
fn crc_shift_lane(crc: u32) -> u32 {
    CRC_SHIFT_TABLES[0][(crc & 0xff) as usize]
        ^ CRC_SHIFT_TABLES[1][((crc >> 8) & 0xff) as usize]
        ^ CRC_SHIFT_TABLES[2][((crc >> 16) & 0xff) as usize]
        ^ CRC_SHIFT_TABLES[3][(crc >> 24) as usize]
}

// ---------------------------------------------------------------------------
// Carry-less-multiply folding constants (for the AVX-512 kernel below).
// ---------------------------------------------------------------------------

/// The CRC32C polynomial in natural (non-reflected) bit order, without
/// the implicit x³² term.
const CRC_POLY_NATURAL: u32 = 0x1EDC_6F41;

/// x^n mod P(x) over GF(2), natural bit order (bit i = coefficient of
/// xⁱ).
const fn xpow_mod(n: usize) -> u32 {
    let mut r: u32 = 1;
    let mut i = 0;
    while i < n {
        let carry = r & 0x8000_0000 != 0;
        r <<= 1;
        if carry {
            r ^= CRC_POLY_NATURAL;
        }
        i += 1;
    }
    r
}

const fn rev32(v: u32) -> u32 {
    v.reverse_bits()
}

/// Folding constant for "multiply a reflected 64-bit operand by x^k
/// (mod P)" via `pclmulqdq`: with reflected operands the instruction
/// computes `rev64(a)·rev64(b)·x`, so encoding `rev32(x^(k-32) mod P)
/// << 1` makes `rev64(b)·x ≡ x^k` — the product is congruent to
/// `rev64(a)·x^k` and fits the 128-bit register unreduced.
const fn fold_k(k: usize) -> u64 {
    (rev32(xpow_mod(k - 32)) as u64) << 1
}

/// `(k_lo, k_hi)` fold-constant pairs, forced to compile time (the
/// generator loops are far too slow to run per call).
const K_MAIN: (u64, u64) = (fold_k(1088), fold_k(1024));
const K_Y0: (u64, u64) = (fold_k(832), fold_k(768));
const K_Y1: (u64, u64) = (fold_k(576), fold_k(512));
const K_Y2: (u64, u64) = (fold_k(320), fold_k(256));
const K_LANE: (u64, u64) = (fold_k(192), fold_k(128));

/// CRC32C of `data` (one-shot). Dispatches to the SSE4.2 `crc32`
/// instruction where the CPU has it (the reason Castagnoli was picked
/// over CRC-32/ISO-HDLC), falling back to slice-by-8 tables elsewhere.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if data.len() >= 512
            && std::arch::is_x86_feature_detected!("vpclmulqdq")
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("sse4.2")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
        {
            // SAFETY: feature presence checked at runtime above.
            return unsafe { crc32c_clmul(data) };
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: feature presence checked at runtime above.
            return unsafe { crc32c_hw(data) };
        }
    }
    crc32c_sw(data)
}

/// Fold every 128-bit lane of `y` forward by the distance encoded in
/// `k` (lane-uniform `[k_lo, k_hi]` pair) and absorb `next`. 256-bit
/// VEX `vpclmulqdq` on purpose: the ymm encoding stays in the light
/// frequency-license class, where 512-bit carry-less multiplies would
/// trigger AVX-512 license transitions whose stalls dwarf the folding
/// work at this duty cycle (one ~64 kB frame every few hundred µs).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,vpclmulqdq")]
unsafe fn fold_ymm(
    y: std::arch::x86_64::__m256i,
    k: std::arch::x86_64::__m256i,
    next: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let lo = _mm256_clmulepi64_epi128::<0x00>(y, k);
    let hi = _mm256_clmulepi64_epi128::<0x11>(y, k);
    _mm256_xor_si256(_mm256_xor_si256(lo, hi), next)
}

/// Fold one 128-bit lane forward by the distance encoded in `k`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "pclmulqdq")]
unsafe fn fold_xmm(
    x: std::arch::x86_64::__m128i,
    k: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(x, k),
        _mm_clmulepi64_si128::<0x11>(x, k),
    )
}

/// Carry-less-multiply CRC32C: four 256-bit accumulators folded with
/// VEX `vpclmulqdq` (128 bytes per iteration, independent dependency
/// chains), reduced lane-by-lane to one 128-bit congruent value whose
/// bytes — plus the unconsumed tail — finish through the scalar `crc32`
/// instruction. Folding keeps values *congruent* mod P rather than
/// reduced, so the constants carry the fold distance and the scalar
/// pass does the only true reduction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2,pclmulqdq,avx2,vpclmulqdq")]
unsafe fn crc32c_clmul(data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    debug_assert!(data.len() >= 512);
    let p = data.as_ptr();
    let ld = |off: usize| _mm256_loadu_si256(p.add(off) as *const _);
    // Seed four accumulators with the first 128 bytes; the !0 init
    // enters as an XOR onto the first 32 message bits, exactly as in
    // the scalar register convention.
    let mut y0 = _mm256_xor_si256(ld(0), _mm256_castsi128_si256(_mm_cvtsi32_si128(!0i32)));
    let mut y1 = ld(32);
    let mut y2 = ld(64);
    let mut y3 = ld(96);
    let pair = |k: (u64, u64)| {
        _mm256_broadcastsi128_si256(_mm_set_epi64x(k.1 as i64, k.0 as i64))
    };
    // Main loop: each accumulator advances 1024 bits per iteration.
    let k_main = pair(K_MAIN);
    let mut at = 128;
    while at + 128 <= data.len() {
        y0 = fold_ymm(y0, k_main, ld(at));
        y1 = fold_ymm(y1, k_main, ld(at + 32));
        y2 = fold_ymm(y2, k_main, ld(at + 64));
        y3 = fold_ymm(y3, k_main, ld(at + 96));
        at += 128;
    }
    // Merge the four 256-bit blocks (message order y0..y3) into one.
    let zero = _mm256_setzero_si256();
    let w = fold_ymm(y0, pair(K_Y0), y3);
    let w = _mm256_xor_si256(w, fold_ymm(y1, pair(K_Y1), zero));
    let w = _mm256_xor_si256(w, fold_ymm(y2, pair(K_Y2), zero));
    // Merge the block's two lanes into one 128-bit congruent value.
    let kx = |k: (u64, u64)| _mm_set_epi64x(k.1 as i64, k.0 as i64);
    let x = _mm256_extracti128_si256::<1>(w);
    let x = _mm_xor_si128(x, fold_xmm(_mm256_castsi256_si128(w), kx(K_LANE)));
    // Final reduction: run the congruent value and the tail through the
    // scalar instruction from a zero register (the init is already in).
    let mut buf = [0u8; 16];
    _mm_storeu_si128(buf.as_mut_ptr() as *mut _, x);
    let mut crc = 0u64;
    crc = _mm_crc32_u64(crc, u64::from_le_bytes(buf[..8].try_into().unwrap()));
    crc = _mm_crc32_u64(crc, u64::from_le_bytes(buf[8..].try_into().unwrap()));
    let tail = &data[at..];
    let mut chunks = tail.chunks_exact(8);
    for c in &mut chunks {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// Hardware CRC32C. The `crc32` instruction has 3-cycle latency but
/// single-cycle throughput, so a single dependent chain leaves two
/// thirds of the unit idle; large inputs run three independent lanes of
/// [`CRC_LANE_BYTES`] and stitch them with the zero-append shift
/// operator (`crc(A‖B) = shift_len(B)(crc(A)) ^ crc₀(B)`). The
/// detection branch in [`crc32c`] predicts perfectly, so the dispatch
/// is free on the hot path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = !0u32;
    let mut data = data;
    while data.len() >= 3 * CRC_LANE_BYTES {
        let mut c0 = crc as u64;
        let mut c1 = 0u64;
        let mut c2 = 0u64;
        let mut at = 0;
        while at < CRC_LANE_BYTES {
            let w = |off: usize| {
                u64::from_le_bytes(data[off..off + 8].try_into().unwrap())
            };
            c0 = _mm_crc32_u64(c0, w(at));
            c1 = _mm_crc32_u64(c1, w(CRC_LANE_BYTES + at));
            c2 = _mm_crc32_u64(c2, w(2 * CRC_LANE_BYTES + at));
            at += 8;
        }
        crc = crc_shift_lane(crc_shift_lane(c0 as u32) ^ c1 as u32) ^ c2 as u32;
        data = &data[3 * CRC_LANE_BYTES..];
    }
    let mut crc = crc as u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// Portable slice-by-8 fallback.
fn crc32c_sw(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Seal / open primitives shared by the data and ack planes.
// ---------------------------------------------------------------------------

/// Writes into a fixed byte array without allocating (ack frames).
struct ArrayWriter<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl BufMut for ArrayWriter<'_> {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf[self.at..self.at + src.len()].copy_from_slice(src);
        self.at += src.len();
    }
}

fn put_header(buf: &mut impl BufMut, head: &FrameHead) {
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(head.kind.encode());
    buf.put_u8(head.flags);
    buf.put_u32_le(head.src);
    buf.put_u32_le(head.dest);
    buf.put_u32_le(head.lane);
    buf.put_u32_le(head.epoch);
    buf.put_u64_le(head.seq);
    buf.put_u32_le(head.payload_len);
}

/// Build a complete frame (header + payload + trailer) as contiguous
/// bytes. Under [`WireIntegrity::Off`] the trailer is stamped zero.
pub fn seal_frame(head: &FrameHead, payload: &[u8], integrity: WireIntegrity) -> Bytes {
    debug_assert_eq!(head.payload_len as usize, payload.len());
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + payload.len() + 4);
    put_header(&mut buf, head);
    buf.put_slice(payload);
    let crc = match integrity {
        WireIntegrity::Crc32c => crc32c(&buf),
        WireIntegrity::Off => 0,
    };
    buf.put_u32_le(crc);
    buf.freeze()
}

/// [`seal_frame`] drawing the frame buffer from a packet-buffer arena:
/// allocation-free in steady state (the buffer and its refcount block
/// both recycle once every clone of the frame drops). `None` falls
/// back to the allocating path. This is the *copying* seal: what a
/// packet without frame room around its payload pays, and the
/// reference the in-place seal ([`Packet::seal_in`]) is tested against.
pub fn seal_frame_in(
    head: &FrameHead,
    payload: &[u8],
    integrity: WireIntegrity,
    pool: Option<&gravel_gq::BufferPool>,
) -> Bytes {
    let Some(pool) = pool else {
        return seal_frame(head, payload, integrity);
    };
    debug_assert_eq!(head.payload_len as usize, payload.len());
    let (mut buf, ticket) = pool.take(HEADER_BYTES + payload.len() + 4);
    put_header(&mut buf, head);
    buf.put_slice(payload);
    let crc = match integrity {
        WireIntegrity::Crc32c => crc32c(&buf),
        WireIntegrity::Off => 0,
    };
    buf.put_u32_le(crc);
    pool.seal(buf, ticket)
}

/// Seal the frame in `whole` — header room, a payload already in
/// place, trailer room — where it lies: the header and the trailer are
/// written around the payload and `whole` *is* the frame. Byte for
/// byte what [`seal_frame`] builds from the same header and payload.
///
/// `whole` must come out of a packet's `FrameRoom` (`nodeq.rs`), which
/// is what makes the two writes sound.
fn seal_in_place(whole: Bytes, head: &FrameHead, integrity: WireIntegrity) -> Bytes {
    let body = HEADER_BYTES + head.payload_len as usize;
    debug_assert_eq!(whole.len(), body + 4);
    // SAFETY: `Bytes::fill` wants the caller to hold the only view of
    // the bytes it writes, to be their only writer, and to know the
    // owner: a `FrameRoom` only ever holds a `BufferPool` slab, whose
    // `room_ptr` is the sealed vector's own pointer.
    // *Disjoint room:* a `FrameRoom` is minted (`FrameRoom::lend`) over
    // a slab the pool has just sealed, together with exactly one other
    // view of it, the payload at `HEADER_BYTES..body`. Every later view
    // of the slab is a clone or a sub-slice of that payload — a `Bytes`
    // only narrows — so no view but `whole` covers `..HEADER_BYTES` or
    // `body..`, and the pool cannot hand the slab to anyone else while
    // `whole` lives (it reclaims at `strong_count == 1` only).
    // *Single writer:* `FrameRoom` is not `Clone`, a cloned packet gets
    // an empty one, and `take_around` empties it: this call holds the
    // only `whole` there ever is for this slab's current lending, so
    // the room is written here, once, and never again — a sealed frame
    // that retransmission clones share is never touched.
    // The payload bytes in between are only read (by the CRC, and by
    // whoever else holds a payload view).
    unsafe {
        whole.fill(0..HEADER_BYTES, |room| put_header(&mut ArrayWriter { buf: room, at: 0 }, head));
        let crc = match integrity {
            WireIntegrity::Crc32c => crc32c(&whole[..body]),
            WireIntegrity::Off => 0,
        };
        whole.fill(body..body + 4, |room| room.copy_from_slice(&crc.to_le_bytes()));
    }
    whole
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// Verify `bytes` as one whole frame of `expect` kind and return its
/// header. Check order is deliberate — structural damage is reported
/// before the (skippable) CRC: length → magic → version → kind →
/// payload-length consistency → CRC.
pub fn open_frame(
    bytes: &[u8],
    expect: FrameKind,
    integrity: WireIntegrity,
) -> Result<FrameHead, FrameError> {
    open_frame_where(bytes, |k| k == expect, integrity)
}

/// Verify `bytes` as one whole frame of any data-plane kind (DATA, GET,
/// AM_CALL, AM_REPLY — see [`FrameKind::is_data_plane`]) and return its
/// header. The receive path uses this so request-reply traffic shares
/// the sequenced, acknowledged plane with bulk data.
pub fn open_data_frame(bytes: &[u8], integrity: WireIntegrity) -> Result<FrameHead, FrameError> {
    open_frame_where(bytes, FrameKind::is_data_plane, integrity)
}

fn open_frame_where(
    bytes: &[u8],
    accept: impl Fn(FrameKind) -> bool,
    integrity: WireIntegrity,
) -> Result<FrameHead, FrameError> {
    if bytes.len() < HEADER_BYTES {
        return Err(FrameError::TooShort { have: bytes.len() });
    }
    let magic = read_u32(bytes, 0);
    if magic != MAGIC {
        return Err(FrameError::BadMagic { got: magic });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(FrameError::BadVersion { got: version });
    }
    let kind = FrameKind::decode(bytes[6]).ok_or(FrameError::WrongKind { got: bytes[6] })?;
    if !accept(kind) {
        return Err(FrameError::WrongKind { got: bytes[6] });
    }
    let payload_len = read_u32(bytes, 32);
    let need = HEADER_BYTES + payload_len as usize + 4;
    if bytes.len() < need {
        return Err(FrameError::Truncated { need, have: bytes.len() });
    }
    if bytes.len() > need {
        return Err(FrameError::BadLength { expect: need, have: bytes.len() });
    }
    if integrity == WireIntegrity::Crc32c {
        let got = read_u32(bytes, need - 4);
        let expect_crc = crc32c(&bytes[..need - 4]);
        if got != expect_crc {
            return Err(FrameError::BadCrc { expect: expect_crc, got });
        }
    }
    Ok(FrameHead {
        kind,
        flags: bytes[7],
        src: read_u32(bytes, 8),
        dest: read_u32(bytes, 12),
        lane: read_u32(bytes, 16),
        epoch: read_u32(bytes, 20),
        seq: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
        payload_len,
    })
}

/// Seal an ack frame into a fixed array (no allocation — acks are small
/// and frequent). `seq` carries `cum_seq`, the highest sequence number
/// received in order (`u64::MAX` before the first); bit `i` of `held`
/// says the receiver already holds sequence number `cum_seq + 1 + i`,
/// parked behind a gap. Bit 0 is therefore always clear.
pub fn seal_ack(
    src: u32,
    dest: u32,
    lane: u32,
    epoch: u32,
    cum_seq: u64,
    held: u64,
    integrity: WireIntegrity,
) -> [u8; ACK_FRAME_BYTES] {
    let head = FrameHead {
        kind: FrameKind::Ack,
        flags: 0,
        src,
        dest,
        lane,
        epoch,
        seq: cum_seq,
        payload_len: ACK_PAYLOAD_BYTES as u32,
    };
    let mut out = [0u8; ACK_FRAME_BYTES];
    let mut w = ArrayWriter { buf: &mut out, at: 0 };
    put_header(&mut w, &head);
    w.put_u64_le(held);
    const BODY: usize = ACK_FRAME_BYTES - 4;
    let crc = match integrity {
        WireIntegrity::Crc32c => crc32c(&out[..BODY]),
        WireIntegrity::Off => 0,
    };
    out[BODY..].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Verify an ack frame and return its header and selective map.
pub fn open_ack(bytes: &[u8], integrity: WireIntegrity) -> Result<(FrameHead, u64), FrameError> {
    let head = open_frame(bytes, FrameKind::Ack, integrity)?;
    if head.payload_len as usize != ACK_PAYLOAD_BYTES {
        return Err(FrameError::BadLength { expect: ACK_FRAME_BYTES, have: bytes.len() });
    }
    let held = u64::from_le_bytes(bytes[HEADER_BYTES..HEADER_BYTES + 8].try_into().unwrap());
    Ok((head, held))
}

// ---------------------------------------------------------------------------
// Connection control plane: HELLO / REJECT / HEARTBEAT / CONTROL frames.
// ---------------------------------------------------------------------------

/// HELLO payload: cluster node count + lane count, 4 bytes each.
pub const HELLO_PAYLOAD_BYTES: usize = 8;

/// What a HELLO frame announces about its sender. `peer` is the node
/// id the sender *believes* it is talking to — the accept side checks
/// it against its own id to catch miswired address maps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloInfo {
    /// The sending node's id.
    pub node: u32,
    /// The node id the sender expects on the other end.
    pub peer: u32,
    /// Cluster size the sender was configured with.
    pub nodes: u32,
    /// Lane count the sender was configured with.
    pub lanes: u32,
    /// The sender's checkpoint epoch at connect time.
    pub epoch: u32,
}

/// Seal a HELLO handshake frame.
pub fn seal_hello(hello: &HelloInfo, integrity: WireIntegrity) -> Bytes {
    let mut payload = [0u8; HELLO_PAYLOAD_BYTES];
    payload[..4].copy_from_slice(&hello.nodes.to_le_bytes());
    payload[4..].copy_from_slice(&hello.lanes.to_le_bytes());
    let head = FrameHead {
        kind: FrameKind::Hello,
        flags: 0,
        src: hello.node,
        dest: hello.peer,
        lane: 0,
        epoch: hello.epoch,
        seq: 0,
        payload_len: HELLO_PAYLOAD_BYTES as u32,
    };
    seal_frame(&head, &payload, integrity)
}

/// Verify a HELLO frame and decode what it announces. A frame from a
/// build speaking a different wire version fails here with
/// [`FrameError::BadVersion`] — the caller turns that into a counted
/// REJECT instead of a silent hang.
pub fn open_hello(bytes: &[u8], integrity: WireIntegrity) -> Result<HelloInfo, FrameError> {
    let head = open_frame(bytes, FrameKind::Hello, integrity)?;
    if head.payload_len as usize != HELLO_PAYLOAD_BYTES {
        return Err(FrameError::BadLength {
            expect: HEADER_BYTES + HELLO_PAYLOAD_BYTES + 4,
            have: bytes.len(),
        });
    }
    Ok(HelloInfo {
        node: head.src,
        peer: head.dest,
        nodes: read_u32(bytes, HEADER_BYTES),
        lanes: read_u32(bytes, HEADER_BYTES + 4),
        epoch: head.epoch,
    })
}

/// Why a handshake was refused (REJECT payload word 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The peer speaks a different wire-format version; the detail word
    /// carries the version it offered.
    Version,
    /// The peer was configured with a different cluster size or lane
    /// count; the detail word carries the offending value.
    ClusterShape,
    /// The peer's node id is out of range or aimed at the wrong node.
    NodeId,
    /// The first frame was not a well-formed HELLO at all.
    Protocol,
}

impl RejectReason {
    fn encode(self) -> u32 {
        match self {
            RejectReason::Version => 1,
            RejectReason::ClusterShape => 2,
            RejectReason::NodeId => 3,
            RejectReason::Protocol => 4,
        }
    }

    fn decode(v: u32) -> Option<RejectReason> {
        match v {
            1 => Some(RejectReason::Version),
            2 => Some(RejectReason::ClusterShape),
            3 => Some(RejectReason::NodeId),
            4 => Some(RejectReason::Protocol),
            _ => None,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Version => write!(f, "wire version mismatch"),
            RejectReason::ClusterShape => write!(f, "cluster shape mismatch"),
            RejectReason::NodeId => write!(f, "bad node id"),
            RejectReason::Protocol => write!(f, "not a HELLO"),
        }
    }
}

/// Seal a handshake-rejection frame. `src` is the rejecting node,
/// `detail` is reason-specific (e.g. the version the peer offered).
pub fn seal_reject(
    src: u32,
    reason: RejectReason,
    detail: u32,
    integrity: WireIntegrity,
) -> Bytes {
    let mut payload = [0u8; 8];
    payload[..4].copy_from_slice(&reason.encode().to_le_bytes());
    payload[4..].copy_from_slice(&detail.to_le_bytes());
    let head = FrameHead {
        kind: FrameKind::Reject,
        flags: 0,
        src,
        dest: 0,
        lane: 0,
        epoch: 0,
        seq: 0,
        payload_len: 8,
    };
    seal_frame(&head, &payload, integrity)
}

/// Verify a REJECT frame; returns (rejecting node, reason, detail).
pub fn open_reject(
    bytes: &[u8],
    integrity: WireIntegrity,
) -> Result<(u32, RejectReason, u32), FrameError> {
    let head = open_frame(bytes, FrameKind::Reject, integrity)?;
    if head.payload_len != 8 {
        return Err(FrameError::BadLength { expect: HEADER_BYTES + 12, have: bytes.len() });
    }
    let reason = RejectReason::decode(read_u32(bytes, HEADER_BYTES))
        .ok_or(FrameError::WrongKind { got: bytes[HEADER_BYTES] })?;
    Ok((head.src, reason, read_u32(bytes, HEADER_BYTES + 4)))
}

/// Seal a payload-free heartbeat frame (fixed size, no allocation —
/// beats are frequent). `seq` is the beat counter.
pub fn seal_heartbeat(
    src: u32,
    dest: u32,
    epoch: u32,
    seq: u64,
    integrity: WireIntegrity,
) -> [u8; HEARTBEAT_FRAME_BYTES] {
    let head = FrameHead {
        kind: FrameKind::Heartbeat,
        flags: 0,
        src,
        dest,
        lane: 0,
        epoch,
        seq,
        payload_len: 0,
    };
    let mut out = [0u8; HEARTBEAT_FRAME_BYTES];
    put_header(&mut ArrayWriter { buf: &mut out, at: 0 }, &head);
    let crc = match integrity {
        WireIntegrity::Crc32c => crc32c(&out[..HEADER_BYTES]),
        WireIntegrity::Off => 0,
    };
    out[HEADER_BYTES..].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Verify a heartbeat frame and return its header.
pub fn open_heartbeat(bytes: &[u8], integrity: WireIntegrity) -> Result<FrameHead, FrameError> {
    open_frame(bytes, FrameKind::Heartbeat, integrity)
}

/// Seal a control frame into `buf` (cleared first). The payload is
/// `words`, little-endian, followed by `tail`: bytes already in wire
/// order (whole little-endian words), so a caller that holds its bulk
/// as packet payload bytes seals it with one copy and one CRC pass —
/// the buddy forwarder does, per applied packet. With a recycled `buf`
/// the seal allocates nothing.
pub fn seal_control_into(
    buf: &mut Vec<u8>,
    src: u32,
    dest: u32,
    epoch: u32,
    words: &[u64],
    tail: &[u8],
    integrity: WireIntegrity,
) {
    assert!(tail.len().is_multiple_of(8), "control payloads are whole words");
    let payload_len = words.len() * 8 + tail.len();
    let head = FrameHead {
        kind: FrameKind::Control,
        flags: 0,
        src,
        dest,
        lane: 0,
        epoch,
        seq: 0,
        payload_len: payload_len as u32,
    };
    let mut out = BytesMut::from_vec(std::mem::take(buf));
    out.clear();
    out.reserve(FRAME_OVERHEAD + payload_len);
    put_header(&mut out, &head);
    out.put_u64_slice_le(words);
    out.put_slice(tail);
    let crc = match integrity {
        WireIntegrity::Crc32c => crc32c(&out),
        WireIntegrity::Off => 0,
    };
    out.put_u32_le(crc);
    *buf = out.into_vec();
}

/// Seal a control frame whose payload is op-specific `u64` words
/// (checkpoint shipping, replay forwarding, recovery).
pub fn seal_control(
    src: u32,
    dest: u32,
    epoch: u32,
    words: &[u64],
    integrity: WireIntegrity,
) -> Bytes {
    let mut buf = Vec::new();
    seal_control_into(&mut buf, src, dest, epoch, words, &[], integrity);
    Bytes::from(buf)
}

/// Verify a control frame and decode its word payload.
pub fn open_control(
    bytes: &[u8],
    integrity: WireIntegrity,
) -> Result<(FrameHead, Vec<u64>), FrameError> {
    let head = open_frame(bytes, FrameKind::Control, integrity)?;
    if head.payload_len % 8 != 0 {
        return Err(FrameError::BadLength {
            expect: HEADER_BYTES + (head.payload_len as usize / 8) * 8 + 4,
            have: bytes.len(),
        });
    }
    let words = bytes[HEADER_BYTES..HEADER_BYTES + head.payload_len as usize]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    Ok((head, words))
}

// ---------------------------------------------------------------------------
// The data plane's frame type.
// ---------------------------------------------------------------------------

/// One sealed data packet as it travels the fabric: the contiguous
/// frame bytes plus out-of-band stamps. `dest` is the *routing*
/// stamp the fabric switches on — corruption injection may rewrite it
/// (a misroute), which is exactly why the receiver re-checks the
/// header's `dest` against its own id. `express` lets a fabric serve
/// request-reply frames ahead of queued bulk without parsing them; it
/// only ever reorders *across* flows, so a wrong stamp costs latency,
/// never correctness. `born` is telemetry metadata
/// (aggregation-open time for the latency histogram), not protocol
/// state; it never crosses a real wire and injection never touches it.
#[derive(Clone, Debug)]
pub struct DataFrame {
    /// Sending node (which link the frame leaves on). Out-of-band like
    /// `dest`; the receiver trusts only the verified header's `src`.
    pub src: u32,
    /// Fabric routing stamp (which ingress channel the frame lands in).
    pub dest: u32,
    /// Priority stamp, set at seal time: any kind but DATA.
    pub express: bool,
    /// When the aggregation buffer behind the payload was opened.
    pub born: Instant,
    /// The complete frame: header, payload, CRC trailer.
    pub bytes: Bytes,
}

impl DataFrame {
    /// Frame size on the wire.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True for a zero-byte frame (never produced by `seal`).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Verify the frame and decode it back into a [`Packet`]. Accepts
    /// any data-plane kind (DATA, GET, AM_CALL, AM_REPLY); the payload
    /// is a zero-copy slice of the frame bytes.
    pub fn open(&self, integrity: WireIntegrity) -> Result<Packet, FrameError> {
        let head = open_data_frame(&self.bytes, integrity)?;
        let payload = self
            .bytes
            .slice(HEADER_BYTES..HEADER_BYTES + head.payload_len as usize);
        Ok(Packet {
            src: head.src,
            dest: head.dest,
            lane: head.lane,
            seq: head.seq,
            born: self.born,
            payload,
            // The frame is sealed already; a re-seal copies.
            room: FrameRoom::none(),
        })
    }
}

impl Packet {
    /// Seal this packet into a wire frame, advertising its traffic
    /// class as the frame kind. Called once per packet at submit time;
    /// retransmissions clone the sealed frame (refcounted bytes), so
    /// the CRC is never recomputed. The aggregator keeps packets
    /// class-pure (runs split on class boundaries), so the first
    /// message's class speaks for the whole payload.
    ///
    /// A packet whose payload lies in a pooled buffer with room around
    /// it (a lane's flush, [`Packet::from_words_in`]) is sealed *in
    /// place* the first time: the header and the CRC trailer go into
    /// that room and the frame is the buffer the messages were written
    /// into — no second buffer, no payload copy. Any other seal — a
    /// clone of that packet, a second seal of it, a packet without
    /// room — copies the payload into a fresh buffer and leaves the
    /// first frame's bytes alone.
    pub fn seal(&self, epoch: u32, integrity: WireIntegrity) -> DataFrame {
        self.seal_in(epoch, integrity, None)
    }

    /// [`seal`](Self::seal) drawing the buffer of a copying seal from
    /// a packet-buffer arena (allocation-free in steady state).
    pub fn seal_in(
        &self,
        epoch: u32,
        integrity: WireIntegrity,
        pool: Option<&gravel_gq::BufferPool>,
    ) -> DataFrame {
        let kind = match self.class() {
            gravel_gq::TrafficClass::Get => FrameKind::Get,
            gravel_gq::TrafficClass::Reply => FrameKind::AmReply,
            gravel_gq::TrafficClass::AmCall => FrameKind::AmCall,
            gravel_gq::TrafficClass::Bulk => FrameKind::Data,
        };
        self.seal_kind_in(epoch, integrity, kind, pool)
    }

    /// Seal with an explicit frame kind (the class-derived
    /// [`seal`](Self::seal) is the normal path).
    pub fn seal_kind(&self, epoch: u32, integrity: WireIntegrity, kind: FrameKind) -> DataFrame {
        self.seal_kind_in(epoch, integrity, kind, None)
    }

    /// [`seal_kind`](Self::seal_kind) drawing the buffer of a copying
    /// seal from a packet-buffer arena (allocation-free in steady state).
    pub fn seal_kind_in(
        &self,
        epoch: u32,
        integrity: WireIntegrity,
        kind: FrameKind,
        pool: Option<&gravel_gq::BufferPool>,
    ) -> DataFrame {
        let head = FrameHead {
            kind,
            flags: 0,
            src: self.src,
            dest: self.dest,
            lane: self.lane,
            epoch,
            seq: self.seq,
            payload_len: self.payload.len() as u32,
        };
        let bytes = match self.room.take_around(&self.payload) {
            Some(whole) => seal_in_place(whole, &head, integrity),
            None => seal_frame_in(&head, &self.payload, integrity, pool),
        };
        DataFrame {
            src: self.src,
            dest: self.dest,
            express: kind != FrameKind::Data,
            born: self.born,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vector() {
        // The canonical CRC-32C check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // Slice-by-8 path (>= 8 bytes) agrees with the bytewise path.
        let data: Vec<u8> = (0..255).collect();
        let bytewise = {
            let mut crc = !0u32;
            for &b in &data {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
            }
            !crc
        };
        assert_eq!(crc32c(&data), bytewise);
    }

    #[test]
    fn crc32c_hw_and_sw_agree_at_every_length() {
        // The dispatcher must be a pure strength reduction: both paths
        // compute the same polynomial at every alignment and remainder,
        // including lengths that cross the 3-lane kernel threshold and
        // its shift-combine step.
        let data: Vec<u8> = (0..8192u32).map(|i| (i.wrapping_mul(0x9E37) >> 3) as u8).collect();
        for len in (0..1024)
            .chain(3 * CRC_LANE_BYTES - 64..3 * CRC_LANE_BYTES + 320)
            .chain(448..832) // the vpclmulqdq dispatch threshold
        {
            assert_eq!(crc32c(&data[..len]), crc32c_sw(&data[..len]), "len {len}");
        }
        for len in (0..data.len()).step_by(97) {
            assert_eq!(crc32c(&data[..len]), crc32c_sw(&data[..len]), "len {len}");
        }
    }

    fn packet() -> Packet {
        let mut p = Packet::from_words(3, 5, &[1, 2, 3, 4, 5, 6, 7, 8]);
        p.lane = 2;
        p.seq = 99;
        p
    }

    #[test]
    fn data_frame_roundtrip() {
        let pkt = packet();
        let frame = pkt.seal(7, WireIntegrity::Crc32c);
        assert_eq!(frame.dest, 5);
        assert_eq!(frame.len(), FRAME_OVERHEAD + 64);
        let back = frame.open(WireIntegrity::Crc32c).expect("clean frame");
        assert_eq!(back, pkt);
        // The decoded payload borrows the frame's buffer (zero copy).
        assert_eq!(back.payload.as_ptr() as usize, frame.bytes.as_ptr() as usize + HEADER_BYTES);
    }

    #[test]
    fn integrity_off_stamps_zero_crc_and_skips_verify() {
        let pkt = packet();
        let frame = pkt.seal(0, WireIntegrity::Off);
        let tail = &frame.bytes[frame.len() - 4..];
        assert_eq!(tail, [0, 0, 0, 0]);
        assert_eq!(frame.open(WireIntegrity::Off).unwrap(), pkt);
        // A frame sealed without a CRC fails closed under verification.
        assert!(matches!(
            frame.open(WireIntegrity::Crc32c),
            Err(FrameError::BadCrc { .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let frame = packet().seal(1, WireIntegrity::Crc32c);
        for i in 0..frame.len() {
            let mut bad = frame.bytes.to_vec();
            bad[i] ^= 0x5a;
            let mangled = DataFrame { bytes: Bytes::from(bad), ..frame.clone() };
            assert!(
                mangled.open(WireIntegrity::Crc32c).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_classifies_as_truncated() {
        let frame = packet().seal(0, WireIntegrity::Crc32c);
        for cut in [0, 1, HEADER_BYTES - 1, HEADER_BYTES, frame.len() - 1] {
            let short = DataFrame { bytes: frame.bytes.slice(0..cut), ..frame.clone() };
            let err = short.open(WireIntegrity::Crc32c).unwrap_err();
            assert!(err.is_truncation(), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let frame = packet().seal(0, WireIntegrity::Crc32c);
        let mut long = frame.bytes.to_vec();
        long.push(0xaa);
        let fat = DataFrame { bytes: Bytes::from(long), ..frame };
        assert!(matches!(
            fat.open(WireIntegrity::Crc32c),
            Err(FrameError::BadLength { .. })
        ));
    }

    #[test]
    fn garbage_bytes_fail_magic() {
        let junk = DataFrame {
            src: 0,
            dest: 1,
            express: false,
            born: Instant::now(),
            bytes: Bytes::from(vec![0x13u8; 64]),
        };
        assert!(matches!(
            junk.open(WireIntegrity::Crc32c),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn kind_confusion_is_rejected() {
        // A data frame handed to the ack plane (and vice versa) fails
        // the kind check even when its CRC is fine.
        let frame = packet().seal(0, WireIntegrity::Crc32c);
        assert!(matches!(
            open_ack(&frame.bytes, WireIntegrity::Crc32c),
            Err(FrameError::WrongKind { .. })
        ));
        let ack = seal_ack(1, 0, 2, 3, 41, 0b110, WireIntegrity::Crc32c);
        assert!(matches!(
            open_frame(&ack, FrameKind::Data, WireIntegrity::Crc32c),
            Err(FrameError::WrongKind { .. })
        ));
    }

    #[test]
    fn ack_roundtrip_and_bitflip_detection() {
        let bytes = seal_ack(1, 0, 2, 9, 12345, 0xA5 << 32 | 0b10, WireIntegrity::Crc32c);
        let (head, held) = open_ack(&bytes, WireIntegrity::Crc32c).expect("clean ack");
        assert_eq!(
            (head.src, head.dest, head.lane, head.epoch, head.seq, held),
            (1, 0, 2, 9, 12345, 0xA5 << 32 | 0b10)
        );
        for i in 0..bytes.len() {
            let mut bad = bytes;
            bad[i] ^= 1;
            assert!(open_ack(&bad, WireIntegrity::Crc32c).is_err(), "byte {i}");
        }
    }

    #[test]
    fn hello_roundtrip_and_version_mismatch() {
        let hello = HelloInfo { node: 2, peer: 0, nodes: 4, lanes: 1, epoch: 7 };
        let bytes = seal_hello(&hello, WireIntegrity::Crc32c);
        assert_eq!(open_hello(&bytes, WireIntegrity::Crc32c).unwrap(), hello);
        // A HELLO from a build speaking a different wire version is
        // classified as BadVersion so the accept side can REJECT it.
        let mut alien = bytes.to_vec();
        alien[4] = 9;
        alien[5] = 0;
        let tail = alien.len() - 4;
        let crc = crc32c(&alien[..tail]);
        alien[tail..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            open_hello(&alien, WireIntegrity::Crc32c),
            Err(FrameError::BadVersion { got: 9 })
        ));
    }

    #[test]
    fn reject_roundtrip() {
        let bytes = seal_reject(3, RejectReason::Version, 9, WireIntegrity::Crc32c);
        let (src, reason, detail) = open_reject(&bytes, WireIntegrity::Crc32c).unwrap();
        assert_eq!((src, reason, detail), (3, RejectReason::Version, 9));
        for i in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x40;
            assert!(open_reject(&bad, WireIntegrity::Crc32c).is_err(), "byte {i}");
        }
    }

    #[test]
    fn heartbeat_roundtrip() {
        let bytes = seal_heartbeat(1, 3, 5, 77, WireIntegrity::Crc32c);
        let head = open_heartbeat(&bytes, WireIntegrity::Crc32c).unwrap();
        assert_eq!((head.src, head.dest, head.epoch, head.seq), (1, 3, 5, 77));
        // Heartbeats are not acks even though they share the header.
        assert!(open_ack(&bytes, WireIntegrity::Crc32c).is_err());
    }

    #[test]
    fn control_roundtrip() {
        let words = [42u64, 7, u64::MAX, 0];
        let bytes = seal_control(0, 1, 3, &words, WireIntegrity::Crc32c);
        let (head, got) = open_control(&bytes, WireIntegrity::Crc32c).unwrap();
        assert_eq!((head.src, head.dest, head.epoch), (0, 1, 3));
        assert_eq!(got, words);
        let empty = seal_control(2, 3, 0, &[], WireIntegrity::Crc32c);
        let (_, got) = open_control(&empty, WireIntegrity::Crc32c).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn control_sealed_from_words_plus_wire_order_tail_is_byte_identical() {
        // The forwarder's single-pass seal (header words + the applied
        // packet's payload bytes) must put the same bytes on the wire
        // as sealing the whole op from words.
        let words = [1u64, 2, 0, 9, 3, 0xAA, 0xBB, u64::MAX];
        let tail: Vec<u8> = words[5..].iter().flat_map(|w| w.to_le_bytes()).collect();
        for integrity in [WireIntegrity::Crc32c, WireIntegrity::Off] {
            // A dirty, recycled buffer: the seal starts from scratch.
            let mut buf = vec![0x5a; 7];
            seal_control_into(&mut buf, 4, 5, 6, &words[..5], &tail, integrity);
            assert_eq!(buf, seal_control(4, 5, 6, &words, integrity).to_vec());
        }
    }

    #[test]
    fn epoch_travels_in_the_header() {
        let frame = packet().seal(42, WireIntegrity::Crc32c);
        let head = open_frame(&frame.bytes, FrameKind::Data, WireIntegrity::Crc32c).unwrap();
        assert_eq!(head.epoch, 42);
    }
}

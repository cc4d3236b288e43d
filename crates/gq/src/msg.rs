//! Message representation.
//!
//! Gravel messages are tiny fixed-format records (paper §4.2): a command
//! word, a destination word, and argument words (address, value). A queue
//! slot stores one message per lane in a row-major 2-D array so that the
//! lanes of a work-group write adjacent columns of each row — the layout
//! that lets the GPU's coalescer merge a whole work-group's message writes
//! into few cache-line transactions, and the reason Gravel's queue carries
//! a half-byte of per-message overhead where padded CPU queues carry whole
//! cache lines.

/// Network commands a message can carry (paper §6: PUT, atomic increment,
/// and a primitive active-message API), extended with the request-reply
/// band (GET, value-returning active messages, replies).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Command {
    /// PGAS store: write `value` to `addr` on `dest`.
    Put,
    /// PGAS atomic add: add `value` to `addr` on `dest`.
    Inc,
    /// Active message: run registered handler `value as u32` against
    /// `addr`/`value2` on `dest`. The handler index travels in the low
    /// half of the command word.
    Active(u32),
    /// Runtime control: tells a consumer to shut down. Never produced by
    /// application kernels.
    Shutdown,
    /// One-sided read: load heap word `addr` on `dest` and reply with its
    /// value. `value` carries the request token the reply echoes back;
    /// `deadline_ms` is the requester's advisory timeout budget.
    Get {
        /// Requester timeout budget in milliseconds (advisory on the
        /// wire; the requester's pending-reply table enforces it).
        deadline_ms: u16,
    },
    /// A reply to a [`Get`](Command::Get) or [`AmCall`](Command::AmCall):
    /// `addr` carries the request token, `value` the result.
    Reply,
    /// Value-returning active message: run returning handler `handler`
    /// against `addr` on `dest` and reply with its result. `value`
    /// carries the request token.
    AmCall {
        /// Returning-handler index at the destination.
        handler: u32,
        /// Requester timeout budget in milliseconds (advisory).
        deadline_ms: u16,
    },
}

impl Command {
    /// Encode to the slot's command word.
    ///
    /// Layout for the request-reply opcodes (4..=6): bits 0..8 opcode,
    /// bits 8..16 reserved (must be zero), bits 16..32 `deadline_ms`,
    /// bits 32..64 handler id (`AmCall` only). The legacy opcodes keep
    /// their exact low-32 encodings.
    #[inline]
    pub fn encode(self) -> u64 {
        match self {
            Command::Put => 0,
            Command::Inc => 1,
            Command::Active(h) => 2 | ((h as u64) << 32),
            Command::Shutdown => 3,
            Command::Get { deadline_ms } => 4 | ((deadline_ms as u64) << 16),
            Command::Reply => 5,
            Command::AmCall { handler, deadline_ms } => {
                6 | ((deadline_ms as u64) << 16) | ((handler as u64) << 32)
            }
        }
    }

    /// Decode from a command word. Reserved bits that must be zero are
    /// validated here: a word with a known opcode but garbage in a
    /// reserved field decodes to `None` and quarantines at the receiver.
    ///
    /// `#[inline]` is load-bearing on this and the other codec helpers:
    /// they run once per 32-byte message in the receive apply loop, and
    /// this function is past the size where rustc exports it for
    /// cross-crate inlining on its own — an outlined call here costs
    /// ~25 % of GUPS pipeline throughput.
    #[inline]
    pub fn decode(word: u64) -> Option<Command> {
        let lo = word & 0xffff_ffff;
        match lo {
            0 => return Some(Command::Put),
            1 => return Some(Command::Inc),
            2 => return Some(Command::Active((word >> 32) as u32)),
            3 => return Some(Command::Shutdown),
            _ => {}
        }
        let reserved = (lo >> 8) & 0xff;
        let deadline_ms = (lo >> 16) as u16;
        match lo & 0xff {
            4 if reserved == 0 && word >> 32 == 0 => Some(Command::Get { deadline_ms }),
            5 if lo == 5 && word >> 32 == 0 => Some(Command::Reply),
            6 if reserved == 0 => Some(Command::AmCall {
                handler: (word >> 32) as u32,
                deadline_ms,
            }),
            _ => None,
        }
    }
}

/// The two lanes a message can take through the pipeline (SNIPPETS.md
/// Snippet 3's "packet classification, priority bands"): request-reply
/// traffic rides **express** — its own offload ring, flush-on-empty
/// aggregation, its own delivery flow and the priority side of the
/// receiver's ingress — so a GET never queues behind bulk PUT runs;
/// everything fire-and-forget rides **bulk**.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Band {
    /// GETs, replies and value-returning AM calls: small, served first.
    Express,
    /// Fire-and-forget PUT/INC/AM streams.
    Bulk,
}

/// Number of priority bands.
pub const NUM_BANDS: usize = 2;

impl Band {
    /// All bands in service order (highest priority first).
    pub const ALL: [Band; NUM_BANDS] = [Band::Express, Band::Bulk];

    /// Index into per-band arrays (service order).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Band::Express => 0,
            Band::Bulk => 1,
        }
    }

    /// The band of a message, from its raw command word (no full
    /// decode): one mask and compare per message, made once, where the
    /// aggregator picks the message's queue set. GET, REPLY and AM_CALL
    /// are express; everything else — invalid opcodes included, which
    /// the receiver's full decode rejects — is bulk.
    #[inline]
    pub fn of_command_word(word: u64) -> Band {
        match word & 0xff {
            4..=6 => Band::Express,
            _ => Band::Bulk,
        }
    }
}

/// Number of u64 rows per message in the default Gravel format:
/// command, destination, address, value.
pub const MSG_ROWS: usize = 4;

/// Bytes per message in the default format.
pub const MSG_BYTES: usize = MSG_ROWS * 8;

/// One Gravel message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// Operation to perform at the destination.
    pub command: Command,
    /// Destination node id.
    pub dest: u32,
    /// Target offset in the destination's symmetric heap (in elements).
    pub addr: u64,
    /// Operand (store value, increment amount, or active-message arg).
    pub value: u64,
}

impl Message {
    /// A PGAS store.
    pub fn put(dest: u32, addr: u64, value: u64) -> Self {
        Message { command: Command::Put, dest, addr, value }
    }

    /// A PGAS atomic increment by `value`.
    pub fn inc(dest: u32, addr: u64, value: u64) -> Self {
        Message { command: Command::Inc, dest, addr, value }
    }

    /// An active message for handler `handler`.
    pub fn active(dest: u32, handler: u32, addr: u64, value: u64) -> Self {
        Message { command: Command::Active(handler), dest, addr, value }
    }

    /// The consumer-shutdown sentinel.
    pub fn shutdown() -> Self {
        Message { command: Command::Shutdown, dest: 0, addr: 0, value: 0 }
    }

    /// A one-sided read of heap word `addr` on `dest`. `token` names the
    /// requester's pending-reply entry; the reply echoes it back.
    pub fn get(dest: u32, addr: u64, token: u64, deadline_ms: u16) -> Self {
        Message { command: Command::Get { deadline_ms }, dest, addr, value: token }
    }

    /// A reply carrying `value` back to requester `dest` for `token`.
    pub fn reply(dest: u32, token: u64, value: u64) -> Self {
        Message { command: Command::Reply, dest, addr: token, value }
    }

    /// A value-returning active-message call: run returning handler
    /// `handler` against `arg` on `dest`, replying to `token`.
    pub fn am_call(dest: u32, handler: u32, arg: u64, token: u64, deadline_ms: u16) -> Self {
        Message {
            command: Command::AmCall { handler, deadline_ms },
            dest,
            addr: arg,
            value: token,
        }
    }

    /// Encode into 4 words (rows of the slot array).
    #[inline]
    pub fn encode(&self) -> [u64; MSG_ROWS] {
        [self.command.encode(), self.dest as u64, self.addr, self.value]
    }

    /// Decode from 4 words.
    #[inline]
    pub fn decode(words: [u64; MSG_ROWS]) -> Option<Message> {
        Some(Message {
            command: Command::decode(words[0])?,
            dest: words[1] as u32,
            addr: words[2],
            value: words[3],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_roundtrip() {
        for c in [
            Command::Put,
            Command::Inc,
            Command::Active(7),
            Command::Active(u32::MAX),
            Command::Shutdown,
            Command::Get { deadline_ms: 0 },
            Command::Get { deadline_ms: u16::MAX },
            Command::Reply,
            Command::AmCall { handler: 0, deadline_ms: 250 },
            Command::AmCall { handler: u32::MAX, deadline_ms: u16::MAX },
        ] {
            assert_eq!(Command::decode(c.encode()), Some(c));
        }
    }

    #[test]
    fn unknown_command_decodes_to_none() {
        assert_eq!(Command::decode(99), None);
    }

    #[test]
    fn reserved_bits_must_be_zero() {
        // A known request-reply opcode with garbage in a reserved field
        // is rejected (the receiver quarantines it).
        assert_eq!(Command::decode(4 | (1 << 8)), None);
        assert_eq!(Command::decode(4 | (1 << 32)), None);
        assert_eq!(Command::decode(5 | (7 << 16)), None);
        assert_eq!(Command::decode(5 | (1 << 40)), None);
        assert_eq!(Command::decode(6 | (0xa5 << 8)), None);
    }

    #[test]
    fn request_reply_opcodes_are_express() {
        let band = |m: Message| Band::of_command_word(m.encode()[0]);
        assert_eq!(band(Message::get(1, 0, 0, 9)), Band::Express);
        assert_eq!(band(Message::reply(1, 0, 0)), Band::Express);
        assert_eq!(band(Message::am_call(1, 3, 0, 0, 9)), Band::Express);
        assert_eq!(band(Message::put(1, 0, 0)), Band::Bulk);
        assert_eq!(band(Message::inc(1, 0, 0)), Band::Bulk);
        assert_eq!(band(Message::active(1, 5, 0, 0)), Band::Bulk);
        assert_eq!(Band::of_command_word(99), Band::Bulk);
    }

    #[test]
    fn message_roundtrip() {
        let msgs = [
            Message::put(3, 0xdead_beef, 42),
            Message::inc(7, u64::MAX, 1),
            Message::active(0, 5, 10, 20),
            Message::shutdown(),
        ];
        for m in msgs {
            assert_eq!(Message::decode(m.encode()), Some(m));
        }
    }

    #[test]
    fn format_is_32_bytes() {
        assert_eq!(MSG_BYTES, 32); // the paper's Fig. 6 message size
    }
}

//! The packet payload: runs of records (DESIGN.md §13).
//!
//! Inside a packet for node *d* every message's destination word is *d*,
//! and a bulk stream repeats one command for the whole packet, so a
//! payload does not carry the ring's 32-byte messages as they are. It is
//! a sequence of **runs**: one header word, `kind | count << 32`,
//! followed by `count` records of that kind.
//!
//! * [`RunKind::Put`] and [`RunKind::Inc`] records are `(addr, value)`,
//!   16 bytes: the command is the run's and the destination is the
//!   packet's. (A receiver reads no message's destination word: the
//!   packet was routed to it.)
//! * [`RunKind::Raw`] records are a message's four words unchanged —
//!   every other command (GET, reply, active message, AM call), and a
//!   PUT or INC command word with bits set above the opcode, which the
//!   record could not give back exactly.
//!
//! Runs delimit themselves, so two payloads placed end to end are a
//! valid payload: a replay log or a buddy's forward log stores payload
//! words as they arrived and decodes them the same way.
//!
//! A header whose kind is unknown, whose count is zero or whose records
//! run past the end of the payload — or bytes left over after the last
//! run that do not make a whole header — makes the rest of the payload
//! *malformed*: the decoders stop there, never read past the payload,
//! and the messages before it stand.

use bytes::BytesMut;
use gravel_gq::{MSG_BYTES, MSG_ROWS};

/// Bytes of a run header.
pub const RUN_HEADER_BYTES: usize = 8;

/// Bytes of one PUT or INC record, `(addr, value)`.
pub const PAIR_BYTES: usize = 16;

/// What a run's records are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunKind {
    /// `(addr, value)` stores.
    Put,
    /// `(addr, value)` increments.
    Inc,
    /// Whole four-word messages.
    Raw,
}

/// Command word of a PUT (`Command::Put.encode()`).
const CMD_PUT: u64 = 0;
/// Command word of an INC (`Command::Inc.encode()`).
const CMD_INC: u64 = 1;

impl RunKind {
    /// The header's low half for this kind.
    #[inline]
    pub(crate) const fn code(self) -> u32 {
        match self {
            RunKind::Put => 1,
            RunKind::Inc => 2,
            RunKind::Raw => 3,
        }
    }

    /// The kind a header's low half names, if any.
    #[inline]
    pub const fn of_code(code: u32) -> Option<RunKind> {
        match code {
            1 => Some(RunKind::Put),
            2 => Some(RunKind::Inc),
            3 => Some(RunKind::Raw),
            _ => None,
        }
    }

    /// Words per record.
    #[inline]
    pub const fn record_words(self) -> usize {
        match self {
            RunKind::Put | RunKind::Inc => 2,
            RunKind::Raw => MSG_ROWS,
        }
    }

    /// Bytes per record.
    #[inline]
    pub(crate) const fn record_bytes(self) -> usize {
        self.record_words() * 8
    }

    /// The kind message `words` travels as: a PUT or INC record if its
    /// command word is exactly that command, whole otherwise.
    #[inline]
    pub(crate) fn of_message(words: &[u64]) -> RunKind {
        match words[0] {
            CMD_PUT => RunKind::Put,
            CMD_INC => RunKind::Inc,
            _ => RunKind::Raw,
        }
    }
}

/// A run header word.
#[inline]
pub const fn run_header(kind: RunKind, count: u32) -> u64 {
    kind.code() as u64 | (count as u64) << 32
}

/// Payload bytes the four-word messages `msgs` take in a packet.
pub(crate) fn encoded_len(msgs: &[u64]) -> usize {
    let mut open = None;
    msgs.chunks_exact(MSG_ROWS)
        .map(|m| {
            let kind = RunKind::of_message(m);
            let header = if open == Some(kind) { 0 } else { RUN_HEADER_BYTES };
            open = Some(kind);
            header + kind.record_words() * 8
        })
        .sum()
}

/// The open run of a payload being written: appended records extend it
/// while their kind matches; [`close`](Self::close) stamps its count.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunWriter {
    /// Byte offset of the open run's header in the buffer.
    header_at: usize,
    /// The open run's [`RunKind::code`]; 0 when no run is open.
    open: u32,
    /// The command word of the messages the open run takes as PUT or
    /// INC records; [`NO_PAIR`] when no such run is open.
    pair_cmd: u64,
}

/// A command word no PUT or INC record stands for (a message may still
/// carry it, so [`RunWriter::takes_pair`] checks the command too).
const NO_PAIR: u64 = u64::MAX;

impl RunWriter {
    pub(crate) const fn new() -> Self {
        RunWriter { header_at: 0, open: 0, pair_cmd: NO_PAIR }
    }

    /// Whether a record of `kind` extends the open run.
    #[inline]
    pub(crate) fn extends(&self, kind: RunKind) -> bool {
        self.open == kind.code()
    }

    /// Whether a message with command word `cmd` extends the open run
    /// as a PUT or INC record: the lane's hot path.
    #[inline(always)]
    pub(crate) fn takes_pair(&self, cmd: u64) -> bool {
        cmd <= CMD_INC && cmd == self.pair_cmd
    }

    /// Open a run of `kind` at the end of `buf`, closing the one before.
    #[inline]
    fn open(&mut self, buf: &mut BytesMut, kind: RunKind) {
        self.close(buf);
        self.header_at = buf.len();
        self.open = kind.code();
        self.pair_cmd = match kind {
            RunKind::Put => CMD_PUT,
            RunKind::Inc => CMD_INC,
            RunKind::Raw => NO_PAIR,
        };
        // The count goes in at `close`.
        buf.extend_from_slice(&run_header(kind, 0).to_le_bytes());
    }

    /// Append an `(addr, value)` record to the open PUT or INC run.
    /// Always inlined: the aggregator lane runs it once per message,
    /// and as a call it measured slower than the 32-byte copy a record
    /// replaces.
    #[inline(always)]
    pub(crate) fn put_pair(&self, buf: &mut BytesMut, addr: u64, value: u64) {
        debug_assert_ne!(self.pair_cmd, NO_PAIR);
        // One 16-byte append, not two 8-byte ones.
        buf.extend_from_slice(&pair(addr, value));
    }

    /// Append message `words` as a record of `kind`
    /// ([`RunKind::of_message`]) to the open run, which is of that kind.
    #[inline]
    pub(crate) fn extend(&self, buf: &mut BytesMut, kind: RunKind, words: &[u64]) {
        debug_assert!(self.extends(kind));
        match kind {
            RunKind::Raw => buf.put_u64_slice_le(words),
            _ => self.put_pair(buf, words[2], words[3]),
        }
    }

    /// Append message `words` as a record of `kind`, opening a run of
    /// that kind if the open one is another.
    #[inline]
    pub(crate) fn push(&mut self, buf: &mut BytesMut, kind: RunKind, words: &[u64]) {
        if !self.extends(kind) {
            self.open(buf, kind);
        }
        self.extend(buf, kind, words);
    }

    /// Append an INC record, opening an INC run if need be.
    #[inline]
    pub(crate) fn push_inc(&mut self, buf: &mut BytesMut, addr: u64, value: u64) {
        if !self.extends(RunKind::Inc) {
            self.open(buf, RunKind::Inc);
        }
        self.put_pair(buf, addr, value);
    }

    /// Stamp the open run's count into its header; no run is open after.
    #[inline]
    pub(crate) fn close(&mut self, buf: &mut BytesMut) {
        if let Some(kind) = RunKind::of_code(self.open) {
            let at = self.header_at + 4;
            let count = (buf.len() - at - 4) / kind.record_bytes();
            buf[at..at + 4].copy_from_slice(&(count as u32).to_le_bytes());
            (self.open, self.pair_cmd) = (0, NO_PAIR);
        }
    }
}

/// A PUT or INC record's bytes.
#[inline(always)]
fn pair(addr: u64, value: u64) -> [u8; PAIR_BYTES] {
    let mut record = [0u8; PAIR_BYTES];
    record[..8].copy_from_slice(&addr.to_le_bytes());
    record[8..].copy_from_slice(&value.to_le_bytes());
    record
}

/// A payload as the decoders read it: whole little-endian words, and
/// whether bytes trail the last whole word.
pub trait PayloadWords {
    /// Whole words.
    fn word_count(&self) -> usize;
    /// Bytes trail the last whole word.
    fn ragged(&self) -> bool;
    /// Words `at..at + N`; the caller keeps them inside
    /// [`word_count`](Self::word_count).
    fn words_at<const N: usize>(&self, at: usize) -> [u64; N];

    /// Words `at..at + n * N` as `n` records of `N` words: one bounds
    /// check for the lot, none per record.
    fn records<const N: usize>(&self, at: usize, n: usize) -> impl Iterator<Item = [u64; N]> + '_;
}

impl PayloadWords for [u8] {
    #[inline]
    fn word_count(&self) -> usize {
        self.len() / 8
    }

    #[inline]
    fn ragged(&self) -> bool {
        !self.len().is_multiple_of(8)
    }

    #[inline]
    fn words_at<const N: usize>(&self, at: usize) -> [u64; N] {
        let b = &self[at * 8..at * 8 + N * 8];
        std::array::from_fn(|i| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap()))
    }

    #[inline]
    fn records<const N: usize>(&self, at: usize, n: usize) -> impl Iterator<Item = [u64; N]> + '_ {
        self[at * 8..(at + n * N) * 8].chunks_exact(N * 8).map(|b| {
            std::array::from_fn(|i| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap()))
        })
    }
}

impl PayloadWords for [u64] {
    #[inline]
    fn word_count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn ragged(&self) -> bool {
        false
    }

    #[inline]
    fn words_at<const N: usize>(&self, at: usize) -> [u64; N] {
        self[at..at + N].try_into().unwrap()
    }

    #[inline]
    fn records<const N: usize>(&self, at: usize, n: usize) -> impl Iterator<Item = [u64; N]> + '_ {
        self[at..at + n * N].chunks_exact(N).map(|w| w.try_into().unwrap())
    }
}

/// A well-formed run: its kind, its record count and the word its
/// records start at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) kind: RunKind,
    pub(crate) count: usize,
    pub(crate) at: usize,
}

impl Run {
    /// The word after the run's last record.
    #[inline]
    pub(crate) fn end(&self) -> usize {
        self.at + self.count * self.kind.record_words()
    }
}

/// What sits at a run boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Next {
    /// A well-formed run.
    Run(Run),
    /// The payload ends here.
    End,
    /// The rest of the payload, from this word, is malformed.
    Malformed(usize),
}

/// Read the run boundary at word `at` of `payload`.
#[inline]
pub(crate) fn next_run<P: PayloadWords + ?Sized>(payload: &P, at: usize) -> Next {
    let words = payload.word_count();
    if at >= words {
        return if payload.ragged() { Next::Malformed(at) } else { Next::End };
    }
    let [header] = payload.words_at::<1>(at);
    let count = header >> 32;
    match RunKind::of_code(header as u32) {
        // A 32-bit count of at most four-word records: the product
        // cannot overflow 64 bits (and a multiply is cheaper than the
        // divide the bound could also be written with).
        Some(kind) if count > 0 && count * (kind.record_words() as u64) < (words - at) as u64 => {
            Next::Run(Run { kind, count: count as usize, at: at + 1 })
        }
        _ => Next::Malformed(at),
    }
}

/// The message record `r` of `run` stands for, as four words.
#[inline]
fn record<P: PayloadWords + ?Sized>(
    payload: &P,
    run: &Run,
    r: usize,
    dest: u64,
) -> [u64; MSG_ROWS] {
    match run.kind {
        RunKind::Raw => payload.words_at::<MSG_ROWS>(run.at + r * MSG_ROWS),
        kind => {
            let [addr, value] = payload.words_at::<2>(run.at + r * 2);
            let cmd = if kind == RunKind::Put { CMD_PUT } else { CMD_INC };
            [cmd, dest, addr, value]
        }
    }
}

/// The first four words of a payload's malformed rest, starting at
/// word `at`, zero-padded: the quarantine's evidence of it.
pub fn fragment(payload: &[u8], at: usize) -> [u64; MSG_ROWS] {
    let rest = payload.get(at * 8..).unwrap_or_default();
    let mut padded = [0u8; MSG_BYTES];
    let n = rest.len().min(MSG_BYTES);
    padded[..n].copy_from_slice(&rest[..n]);
    padded.words_at::<MSG_ROWS>(0)
}

/// Borrowing iterator over a payload's messages as four words each —
/// `[command, dest, addr, value]`, where a PUT or INC record's `dest`
/// is the packet's — stopping at the end or at a malformed run.
pub struct Messages<'a, P: ?Sized> {
    payload: &'a P,
    dest: u64,
    run: Run,
    /// Next record of `run`.
    r: usize,
    /// Where the decode stopped, once it has: `Some(None)` at the end,
    /// `Some(Some(at))` at a malformed run starting at word `at`.
    stopped: Option<Option<usize>>,
}

/// The messages of `payload`, a packet's payload for node `dest` — or
/// payloads of such packets placed end to end.
pub fn messages<P: PayloadWords + ?Sized>(payload: &P, dest: u32) -> Messages<'_, P> {
    Messages {
        payload,
        dest: u64::from(dest),
        run: Run { kind: RunKind::Raw, count: 0, at: 0 },
        r: 0,
        stopped: None,
    }
}

impl<P: PayloadWords + ?Sized> Messages<'_, P> {
    /// Once the iterator is exhausted: the word at which the payload
    /// stopped making sense, or `None` if every word was decoded.
    pub fn malformed_at(&self) -> Option<usize> {
        self.stopped.flatten()
    }
}

impl<P: PayloadWords + ?Sized> Iterator for Messages<'_, P> {
    type Item = [u64; MSG_ROWS];

    #[inline]
    fn next(&mut self) -> Option<[u64; MSG_ROWS]> {
        if self.r == self.run.count {
            if self.stopped.is_some() {
                return None;
            }
            match next_run(self.payload, self.run.end()) {
                Next::Run(run) => (self.run, self.r) = (run, 0),
                Next::End => {
                    self.stopped = Some(None);
                    return None;
                }
                Next::Malformed(at) => {
                    self.stopped = Some(Some(at));
                    return None;
                }
            }
        }
        self.r += 1;
        Some(record(self.payload, &self.run, self.r - 1, self.dest))
    }
}

/// Number of messages in `payload` before its end or its first
/// malformed run: a walk over the run headers only.
pub(crate) fn message_count<P: PayloadWords + ?Sized>(payload: &P) -> usize {
    let (mut at, mut n) = (0, 0);
    while let Next::Run(run) = next_run(payload, at) {
        n += run.count;
        at = run.end();
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_gq::{Command, Message};

    fn encode(msgs: &[Message]) -> Vec<u64> {
        let mut buf = BytesMut::new();
        let mut w = RunWriter::new();
        for m in msgs {
            let words = m.encode();
            w.push(&mut buf, RunKind::of_message(&words), &words);
        }
        w.close(&mut buf);
        buf.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
    }

    #[test]
    fn puts_and_incs_pack_to_pairs_and_the_rest_stays_whole() {
        let msgs = [
            Message::inc(2, 10, 1),
            Message::inc(2, 11, 2),
            Message::put(2, 12, 3),
            Message::get(2, 13, 77, 5),
            Message { command: Command::Inc, dest: 2, addr: 14, value: 4 },
            Message::inc(3, 15, 5), // the packet's dest word is read back
        ];
        let mut junk_above_the_opcode = msgs[4].encode();
        junk_above_the_opcode[0] |= 1 << 40;
        let mut words = encode(&msgs);
        assert_eq!(
            words,
            [
                [run_header(RunKind::Inc, 2), 10, 1, 11, 2].as_slice(),
                &[run_header(RunKind::Put, 1), 12, 3],
                &[run_header(RunKind::Raw, 1)],
                &msgs[3].encode(),
                &[run_header(RunKind::Inc, 2), 14, 4, 15, 5],
            ]
            .concat()
        );
        let back: Vec<_> = messages(words.as_slice(), 2).collect();
        let mut want = msgs.map(|m| m.encode());
        want[5][1] = 2;
        assert_eq!(back, want);
        assert_eq!(message_count(words.as_slice()), msgs.len());

        // A command word with bits above the opcode travels whole.
        let mut buf = BytesMut::new();
        let mut w = RunWriter::new();
        w.push(&mut buf, RunKind::of_message(&junk_above_the_opcode), &junk_above_the_opcode);
        w.close(&mut buf);
        words = buf.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(messages(words.as_slice(), 2).collect::<Vec<_>>(), [junk_above_the_opcode]);
    }

    #[test]
    fn payloads_end_to_end_decode_as_one() {
        let (a, b) = (encode(&[Message::inc(0, 1, 1)]), encode(&[Message::put(0, 2, 9)]));
        let both = [a, b].concat();
        let got: Vec<_> = messages(both.as_slice(), 0).collect();
        assert_eq!(got, [Message::inc(0, 1, 1).encode(), Message::put(0, 2, 9).encode()]);
    }

    #[test]
    fn a_malformed_header_stops_the_decode_where_it_stands() {
        let good = encode(&[Message::inc(0, 1, 1), Message::inc(0, 2, 1)]);
        for bad in [
            vec![9],                                 // unknown kind
            vec![run_header(RunKind::Inc, 0)],       // empty run
            vec![run_header(RunKind::Inc, 2), 1, 2], // count past the end
            vec![run_header(RunKind::Raw, 1), 1, 2, 3],
        ] {
            let payload = [good.clone(), bad].concat();
            let mut it = messages(payload.as_slice(), 0);
            assert_eq!(it.by_ref().count(), 2);
            assert_eq!(it.malformed_at(), Some(good.len()));
            assert_eq!(message_count(payload.as_slice()), 2);
        }
        // Bytes short of a whole word after the last run.
        let mut bytes: Vec<u8> = good.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.extend([1, 2, 3]);
        let mut it = messages(bytes.as_slice(), 0);
        assert_eq!(it.by_ref().count(), 2);
        assert_eq!(it.malformed_at(), Some(good.len()));
        assert_eq!(fragment(&bytes, good.len()), [0x03_0201, 0, 0, 0]);
    }

    #[test]
    fn a_counts_high_half_never_wraps_the_bound() {
        // count * record words would overflow a 32-bit product.
        let payload = [run_header(RunKind::Raw, u32::MAX), 0, 0, 0, 0];
        assert_eq!(next_run(payload.as_slice(), 0), Next::Malformed(0));
    }
}

//! Message application.
//!
//! A node's network thread receives per-node queues, iterates their
//! messages, and "resolves \[each\] as a local memory operation" (paper §6).
//! This module is that resolution step, shared by the live runtime's
//! network thread and the simulated cluster's receive model.

use gravel_gq::{Command, Message, MSG_ROWS};

use crate::am::AmRegistry;
use crate::heap::SymmetricHeap;
use crate::quarantine::QuarantineReason;

/// Outcome of applying one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applied {
    /// Message executed against the heap.
    Done,
    /// A shutdown sentinel was seen; the caller should stop its loop.
    Shutdown,
    /// The message passed wire integrity but failed semantic validation
    /// (out-of-range address, unknown handler). The caller decides the
    /// policy — the live network thread diverts it to the node's
    /// [`Quarantine`](crate::Quarantine); it still counts as disposed
    /// for quiescence.
    Rejected(QuarantineReason),
}

/// Apply one decoded message to the local heap — the general path
/// [`apply_stream`] takes for whatever its PUT/INC run does not
/// recognise, and the per-message reference its tests compare the run
/// against. Replying active-message handlers, GETs, and value-returning
/// AM calls emit follow-up messages through `reply`; `src` is the
/// verified sending node the replies are addressed to (from the frame
/// header, never from the payload).
///
/// A message addressing beyond the heap is *rejected*, not applied: the
/// network thread must survive corrupted or misrouted traffic (handlers
/// receive the raw `addr` and do their own interpretation, so only
/// PUT/INC/GET are bounds-checked here).
pub fn apply(
    msg: &Message,
    src: u32,
    heap: &SymmetricHeap,
    ams: &AmRegistry,
    reply: &mut dyn FnMut(Message),
) -> Applied {
    let in_bounds = (msg.addr as usize) < heap.len();
    match msg.command {
        Command::Put => {
            if !in_bounds {
                return Applied::Rejected(QuarantineReason::OutOfRange);
            }
            heap.store(msg.addr, msg.value);
            Applied::Done
        }
        Command::Inc => {
            if !in_bounds {
                return Applied::Rejected(QuarantineReason::OutOfRange);
            }
            heap.add(msg.addr, msg.value);
            Applied::Done
        }
        Command::Active(id) => {
            if ams.invoke(id, heap, msg.addr, msg.value, reply) {
                Applied::Done
            } else {
                Applied::Rejected(QuarantineReason::UnknownHandler)
            }
        }
        Command::Shutdown => Applied::Shutdown,
        Command::Get { .. } => {
            // One-sided read: serve the heap word and echo the request
            // token (carried in `value`) back to the sender. A GET of an
            // out-of-range address quarantines like a PUT would; the
            // requester's pending-reply entry then times out
            // deterministically instead of receiving garbage.
            if !in_bounds {
                return Applied::Rejected(QuarantineReason::OutOfRange);
            }
            reply(Message::reply(src, msg.value, heap.load(msg.addr)));
            Applied::Done
        }
        Command::Reply => {
            // Replies are consumed by the requester's network thread
            // (pending-reply table) *before* apply; one reaching this
            // point is a replay or a reply to a restarted node — a
            // harmless no-op against the heap.
            Applied::Done
        }
        Command::AmCall { handler, .. } => match ams.invoke_returning(handler, heap, msg.addr) {
            Some(v) => {
                reply(Message::reply(src, msg.value, v));
                Applied::Done
            }
            None => Applied::Rejected(QuarantineReason::UnknownHandler),
        },
    }
}

/// How [`apply_stream`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamEnd {
    /// Every message was resolved; the cursor equals the message count.
    Drained,
    /// `interrupt` fired; the cursor names the message it fired before.
    Interrupted,
    /// `other` saw a shutdown sentinel; the cursor names it.
    Shutdown,
}

/// Low half of the command word of a PUT (`Command::Put.encode()`).
const OP_PUT: u32 = 0;
/// Low half of the command word of an INC. Like [`Command::decode`], the
/// run below reads only the low half of these two opcodes.
const OP_INC: u32 = 1;

/// The resolver: apply messages `*cursor..count` of a message-major
/// stream to `heap`, run-wise. `words_at(i)` reads message `i`'s four
/// words from wherever the stream lives (packet payload bytes, a replay
/// log's words).
///
/// A packet is overwhelmingly PUTs and INCs to valid addresses, so those
/// are resolved right here from the raw words — the command word's
/// opcode compared as an integer, one bounds compare, a store or a
/// single-writer [`add`](SymmetricHeap::add) — with the position kept in
/// a register. The first message that is anything else (another
/// command, an address past the heap, an undecodable word) ends the run:
/// the cursor is settled and `other(i, words)` disposes of that one
/// message by the general path ([`Message::decode`] + [`apply`] and
/// whatever policy the caller has for rejects and replies), returning
/// `false` to stop the stream at a shutdown sentinel. Then the next run
/// starts.
///
/// `interrupt` is polled before every message, fast or not (the network
/// thread's injected kills tick per message); when it fires the cursor
/// is settled first, so the caller may panic and a successor resumes at
/// exactly that message. `*cursor` is exact whenever control is outside
/// this function — at return, inside `other`, and in an unwind out of
/// `other`.
#[inline]
pub fn apply_stream(
    count: usize,
    words_at: impl Fn(usize) -> [u64; MSG_ROWS],
    cursor: &mut usize,
    heap: &SymmetricHeap,
    mut interrupt: impl FnMut() -> bool,
    mut other: impl FnMut(usize, [u64; MSG_ROWS]) -> bool,
) -> StreamEnd {
    let len = heap.len() as u64;
    let mut i = *cursor;
    let end = 'stream: loop {
        let words = loop {
            if i >= count {
                break 'stream StreamEnd::Drained;
            }
            if interrupt() {
                break 'stream StreamEnd::Interrupted;
            }
            let words = words_at(i);
            let (op, addr) = (words[0] as u32, words[2]);
            if op > OP_INC || addr >= len {
                break words;
            }
            if op == OP_PUT {
                heap.store(addr, words[3]);
            } else {
                heap.add(addr, words[3]);
            }
            i += 1;
        };
        *cursor = i;
        if !other(i, words) {
            break StreamEnd::Shutdown;
        }
        i += 1;
    };
    *cursor = i;
    end
}

/// Apply a packed word stream of messages (message-major, 4 words each) to
/// the local heap. Returns the number of messages *disposed of* — applied
/// or rejected; a rejected message still counts, because quiescence
/// tracking needs every routed message accounted for exactly once.
/// Undecodable chunks are skipped without counting (this path also
/// replays checkpoint journals, which must never perturb the quiescence
/// counters). Stops early on a shutdown sentinel (reported via the
/// second tuple element). Replies from active-message handlers flow
/// through `reply`.
pub fn apply_words(
    words: &[u64],
    src: u32,
    heap: &SymmetricHeap,
    ams: &AmRegistry,
    reply: &mut dyn FnMut(Message),
) -> (usize, bool) {
    let (mut cursor, mut skipped) = (0, 0);
    let end = apply_stream(
        words.len() / MSG_ROWS,
        |i| std::array::from_fn(|row| words[i * MSG_ROWS + row]),
        &mut cursor,
        heap,
        || false,
        |_, w| match Message::decode(w) {
            Some(msg) => apply(&msg, src, heap, ams, reply) != Applied::Shutdown,
            None => {
                skipped += 1;
                true
            }
        },
    );
    (cursor - skipped, end == StreamEnd::Shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_inc() {
        let heap = SymmetricHeap::new(4);
        let ams = AmRegistry::new();
        assert_eq!(apply(&Message::put(0, 1, 9), 0, &heap, &ams, &mut |_| {}), Applied::Done);
        assert_eq!(apply(&Message::inc(0, 1, 3), 0, &heap, &ams, &mut |_| {}), Applied::Done);
        assert_eq!(heap.load(1), 12);
    }

    #[test]
    fn active_message_runs_handler() {
        let heap = SymmetricHeap::new(2);
        let mut ams = AmRegistry::new();
        let id = ams.register(Box::new(|h, a, v| h.store(a, v + 1)));
        assert_eq!(apply(&Message::active(0, id, 0, 41), 0, &heap, &ams, &mut |_| {}), Applied::Done);
        assert_eq!(heap.load(0), 42);
    }

    #[test]
    fn unknown_handler_rejected() {
        let heap = SymmetricHeap::new(1);
        let ams = AmRegistry::new();
        assert_eq!(
            apply(&Message::active(0, 9, 0, 0), 0, &heap, &ams, &mut |_| {}),
            Applied::Rejected(QuarantineReason::UnknownHandler)
        );
    }

    #[test]
    fn word_stream_application_stops_at_shutdown() {
        let heap = SymmetricHeap::new(4);
        let ams = AmRegistry::new();
        let mut words = Vec::new();
        words.extend(Message::inc(0, 0, 1).encode());
        words.extend(Message::shutdown().encode());
        words.extend(Message::inc(0, 0, 1).encode()); // after shutdown: ignored
        let (applied, shutdown) = apply_words(&words, 0, &heap, &ams, &mut |_| {});
        assert_eq!(applied, 1);
        assert!(shutdown);
        assert_eq!(heap.load(0), 1);
    }

    #[test]
    fn the_run_reads_the_codecs_opcodes() {
        assert_eq!(u64::from(OP_PUT), Command::Put.encode());
        assert_eq!(u64::from(OP_INC), Command::Inc.encode());
    }

    #[test]
    fn stream_settles_the_cursor_wherever_it_stops() {
        let heap = SymmetricHeap::new(4);
        let mut words = Vec::new();
        words.extend(Message::inc(0, 1, 5).encode());
        words.extend(Message::put(0, 2, 6).encode());
        words.extend(Message::inc(0, 9, 1).encode()); // past the heap: not the run's
        words.extend(Message::inc(0, 1, 5).encode());
        words.extend(Message::shutdown().encode());
        words.extend(Message::inc(0, 1, 5).encode());
        let at = |i: usize| std::array::from_fn(|row| words[i * MSG_ROWS + row]);

        // Interrupted before the fourth message: three are behind it.
        let (mut cursor, mut polls, mut seen) = (0, 0, Vec::new());
        let end = apply_stream(
            6,
            at,
            &mut cursor,
            &heap,
            || {
                polls += 1;
                polls == 4
            },
            |i, w| {
                seen.push((i, w[2]));
                true
            },
        );
        assert_eq!((end, cursor, polls), (StreamEnd::Interrupted, 3, 4));
        assert_eq!(seen, vec![(2, 9)], "only the out-of-range INC left the run");
        assert_eq!(heap.snapshot(), vec![0, 5, 6, 0]);

        // Resumed there, it stops on the sentinel and applies nothing after it.
        let end = apply_stream(6, at, &mut cursor, &heap, || false, |_, w| {
            Message::decode(w).is_some_and(|m| m.command != Command::Shutdown)
        });
        assert_eq!((end, cursor), (StreamEnd::Shutdown, 4));
        assert_eq!(heap.snapshot(), vec![0, 10, 6, 0]);
        assert_eq!(apply_stream(4, at, &mut cursor, &heap, || false, |_, _| true), StreamEnd::Drained);
    }

    #[test]
    fn out_of_range_addresses_are_quarantined_not_panicked() {
        // OOB addresses must not vanish silently: they land in the
        // quarantine with a counter, exactly as the network thread
        // routes them (ISSUE 5 satellite b).
        let heap = SymmetricHeap::new(2);
        let ams = AmRegistry::new();
        let q = crate::Quarantine::detached(16);
        for (i, msg) in [Message::put(0, 99, 1), Message::inc(0, 2, 1)].iter().enumerate() {
            match apply(msg, 0, &heap, &ams, &mut |_| {}) {
                Applied::Rejected(reason) => {
                    assert_eq!(reason, QuarantineReason::OutOfRange);
                    q.push(crate::QuarantinedMessage {
                        src: 0,
                        lane: 0,
                        seq: 0,
                        index: i,
                        words: msg.encode(),
                        reason,
                    });
                }
                other => panic!("expected rejection, got {other:?}"),
            }
        }
        assert_eq!(q.total(), 2);
        assert_eq!(q.drain().len(), 2);
        assert_eq!(heap.snapshot(), vec![0, 0]);
    }

    #[test]
    fn get_serves_heap_word_and_echoes_token() {
        let heap = SymmetricHeap::new(4);
        let ams = AmRegistry::new();
        heap.store(2, 0xfeed);
        let mut replies = Vec::new();
        assert_eq!(
            apply(&Message::get(1, 2, 777, 50), 9, &heap, &ams, &mut |m| replies.push(m)),
            Applied::Done
        );
        // Reply goes to the *frame* source (9), not the payload dest.
        assert_eq!(replies, vec![Message::reply(9, 777, 0xfeed)]);
    }

    #[test]
    fn get_out_of_range_is_rejected_without_reply() {
        let heap = SymmetricHeap::new(2);
        let ams = AmRegistry::new();
        let mut replies = Vec::new();
        assert_eq!(
            apply(&Message::get(1, 99, 1, 50), 0, &heap, &ams, &mut |m| replies.push(m)),
            Applied::Rejected(QuarantineReason::OutOfRange)
        );
        assert!(replies.is_empty());
    }

    #[test]
    fn am_call_replies_with_handler_result() {
        let heap = SymmetricHeap::new(2);
        let mut ams = AmRegistry::new();
        heap.store(0, 20);
        let id = ams.register_returning(Box::new(|h, a| h.load(a) * 2 + 2));
        let mut replies = Vec::new();
        assert_eq!(
            apply(&Message::am_call(1, id, 0, 55, 50), 3, &heap, &ams, &mut |m| replies.push(m)),
            Applied::Done
        );
        assert_eq!(replies, vec![Message::reply(3, 55, 42)]);
        // Unknown returning handler: rejected, no reply, requester times out.
        replies.clear();
        assert_eq!(
            apply(&Message::am_call(1, 9, 0, 55, 50), 3, &heap, &ams, &mut |m| replies.push(m)),
            Applied::Rejected(QuarantineReason::UnknownHandler)
        );
        assert!(replies.is_empty());
    }

    #[test]
    fn stray_reply_is_a_noop() {
        let heap = SymmetricHeap::new(1);
        let ams = AmRegistry::new();
        assert_eq!(
            apply(&Message::reply(0, 7, 123), 2, &heap, &ams, &mut |_| {}),
            Applied::Done
        );
        assert_eq!(heap.load(0), 0);
    }

    #[test]
    fn malformed_words_skipped() {
        let heap = SymmetricHeap::new(1);
        let ams = AmRegistry::new();
        let words = [u64::MAX, 0, 0, 0];
        let (applied, shutdown) = apply_words(&words, 0, &heap, &ams, &mut |_| {});
        assert_eq!(applied, 0);
        assert!(!shutdown);
    }
}

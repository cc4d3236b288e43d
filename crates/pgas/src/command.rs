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
use crate::runs::{next_run, Next, PayloadWords, RunKind};

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
    /// Every message before word `at` was resolved, and the payload
    /// from there on is malformed ([`runs`](crate::runs)); the cursor
    /// is the message count.
    Malformed {
        /// The word the malformed rest starts at.
        at: usize,
    },
}

/// Low half of the command word of a PUT (`Command::Put.encode()`).
const OP_PUT: u32 = 0;
/// Low half of the command word of an INC. Like [`Command::decode`], a
/// raw record is recognised by the low half of these two opcodes only.
const OP_INC: u32 = 1;

/// The resolver: apply messages `*cursor..` of `payload` — a packet's
/// runs ([`runs`](crate::runs)), or packets' payloads placed end to end
/// — to `heap`. `dest` is the node the payload was sent to, the
/// destination word of the messages its PUT and INC records stand for.
///
/// A packet is overwhelmingly PUT and INC records to valid addresses,
/// so those are resolved right here, one run at a time — the run's
/// kind decided once, one bounds compare per record, a store or a
/// single-writer [`add`](SymmetricHeap::add) — with the position kept in
/// a register; a raw record whose command word is a PUT or an INC
/// takes the same path. Anything else (another command, an address
/// past the heap, an undecodable word) is handed, as its four message
/// words, to `other(i, words)`, with the cursor settled: it disposes of
/// that one message by the general path ([`Message::decode`] +
/// [`apply`] and whatever policy the caller has for rejects and
/// replies), returning `false` to stop the stream at a shutdown
/// sentinel. The stream also stops at a malformed run, which nothing
/// past it is read of.
///
/// `interrupt` is polled before every message, fast or not (the network
/// thread's injected kills tick per message); when it fires the cursor
/// is settled first, so the caller may panic and a successor resumes at
/// exactly that message. `*cursor` is exact whenever control is outside
/// this function — at return, inside `other`, and in an unwind out of
/// `other` — and a resumed call finds its message by walking the run
/// headers before it.
#[inline]
pub fn apply_stream<P: PayloadWords + ?Sized>(
    payload: &P,
    dest: u32,
    cursor: &mut usize,
    heap: &SymmetricHeap,
    mut interrupt: impl FnMut() -> bool,
    mut other: impl FnMut(usize, [u64; MSG_ROWS]) -> bool,
) -> StreamEnd {
    let len = heap.len() as u64;
    let dest = u64::from(dest);
    let (mut i, mut at, mut skip) = (*cursor, 0, *cursor);
    let end = 'stream: loop {
        let run = match next_run(payload, at) {
            Next::Run(run) => run,
            Next::End => break StreamEnd::Drained,
            Next::Malformed(at) => break StreamEnd::Malformed { at },
        };
        at = run.end();
        if skip >= run.count {
            skip -= run.count;
            continue;
        }
        // One loop per record shape, so neither pays for the other's
        // branches.
        let first = std::mem::take(&mut skip);
        if run.kind == RunKind::Raw {
            for words in payload.records::<MSG_ROWS>(run.at + first * MSG_ROWS, run.count - first) {
                if interrupt() {
                    break 'stream StreamEnd::Interrupted;
                }
                match words[0] as u32 {
                    OP_PUT if words[2] < len => heap.store(words[2], words[3]),
                    OP_INC if words[2] < len => heap.add(words[2], words[3]),
                    _ => {
                        *cursor = i;
                        if !other(i, words) {
                            break 'stream StreamEnd::Shutdown;
                        }
                    }
                }
                i += 1;
            }
        } else {
            let inc = run.kind == RunKind::Inc;
            for [addr, value] in payload.records::<2>(run.at + first * 2, run.count - first) {
                if interrupt() {
                    break 'stream StreamEnd::Interrupted;
                }
                if addr >= len {
                    *cursor = i;
                    let op = if inc { OP_INC } else { OP_PUT };
                    if !other(i, [u64::from(op), dest, addr, value]) {
                        break 'stream StreamEnd::Shutdown;
                    }
                } else if inc {
                    heap.add(addr, value);
                } else {
                    heap.store(addr, value);
                }
                i += 1;
            }
        }
    };
    *cursor = i;
    end
}

/// Apply a word stream of packet payloads placed end to end (a replay
/// log, a buddy's forward log) to the local heap. Returns the number of messages *disposed of* —
/// applied or rejected; a rejected message still counts, because
/// quiescence tracking needs every routed message accounted for exactly
/// once. Undecodable messages are skipped without counting (this path
/// also replays checkpoint journals, which must never perturb the
/// quiescence counters), and so is a malformed rest of the stream.
/// Stops early on a shutdown sentinel (reported via the second tuple
/// element). Replies from active-message handlers flow through `reply`.
pub fn apply_words(
    words: &[u64],
    src: u32,
    heap: &SymmetricHeap,
    ams: &AmRegistry,
    reply: &mut dyn FnMut(Message),
) -> (usize, bool) {
    let (mut cursor, mut skipped) = (0, 0);
    // `apply` reads no message's destination word.
    let end = apply_stream(words, 0, &mut cursor, heap, || false, |_, w| {
        match Message::decode(w) {
            Some(msg) => apply(&msg, src, heap, ams, reply) != Applied::Shutdown,
            None => {
                skipped += 1;
                true
            }
        }
    });
    (cursor - skipped, end == StreamEnd::Shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::{run_header, RunKind};

    /// `msgs` as a packet's payload words for node 0.
    fn payload(msgs: &[Message]) -> Vec<u64> {
        let words: Vec<u64> = msgs.iter().flat_map(Message::encode).collect();
        crate::Packet::from_words(1, 0, &words).words()
    }

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
        let words = payload(&[
            Message::inc(0, 0, 1),
            Message::shutdown(),
            Message::inc(0, 0, 1), // after shutdown: ignored
        ]);
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
        let words = payload(&[
            Message::inc(0, 1, 5),
            Message::put(0, 2, 6),
            Message::inc(0, 9, 1), // past the heap: not the run's
            Message::inc(0, 1, 5),
            Message::shutdown(),
            Message::inc(0, 1, 5),
        ]);
        let at = words.as_slice();

        // Interrupted before the fourth message: three are behind it.
        let (mut cursor, mut polls, mut seen) = (0, 0, Vec::new());
        let end = apply_stream(
            at,
            0,
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
        let end = apply_stream(at, 0, &mut cursor, &heap, || false, |_, w| {
            Message::decode(w).is_some_and(|m| m.command != Command::Shutdown)
        });
        assert_eq!((end, cursor), (StreamEnd::Shutdown, 4));
        assert_eq!(heap.snapshot(), vec![0, 10, 6, 0]);
        let end = apply_stream(at, 0, &mut cursor, &heap, || false, |_, _| true);
        assert_eq!((end, cursor), (StreamEnd::Drained, 6));
        assert_eq!(heap.snapshot(), vec![0, 15, 6, 0]);

        // A malformed run stops the stream behind the messages before it.
        let torn = [&words[..], &[run_header(RunKind::Inc, 2), 1, 1]].concat();
        let mut cursor = 5;
        let end = apply_stream(torn.as_slice(), 0, &mut cursor, &heap, || false, |_, _| true);
        assert_eq!((end, cursor), (StreamEnd::Malformed { at: words.len() }, 6));
        assert_eq!(heap.snapshot(), vec![0, 20, 6, 0]);
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
        let words = [run_header(RunKind::Raw, 1), u64::MAX, 0, 0, 0];
        let (applied, shutdown) = apply_words(&words, 0, &heap, &ams, &mut |_| {});
        assert_eq!(applied, 0);
        assert!(!shutdown);
    }
}

//! Control-plane word codec for the multi-process buddy protocol.
//!
//! Every cross-process recovery exchange rides the socket transport's
//! control plane (`FrameKind::Control`, always CRC32C) as a flat `u64`
//! word vector whose first word is an opcode. The codec is pure and
//! total-on-decode: any word vector either decodes to a well-formed op
//! or returns `None` — a malformed control frame from a confused peer
//! is dropped, never panicked on (the decode fuzz tests assert this).
//!
//! Ops:
//!
//! The first three carry a [`RecoveryLog`] (`gravel_core::ha`), the
//! one recovery state the in-process runtime keeps too:
//!
//! * `FWD`  — one fully applied packet, forwarded by its receiver to
//!   that receiver's buddy *before* the cumulative ack leaves (see
//!   [`gravel_core::netthread::PacketTap`]). The buddy adopts the op
//!   as a [`LoggedPacket`] of its log for the forwarding node.
//! * `CKPT` — the forwarding node's epoch cut, a [`Baseline`]: its heap
//!   image, per-flow receive cursors (taken under the receive-state
//!   lock) and app words (the elastic ready-shard set). The buddy
//!   rebases the log on it. Because `FWD` and `CKPT` travel the same
//!   FIFO stream, the cut is exact: every forward that precedes the
//!   cut is in the log it truncates.
//! * `RECOVER_REQ`  — a (re)starting node asks its buddy for its state.
//! * `RECOVER_RESP` — the whole log in one frame (empty on cold boot,
//!   so the restart path and the cold-boot path are the same code).
//! * `REFUSED` — what an elastic node's gate refused of a packet, laid
//!   out as a `FWD`: logged with its keeper ahead of that packet's
//!   `FWD` and truncated by the next `CKPT` like the forwards.
//!
//! Elastic-membership ops (DESIGN.md §16) ride the same plane:
//!
//! * `TOPO` — the coordinator's committed topology change: the new
//!   [`ShardMap`] plus the outstanding shard moves. Also the answer to
//!   `MAP_REQ` and `JOIN_REQ` (kind = snapshot), so "learn the current
//!   topology" and "observe a change" are one code path.
//! * `MIGRATE` / `MIGRATE_REQ` / `WARD_MIGRATE_REQ` / `MIGRATE_ACK` —
//!   shard data pull: the new owner re-requests each pending shard
//!   until the words arrive (idempotent; heals kills mid-migration),
//!   from the old owner's live heap — or, for an evicted owner, from
//!   the dead node's buddy, which reconstructs the shard out of its
//!   ward checkpoint + replay log. The ack goes to the coordinator.
//! * `JOIN_REQ` / `LEAVE_REQ` — membership proposals (a `--join`
//!   process dialing in; a SIGUSR1 drain).
//! * `BOUNCE` — the stale-routing NACK: message quads the receiver
//!   refused (it no longer — or does not yet — own their shard) are
//!   returned to their sender together with the receiver's current
//!   map and the refused packet's `(lane, seq)`, to be re-aggregated
//!   and re-sent once, never dropped.
//!
//! Coordinator-failover ops (DESIGN.md §18) make the coordinator role
//! itself survivable. `TOPO` frames carry the issuing holder's fencing
//! **term** as their second word; receivers reject terms below their
//! observed floor, so a resurrected old coordinator cannot clobber a
//! successor's map:
//!
//! * `LEASE` — the holder's periodic lease beat: its term and current
//!   map version. Followers use the beat to renew the lease, detect a
//!   map-version gap (then knock with `MAP_REQ`), and learn takeovers.
//! * `DEATH_VOTE_REQ` / `DEATH_VOTE` — quorum corroboration of a
//!   phi-accrual death verdict. Nothing is evicted and no takeover
//!   term is asserted until a majority of the last-committed
//!   membership votes the suspect dead, which is what keeps a minority
//!   partition from evicting the other side or forking the map.

use gravel_core::ha::checkpoint::ENTRY_HEAD_WORDS;
use gravel_core::ha::{Baseline, LoggedPacket, RecoveryLog, Topo, TopologyChange};
use gravel_pgas::{ShardMap, ShardMove};

/// Applied-packet forward (receiver → its buddy).
pub const OP_FWD: u64 = 1;
/// Epoch cut: heap image + receive cursors + app words (receiver → its buddy).
pub const OP_CKPT: u64 = 2;
/// Recovery request (restarting node → its buddy).
pub const OP_RECOVER_REQ: u64 = 3;
/// Recovery response: the stored log (buddy → restarting node).
pub const OP_RECOVER_RESP: u64 = 4;
/// Topology broadcast: new shard map + outstanding moves.
pub const OP_TOPO: u64 = 5;
/// Shard data: every word of one shard (old owner → new owner).
pub const OP_MIGRATE: u64 = 6;
/// Shard migration complete (new owner → coordinator).
pub const OP_MIGRATE_ACK: u64 = 7;
/// Shard data re-request (new owner → old owner).
pub const OP_MIGRATE_REQ: u64 = 8;
/// Join proposal (a `--join` process → coordinator).
pub const OP_JOIN_REQ: u64 = 9;
/// Leave proposal (a SIGUSR1'd member → coordinator).
pub const OP_LEAVE_REQ: u64 = 10;
/// Stale-routing NACK: refused message quads + the refuser's map.
pub const OP_BOUNCE: u64 = 11;
/// Current-topology request (restarting node → coordinator).
pub const OP_MAP_REQ: u64 = 12;
/// Shard data re-request against a dead node's ward (new owner → the
/// dead node's buddy, which reconstructs from checkpoint + log).
pub const OP_WARD_MIGRATE_REQ: u64 = 13;
/// Coordinator lease beat: term + holder + current map version
/// (holder → everyone, each lease interval).
pub const OP_LEASE: u64 = 14;
/// Death-corroboration ballot: "is `suspect` dead by your detector?"
/// (suspecting node → every live peer).
pub const OP_DEATH_VOTE_REQ: u64 = 15;
/// Ballot reply carrying the voter's verdict (peer → requester).
pub const OP_DEATH_VOTE: u64 = 16;
/// What the gate refused of one packet (receiver → its buddy).
pub const OP_REFUSED: u64 = 17;

/// Words of a `FWD` op ahead of the packet's payload words:
/// `[OP_FWD, src, lane, seq, nwords]` — a [`LoggedPacket`]'s head, its
/// free word holding the opcode.
pub const FWD_HEAD_WORDS: usize = ENTRY_HEAD_WORDS;

/// The head of the `FWD` op for a packet of `nwords` payload words.
/// The forwarder seals it in front of the applied packet's payload
/// bytes — the op never exists as a word vector on the sending side.
pub fn fwd_head(src: u32, lane: u32, seq: u64, nwords: usize) -> [u64; FWD_HEAD_WORDS] {
    [OP_FWD, src as u64, lane as u64, seq, nwords as u64]
}

/// Adopt a received control message as a logged packet, without
/// copying it; `None` unless it is a well-formed `FWD` op.
pub fn decode_fwd(op: Vec<u64>) -> Option<LoggedPacket> {
    if op.first() != Some(&OP_FWD) {
        return None;
    }
    LoggedPacket::adopt(op)
}

/// Append a baseline (everything but the opcode) to `out`. The app
/// words travel where the elastic ready-shard set always has.
fn push_baseline(out: &mut Vec<u64>, b: &Baseline) {
    out.push(b.epoch);
    out.push(b.cursors.len() as u64);
    for &(src, lane, expected) in &b.cursors {
        out.extend([src as u64, lane as u64, expected]);
    }
    out.push(b.heap.len() as u64);
    out.extend_from_slice(&b.heap);
    out.push(b.app.len() as u64);
    out.extend_from_slice(&b.app);
}

/// `n` words from `words[at]` on, and the index one past them.
fn pop_words(words: &[u64], at: usize, n: u64) -> Option<(Vec<u64>, usize)> {
    let end = at.checked_add(usize::try_from(n).ok()?)?;
    Some((words.get(at..end)?.to_vec(), end))
}

/// Decode a baseline starting at `words[at]`; returns it and the index
/// one past it.
fn pop_baseline(words: &[u64], at: usize) -> Option<(Baseline, usize)> {
    let epoch = *words.get(at)?;
    let ncur = usize::try_from(*words.get(at + 1)?).ok()?;
    let mut i = at + 2;
    let mut cursors = Vec::with_capacity(ncur.min(1024));
    for _ in 0..ncur {
        let src = u32::try_from(*words.get(i)?).ok()?;
        let lane = u32::try_from(*words.get(i + 1)?).ok()?;
        let expected = *words.get(i + 2)?;
        cursors.push((src, lane, expected));
        i += 3;
    }
    let (heap, i) = pop_words(words, i + 1, *words.get(i)?)?;
    let (app, i) = pop_words(words, i + 1, *words.get(i)?)?;
    Some((Baseline { epoch, cursors, heap, app }, i))
}

pub fn encode_ckpt(b: &Baseline) -> Vec<u64> {
    let mut w = vec![OP_CKPT];
    push_baseline(&mut w, b);
    w
}

pub fn decode_ckpt(words: &[u64]) -> Option<Baseline> {
    if words.first() != Some(&OP_CKPT) {
        return None;
    }
    let (b, end) = pop_baseline(words, 1)?;
    (end == words.len()).then_some(b)
}

pub fn encode_recover_req() -> Vec<u64> {
    vec![OP_RECOVER_REQ]
}

/// `[OP_REFUSED, src, lane, seq, nwords, words…]`: a `FWD`'s layout.
pub fn encode_refused(r: &LoggedPacket) -> Vec<u64> {
    let mut w = vec![OP_REFUSED];
    w.extend_from_slice(r.wire());
    w
}

pub fn decode_refused(op: Vec<u64>) -> Option<LoggedPacket> {
    if op.first() != Some(&OP_REFUSED) {
        return None;
    }
    LoggedPacket::adopt(op)
}

/// A ward's whole log in one frame: `[OP_RECOVER_RESP, has_baseline,
/// baseline?, npackets, entries…, (nrefused, entries…)?]`, each entry a
/// [`LoggedPacket::wire`]. The refusals come only when there are any,
/// so a static node's response is what it always was.
pub fn encode_recover_resp(log: &RecoveryLog) -> Vec<u64> {
    let mut w = vec![OP_RECOVER_RESP, u64::from(log.baseline.is_some())];
    if let Some(b) = &log.baseline {
        push_baseline(&mut w, b);
    }
    w.push(log.packets.len() as u64);
    log.packets.iter().for_each(|p| w.extend_from_slice(p.wire()));
    if !log.refused.is_empty() {
        w.push(log.refused.len() as u64);
        log.refused.iter().for_each(|r| w.extend_from_slice(r.wire()));
    }
    w
}

/// A count and that many entries from `words[*i]` on, each a
/// [`LoggedPacket::wire`]; leaves `*i` one past them.
fn pop_entries(words: &[u64], i: &mut usize) -> Option<Vec<LoggedPacket>> {
    let n = usize::try_from(*words.get(*i)?).ok()?;
    *i += 1;
    let mut entries = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let end = (*i + 4).checked_add(usize::try_from(*words.get(*i + 3)?).ok()?)?;
        let mut op = vec![0];
        op.extend_from_slice(words.get(*i..end)?);
        entries.push(LoggedPacket::adopt(op)?);
        *i = end;
    }
    Some(entries)
}

pub fn decode_recover_resp(words: &[u64]) -> Option<RecoveryLog> {
    if words.first() != Some(&OP_RECOVER_RESP) {
        return None;
    }
    let (baseline, mut i) = match *words.get(1)? {
        0 => (None, 2),
        1 => {
            let (b, end) = pop_baseline(words, 2)?;
            (Some(b), end)
        }
        _ => return None,
    };
    let packets = pop_entries(words, &mut i)?;
    let refused = match i < words.len() {
        true => pop_entries(words, &mut i).filter(|r| !r.is_empty())?,
        false => Vec::new(),
    };
    (i == words.len()).then_some(RecoveryLog { baseline, packets, refused })
}

pub fn encode_topo(t: &Topo) -> Vec<u64> {
    // The change as a kind word (JOIN 0, LEAVE 1, EVICT 2, snapshot 3)
    // and its node.
    let (kind, node) = match t.change {
        Some(TopologyChange::Join(n)) => (0, n),
        Some(TopologyChange::Leave(n)) => (1, n),
        Some(TopologyChange::Evict(n)) => (2, n),
        None => (3, 0),
    };
    let mut w = vec![OP_TOPO, t.term, kind, node.into()];
    w.extend(t.map.encode_words());
    w.push(t.moves.len() as u64);
    for m in &t.moves {
        w.extend([m.shard as u64, m.from as u64, m.to as u64]);
    }
    w
}

pub fn decode_topo(words: &[u64]) -> Option<Topo> {
    if words.first() != Some(&OP_TOPO) {
        return None;
    }
    let term = *words.get(1)?;
    let node = u32::try_from(*words.get(3)?).ok()?;
    let change = match *words.get(2)? {
        0 => Some(TopologyChange::Join(node)),
        1 => Some(TopologyChange::Leave(node)),
        2 => Some(TopologyChange::Evict(node)),
        3 => None,
        _ => return None,
    };
    let (map, mut i) = ShardMap::decode_words(words, 4)?;
    let nmoves = usize::try_from(*words.get(i)?).ok()?;
    i += 1;
    let mut moves = Vec::with_capacity(nmoves.min(1024));
    for _ in 0..nmoves {
        let shard = u32::try_from(*words.get(i)?).ok()?;
        let from = u32::try_from(*words.get(i + 1)?).ok()?;
        let to = u32::try_from(*words.get(i + 2)?).ok()?;
        if shard as usize >= map.nshards() {
            return None;
        }
        moves.push(ShardMove { shard, from, to });
        i += 3;
    }
    (i == words.len()).then_some(Topo { term, change, map, moves })
}

/// The holder's periodic lease beat for `(term, holder)`. `map_version`
/// lets a follower whose directory lags the holder's detect the gap and
/// knock with `MAP_REQ` — the same resync path a restarted node uses.
pub fn encode_lease(term: u64, holder: u32, map_version: u64) -> Vec<u64> {
    vec![OP_LEASE, term, holder as u64, map_version]
}

pub fn decode_lease(words: &[u64]) -> Option<(u64, u32, u64)> {
    if words.len() != 4 || words[0] != OP_LEASE {
        return None;
    }
    Some((words[1], u32::try_from(words[2]).ok()?, words[3]))
}

/// Ask a peer to corroborate `suspect`'s death. The requester's
/// identity rides the control frame's `src`.
pub fn encode_death_vote_req(suspect: u32) -> Vec<u64> {
    vec![OP_DEATH_VOTE_REQ, suspect as u64]
}

pub fn decode_death_vote_req(words: &[u64]) -> Option<u32> {
    if words.len() != 2 || words[0] != OP_DEATH_VOTE_REQ {
        return None;
    }
    u32::try_from(words[1]).ok()
}

/// A ballot reply: the voter's own detector verdict on `suspect`.
pub fn encode_death_vote(suspect: u32, dead: bool) -> Vec<u64> {
    vec![OP_DEATH_VOTE, suspect as u64, u64::from(dead)]
}

pub fn decode_death_vote(words: &[u64]) -> Option<(u32, bool)> {
    if words.len() != 3 || words[0] != OP_DEATH_VOTE || words[2] > 1 {
        return None;
    }
    Some((u32::try_from(words[1]).ok()?, words[2] == 1))
}

/// One shard's words, pulled by its new owner. Word `k` is the value
/// of global index `shard + k * nshards` — the offsets are implicit in
/// the elastic identity-layout, so the frame is just the opcode, the
/// map version it answers, the shard id, and the strided values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrateMsg {
    pub version: u64,
    pub shard: u32,
    pub words: Vec<u64>,
}

pub fn encode_migrate(m: &MigrateMsg) -> Vec<u64> {
    let mut w = vec![OP_MIGRATE, m.version, m.shard as u64, m.words.len() as u64];
    w.extend_from_slice(&m.words);
    w
}

pub fn decode_migrate(words: &[u64]) -> Option<MigrateMsg> {
    if words.first() != Some(&OP_MIGRATE) {
        return None;
    }
    let version = *words.get(1)?;
    let shard = u32::try_from(*words.get(2)?).ok()?;
    let n = usize::try_from(*words.get(3)?).ok()?;
    if words.len() != n.checked_add(4)? {
        return None;
    }
    Some(MigrateMsg { version, shard, words: words[4..].to_vec() })
}

pub fn encode_migrate_ack(version: u64, shard: u32) -> Vec<u64> {
    vec![OP_MIGRATE_ACK, version, shard as u64]
}

pub fn decode_migrate_ack(words: &[u64]) -> Option<(u64, u32)> {
    if words.len() != 3 || words[0] != OP_MIGRATE_ACK {
        return None;
    }
    Some((words[1], u32::try_from(words[2]).ok()?))
}

pub fn encode_migrate_req(version: u64, shard: u32) -> Vec<u64> {
    vec![OP_MIGRATE_REQ, version, shard as u64]
}

pub fn decode_migrate_req(words: &[u64]) -> Option<(u64, u32)> {
    if words.len() != 3 || words[0] != OP_MIGRATE_REQ {
        return None;
    }
    Some((words[1], u32::try_from(words[2]).ok()?))
}

pub fn encode_ward_migrate_req(version: u64, shard: u32, ward: u32) -> Vec<u64> {
    vec![OP_WARD_MIGRATE_REQ, version, shard as u64, ward as u64]
}

pub fn decode_ward_migrate_req(words: &[u64]) -> Option<(u64, u32, u32)> {
    if words.len() != 4 || words[0] != OP_WARD_MIGRATE_REQ {
        return None;
    }
    Some((words[1], u32::try_from(words[2]).ok()?, u32::try_from(words[3]).ok()?))
}

pub fn encode_join_req(node: u32) -> Vec<u64> {
    vec![OP_JOIN_REQ, node as u64]
}

pub fn decode_join_req(words: &[u64]) -> Option<u32> {
    if words.len() != 2 || words[0] != OP_JOIN_REQ {
        return None;
    }
    u32::try_from(words[1]).ok()
}

pub fn encode_leave_req(node: u32) -> Vec<u64> {
    vec![OP_LEAVE_REQ, node as u64]
}

pub fn decode_leave_req(words: &[u64]) -> Option<u32> {
    if words.len() != 2 || words[0] != OP_LEAVE_REQ {
        return None;
    }
    u32::try_from(words[1]).ok()
}

pub fn encode_map_req() -> Vec<u64> {
    vec![OP_MAP_REQ]
}

/// The stale-routing NACK: the refuser's current map and what it
/// refused of one packet, so one round trip both re-delivers the
/// messages and heals the sender's directory; the sender drops a repeat
/// by the refusal's `(lane, seq)`.
#[derive(Clone, Debug, PartialEq)]
pub struct BounceMsg {
    pub map: ShardMap,
    pub refused: LoggedPacket,
}

pub fn encode_bounce(b: &BounceMsg) -> Vec<u64> {
    let mut w = vec![OP_BOUNCE];
    w.extend(b.map.encode_words());
    w.extend_from_slice(b.refused.wire());
    w
}

pub fn decode_bounce(words: &[u64]) -> Option<BounceMsg> {
    if words.first() != Some(&OP_BOUNCE) {
        return None;
    }
    let (map, i) = ShardMap::decode_words(words, 1)?;
    let mut op = vec![0];
    op.extend_from_slice(&words[i..]);
    Some(BounceMsg { map, refused: LoggedPacket::adopt(op)? })
}

#[cfg(test)]
mod tests {
    use super::*;

    use gravel_gq::Message;

    fn fwd(seq: u64) -> LoggedPacket {
        let words = [10, 20, 30, 40, 50, 60, 70, 80];
        decode_fwd([&fwd_head(2, 0, seq, words.len())[..], &words].concat()).expect("a forward")
    }

    /// The `FWD` op that carried `p`.
    fn fwd_op(p: &LoggedPacket) -> Vec<u64> {
        [&[OP_FWD][..], p.wire()].concat()
    }

    fn baseline() -> Baseline {
        Baseline {
            epoch: 3,
            cursors: vec![(0, 0, 5), (2, 0, 9)],
            heap: vec![7, 0, 0, 11],
            app: vec![1, 5, 12],
        }
    }

    #[test]
    fn fwd_roundtrips() {
        let p = fwd(4);
        assert_eq!((p.src(), p.lane(), p.seq()), (2, 0, 4));
        assert_eq!(p.words(), [10, 20, 30, 40, 50, 60, 70, 80]);
        assert_eq!(fwd_op(&p)[..FWD_HEAD_WORDS], fwd_head(2, 0, 4, 8));
        assert_eq!(decode_fwd(fwd_op(&p)), Some(p));
    }

    #[test]
    fn ckpt_roundtrips() {
        let b = baseline();
        assert_eq!(decode_ckpt(&encode_ckpt(&b)), Some(b));
    }

    #[test]
    fn recover_resp_roundtrips_with_and_without_baseline() {
        let full = RecoveryLog {
            baseline: Some(baseline()),
            packets: vec![fwd(9), fwd(10)],
            refused: vec![],
        };
        assert_eq!(decode_recover_resp(&encode_recover_resp(&full)), Some(full.clone()));
        let cold = RecoveryLog::default();
        assert_eq!(decode_recover_resp(&encode_recover_resp(&cold)), Some(cold));
        // An elastic ward's refusals ride behind its packets.
        let refused = vec![refusal(9), LoggedPacket::refused(3, 0, 10, &[])];
        let elastic = RecoveryLog { refused, ..full };
        let w = encode_recover_resp(&elastic);
        assert_eq!(decode_recover_resp(&w), Some(elastic));
        let mut zero = encode_recover_resp(&RecoveryLog::default());
        zero.push(0);
        assert_eq!(decode_recover_resp(&zero), None, "an empty refusal section is not canonical");
    }

    fn refusal(seq: u64) -> LoggedPacket {
        LoggedPacket::refused(3, 0, seq, &(0..8).collect::<Vec<_>>())
    }

    #[test]
    fn a_refusal_roundtrips_laid_out_as_a_forward() {
        let r = refusal(5);
        let w = encode_refused(&r);
        assert_eq!(w, [OP_REFUSED, 3, 0, 5, 8, 0, 1, 2, 3, 4, 5, 6, 7], "pinned");
        assert_eq!(w[1..], fwd_op(&r)[1..], "a FWD op's layout");
        assert_eq!(decode_refused(w.clone()), Some(r.clone()));
        for cut in 0..w.len() {
            assert_eq!(decode_refused(w[..cut].to_vec()), None, "cut at {cut}");
        }
        let mut long = w.clone();
        long.push(0);
        assert_eq!(decode_refused(long), None, "trailing words refused");
        assert_eq!(decode_refused(fwd_op(&r)), None, "a FWD is not a refusal");
    }

    #[test]
    fn truncated_and_mangled_encodings_decode_to_none() {
        let w = encode_recover_resp(&RecoveryLog {
            baseline: Some(baseline()),
            packets: vec![fwd(1)],
            refused: vec![],
        });
        for cut in 0..w.len() {
            assert_eq!(decode_recover_resp(&w[..cut]), None, "cut at {cut}");
        }
        let mut extra = w.clone();
        extra.push(0);
        assert_eq!(decode_recover_resp(&extra), None, "trailing junk refused");
        assert_eq!(decode_fwd(encode_ckpt(&baseline())), None, "wrong opcode refused");
        // A length word claiming more payload than present must not panic.
        let mut lying = fwd_op(&fwd(0));
        lying[4] = u64::MAX;
        assert_eq!(decode_fwd(lying), None);
        let op = fwd_op(&fwd(0));
        for cut in 0..op.len() {
            assert_eq!(decode_fwd(op[..cut].to_vec()), None, "cut at {cut}");
        }
        let mut long = op.clone();
        long.push(0);
        assert_eq!(decode_fwd(long), None, "trailing words refused");
        for field in [1, 2] {
            let mut wide = op.clone();
            wide[field] = u64::MAX;
            assert_eq!(decode_fwd(wide), None, "ids must fit their fields");
        }
    }

    /// One fixed log: a baseline with app words, a packet of PUT/INC
    /// runs and a RAW record on lane 1, and a second flow's packet.
    fn pinned_log() -> RecoveryLog {
        let payload = |src: u32, msgs: &[Message]| -> Vec<u8> {
            let words: Vec<u64> = msgs.iter().flat_map(Message::encode).collect();
            gravel_pgas::Packet::from_words(src, 1, &words).payload.to_vec()
        };
        let first = [
            Message::inc(1, 0, 5),
            Message::inc(1, 2, 1),
            Message::put(1, 3, 9),
            Message::active(1, 0, 2, 7),
        ];
        RecoveryLog {
            baseline: Some(Baseline {
                epoch: 3,
                cursors: vec![(0, 0, 5), (2, 1, 9)],
                heap: vec![7, 0, 0, 11],
                app: vec![1, 5, 12],
            }),
            packets: vec![
                LoggedPacket::new(2, 1, 9, &payload(2, &first)),
                LoggedPacket::new(0, 0, 5, &payload(0, &[Message::put(1, 1, 4)])),
            ],
            refused: vec![],
        }
    }

    #[rustfmt::skip]
    const PINNED_FWD: [u64; 18] = [
        1, 2, 1, 9, 13, // OP_FWD, src, lane, seq, nwords
        8589934594, 0, 5, 2, 1, // INC run of 2: (0, 5), (2, 1)
        4294967297, 3, 9, // PUT run of 1: (3, 9)
        4294967299, 2, 1, 2, 7, // RAW run of 1: the active message
    ];
    #[rustfmt::skip]
    const PINNED_CKPT: [u64; 18] = [
        2, 3, // OP_CKPT, epoch
        2, 0, 0, 5, 2, 1, 9, // cursors
        4, 7, 0, 0, 11, // heap
        3, 1, 5, 12, // app words (ready shards)
    ];
    #[rustfmt::skip]
    const PINNED_RECOVER_RESP: [u64; 44] = [
        4, 1, // OP_RECOVER_RESP, has a baseline
        3, 2, 0, 0, 5, 2, 1, 9, 4, 7, 0, 0, 11, 3, 1, 5, 12, // the CKPT body
        2, // packets
        2, 1, 9, 13, 8589934594, 0, 5, 2, 1, 4294967297, 3, 9, 4294967299, 2, 1, 2, 7,
        0, 0, 5, 3, 4294967297, 1, 4,
    ];

    /// The `FWD`, `CKPT` and `RECOVER_RESP` words of [`pinned_log`], as
    /// the codec produced them before the log became one type: the
    /// forwarder's cut budget (`forward.rs::log_budget`) and every peer
    /// of another build read exactly these.
    #[test]
    fn the_log_encodings_are_pinned() {
        let log = pinned_log();
        let b = log.baseline.as_ref().unwrap();
        let p = &log.packets[0];
        let mut fwd = fwd_head(p.src(), p.lane(), p.seq(), p.words().len()).to_vec();
        fwd.extend_from_slice(p.words());
        assert_eq!(fwd, PINNED_FWD);
        assert_eq!(decode_fwd(fwd).as_ref(), Some(p));
        assert_eq!(encode_ckpt(b), PINNED_CKPT);
        assert_eq!(encode_recover_resp(&log), PINNED_RECOVER_RESP);
        assert_eq!(decode_recover_resp(&PINNED_RECOVER_RESP), Some(log));
    }

    /// Every word of every encoding of [`pinned_log`], with one bit
    /// flipped: decodes to `None` or to a log that re-encodes to exactly
    /// the flipped words, never panics. Every truncation is `None`.
    #[test]
    fn every_truncated_or_flipped_word_decodes_safely() {
        let log = pinned_log();
        let b = log.baseline.clone().unwrap();
        let encodings =
            [fwd_op(&log.packets[0]), encode_ckpt(&b), encode_recover_resp(&log)];
        let reencode = |w: &[u64]| -> Option<Vec<u64>> {
            match w.first() {
                Some(&OP_FWD) => decode_fwd(w.to_vec()).map(|p| fwd_op(&p)),
                Some(&OP_CKPT) => decode_ckpt(w).map(|b| encode_ckpt(&b)),
                Some(&OP_RECOVER_RESP) => decode_recover_resp(w).map(|l| encode_recover_resp(&l)),
                _ => None,
            }
        };
        for w in &encodings {
            assert_eq!(reencode(w).as_ref(), Some(w), "decode is the inverse of encode");
            for cut in 0..w.len() {
                assert_eq!(reencode(&w[..cut]), None, "cut at {cut} of {w:?}");
            }
            for i in 0..w.len() {
                for bit in [0, 1, 7, 31, 32, 63] {
                    let mut v = w.clone();
                    v[i] ^= 1 << bit;
                    if let Some(again) = reencode(&v) {
                        assert_eq!(again, v, "word {i} bit {bit}: decode is not canonical");
                    }
                }
            }
        }
    }

    fn topo() -> Topo {
        let map = ShardMap::initial(&[0, 1, 2, 3], 8);
        let (map, moves) = map.rebalance_join(4).unwrap();
        Topo { term: 3, change: Some(TopologyChange::Join(4)), map, moves }
    }

    #[test]
    fn topo_roundtrips_for_every_kind() {
        use TopologyChange::{Evict, Join, Leave};
        for change in [Some(Join(4)), Some(Leave(4)), Some(Evict(4)), None] {
            for term in [1, 7, u64::MAX] {
                let t = Topo { term, change, ..topo() };
                assert_eq!(decode_topo(&encode_topo(&t)), Some(t));
            }
        }
        let w = encode_topo(&topo());
        for cut in 0..w.len() {
            assert_eq!(decode_topo(&w[..cut]), None, "cut at {cut}");
        }
        let mut junk = w.clone();
        junk.push(0);
        assert_eq!(decode_topo(&junk), None);
        let mut bad_kind = w;
        bad_kind[2] = 9;
        assert_eq!(decode_topo(&bad_kind), None);
    }

    #[test]
    fn lease_and_death_vote_roundtrip() {
        let l = encode_lease(9, 2, 14);
        assert_eq!(decode_lease(&l), Some((9, 2, 14)));
        // The vote frames' words, pinned: no term rides them.
        assert_eq!(encode_death_vote_req(5), [OP_DEATH_VOTE_REQ, 5]);
        assert_eq!(encode_death_vote(5, true), [OP_DEATH_VOTE, 5, 1]);
        assert_eq!(decode_death_vote_req(&encode_death_vote_req(5)), Some(5));
        for dead in [true, false] {
            assert_eq!(decode_death_vote(&encode_death_vote(5, dead)), Some((5, dead)));
        }
        // Cut loops: every truncation of every new frame decodes to None.
        for w in [l.clone(), encode_death_vote_req(5), encode_death_vote(5, true)] {
            for cut in 0..w.len() {
                assert_eq!(decode_lease(&w[..cut]), None, "cut at {cut}");
                assert_eq!(decode_death_vote_req(&w[..cut]), None, "cut at {cut}");
                assert_eq!(decode_death_vote(&w[..cut]), None, "cut at {cut}");
            }
        }
        // Cross-op confusion and out-of-range fields are refused.
        assert_eq!(decode_lease(&encode_death_vote(5, true)), None);
        assert_eq!(decode_death_vote(&l), None);
        let mut bad_verdict = encode_death_vote(5, true);
        bad_verdict[2] = 2;
        assert_eq!(decode_death_vote(&bad_verdict), None);
        let mut wide_holder = l.clone();
        wide_holder[2] = u64::MAX;
        assert_eq!(decode_lease(&wide_holder), None);
    }

    /// Seeded byte-level fuzz over the failover-frame and log
    /// decoders: random word soups and bit-mutated valid encodings must
    /// decode to `None` or a well-formed message, never panic. Nightly CI widens the
    /// corpus via `GRAVEL_FUZZ_CASES`.
    #[test]
    fn fuzz_failover_frames_never_panic() {
        let cases: u64 = std::env::var("GRAVEL_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            // SplitMix64: deterministic, dependency-free.
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let decode_all = |w: &[u64]| {
            let _ = decode_fwd(w.to_vec());
            let _ = decode_ckpt(w);
            let _ = decode_recover_resp(w);
            let _ = decode_topo(w);
            let _ = decode_lease(w);
            let _ = decode_death_vote_req(w);
            let _ = decode_death_vote(w);
            let _ = decode_refused(w.to_vec());
            let _ = decode_bounce(w);
        };
        for case in 0..cases {
            // Random soup, sometimes starting with a valid opcode.
            let len = (next() % 40) as usize;
            let mut w: Vec<u64> = (0..len).map(|_| next()).collect();
            if case % 3 == 0 && !w.is_empty() {
                w[0] = [
                    OP_TOPO,
                    OP_LEASE,
                    OP_DEATH_VOTE_REQ,
                    OP_DEATH_VOTE,
                    OP_FWD,
                    OP_CKPT,
                    OP_RECOVER_RESP,
                    OP_REFUSED,
                    OP_BOUNCE,
                ][(next() % 9) as usize];
            }
            decode_all(&w);
            // A valid frame with one word bit-flipped: decodes to None
            // or to a message that re-encodes canonically.
            let mut v = encode_topo(&topo());
            let i = (next() % v.len() as u64) as usize;
            v[i] ^= 1u64 << (next() % 64);
            if let Some(t) = decode_topo(&v) {
                assert_eq!(encode_topo(&t), v, "decode is the inverse of encode");
            }
            decode_all(&v);
        }
    }

    #[test]
    fn migrate_and_small_ops_roundtrip() {
        let m = MigrateMsg { version: 7, shard: 3, words: vec![5, 0, 9] };
        assert_eq!(decode_migrate(&encode_migrate(&m)), Some(m.clone()));
        let mut lying = encode_migrate(&m);
        lying[3] = u64::MAX;
        assert_eq!(decode_migrate(&lying), None);
        assert_eq!(decode_migrate_ack(&encode_migrate_ack(7, 3)), Some((7, 3)));
        assert_eq!(decode_migrate_req(&encode_migrate_req(2, 11)), Some((2, 11)));
        assert_eq!(
            decode_ward_migrate_req(&encode_ward_migrate_req(2, 11, 5)),
            Some((2, 11, 5))
        );
        assert_eq!(decode_join_req(&encode_join_req(4)), Some(4));
        assert_eq!(decode_leave_req(&encode_leave_req(5)), Some(5));
        assert_eq!(decode_join_req(&encode_leave_req(5)), None, "wrong op");
        assert_eq!(encode_map_req(), vec![OP_MAP_REQ]);
    }

    #[test]
    fn bounce_roundtrips_and_refuses_partial_quads() {
        let b = BounceMsg { map: ShardMap::initial(&[0, 1], 4), refused: refusal(17) };
        assert_eq!(decode_bounce(&encode_bounce(&b)), Some(b.clone()));
        let mut w = encode_bounce(&b);
        let map_words = b.map.encode_words().len();
        assert_eq!(w[1 + map_words..1 + map_words + 4], [3, 0, 17, 8], "src, lane, seq, words");
        w.pop();
        assert_eq!(decode_bounce(&w), None, "a short refusal refused");
        for cut in 0..w.len() {
            assert_eq!(decode_bounce(&w[..cut]), None, "cut at {cut}");
        }
    }
}

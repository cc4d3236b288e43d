//! The elastic data plane's socket-free halves (DESIGN.md §16), one copy
//! each for `gravel-node` and [`ha::sim`](crate::ha::sim): the
//! stale-routing gate ([`gate`]), the sender's per-destination queues
//! ([`Packetizer`]) and its guard against a repeated bounce
//! ([`Requeued`]).

use std::collections::{HashMap, VecDeque};

use gravel_gq::{BufferPool, Command, Message};
use gravel_pgas::{Directory, Packet, Route, ShardMap};

/// Split `pkt` into what node `me` applies and the quads it refuses: a
/// PUT or INC stays only if `me` owns its address under `map` and
/// `served` its shard; anything else goes on to the apply path. `None`
/// if nothing is refused, else the kept messages under the packet's
/// flow identity (src, lane, seq) and the refused words.
pub fn gate(
    me: u32,
    map: &ShardMap,
    served: impl Fn(u32) -> bool,
    pkt: &Packet,
) -> Option<(Packet, Vec<u64>)> {
    let (mut kept, mut refused) = (Vec::new(), Vec::new());
    for words in pkt.messages() {
        let keep = match Message::decode(words) {
            Some(m) if matches!(m.command, Command::Put | Command::Inc) => {
                map.owner_of(m.addr) == me && served(map.shard_of(m.addr))
            }
            _ => true,
        };
        (if keep { &mut kept } else { &mut refused }).extend(words);
    }
    if refused.is_empty() {
        return None;
    }
    let mut repl = Packet::from_words(pkt.src, pkt.dest, &kept);
    (repl.lane, repl.seq) = (pkt.lane, pkt.seq);
    Some((repl, refused))
}

/// A sender's INCs routed and not yet cut into packets: per destination,
/// `(address, value)` pairs in stream order. Over an elastic directory
/// an address is a global index, so what is queued is routed again when
/// the map version moves (a fixed directory never moves).
pub struct Packetizer {
    queues: Vec<VecDeque<(u64, u64)>>,
    /// The map version the queues were routed under.
    routed_at: u64,
}

impl Packetizer {
    pub fn new(nodes: usize) -> Self {
        Packetizer { queues: vec![VecDeque::new(); nodes], routed_at: 0 }
    }

    /// Queue `(global index, value)` INCs for their owners under `dir`;
    /// returns how many.
    pub fn enqueue(&mut self, dir: &Directory, pairs: impl IntoIterator<Item = (u64, u64)>) -> u64 {
        self.reroute(dir, []);
        let mut n = 0;
        for (g, value) in pairs {
            self.push(dir, g, value);
            n += 1;
        }
        n
    }

    /// Route what is queued again if `dir`'s map moved, then queue the
    /// `bounced` quads for their owners.
    pub fn reroute(&mut self, dir: &Directory, bounced: impl IntoIterator<Item = [u64; 4]>) {
        let version = dir.version();
        if version != std::mem::replace(&mut self.routed_at, version) {
            let queued: Vec<_> = self.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
            for (g, value) in queued {
                self.push(dir, g, value);
            }
        }
        for m in bounced.into_iter().filter_map(Message::decode) {
            self.push(dir, m.addr, m.value);
        }
    }

    fn push(&mut self, dir: &Directory, g: u64, value: u64) -> usize {
        let Route { dest, offset } = dir.route(g as usize);
        self.queues[dest as usize].push_back((offset, value));
        dest as usize
    }

    /// Route pairs from `stream` only until a destination that is `open`
    /// — and a member of `dir`'s map — holds a full packet of
    /// `msgs_per_packet` pairs, or the stream runs dry; returns how many
    /// it routed. Nothing is routed while no such destination exists: a
    /// slot outside the membership never receives a pair, so waiting
    /// for it to fill would route the whole stream up front.
    pub fn fill(
        &mut self,
        dir: &Directory,
        stream: &mut impl Iterator<Item = (u64, u64)>,
        msgs_per_packet: usize,
        open: impl Fn(u32) -> bool,
    ) -> u64 {
        self.reroute(dir, []);
        let map = dir.current_map();
        let waits: Vec<bool> = (0..self.queues.len() as u32)
            .map(|d| open(d) && map.as_ref().is_none_or(|m| m.is_member(d)))
            .collect();
        let full = |q: &VecDeque<_>| q.len() >= msgs_per_packet;
        if !waits.contains(&true) || self.queues.iter().zip(&waits).any(|(q, &w)| w && full(q)) {
            return 0;
        }
        let mut n = 0;
        for (g, value) in stream {
            let dest = self.push(dir, g, value);
            n += 1;
            if waits[dest] && full(&self.queues[dest]) {
                break;
            }
        }
        n
    }

    /// The destinations it queues for.
    pub fn slots(&self) -> u32 {
        self.queues.len() as u32
    }

    /// Pairs queued for `dest`.
    pub fn queued(&self, dest: u32) -> usize {
        self.queues[dest as usize].len()
    }

    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// The next packet from `src` to `dest`: the head `msgs_per_packet`
    /// pairs of its queue as one run of INC records, in a buffer from
    /// `pool` — or, once the stream is `exhausted`, whatever short tail
    /// is left; `None` if there is no such packet yet. Cut only this
    /// way, packet `k` of a flow over a fixed directory is the `k`-th
    /// full slice of the stream towards its destination, however the
    /// routing and the cutting interleave.
    pub fn cut(
        &mut self,
        src: u32,
        dest: u32,
        msgs_per_packet: usize,
        exhausted: bool,
        pool: Option<&BufferPool>,
    ) -> Option<Packet> {
        let queue = &mut self.queues[dest as usize];
        let n = queue.len().min(msgs_per_packet);
        (n == msgs_per_packet || (exhausted && n > 0))
            .then(|| Packet::from_incs_in(src, dest, queue.drain(..n), pool))
    }
}

/// A sender's guard against re-queueing one refusal twice: the highest
/// refused `seq` it re-queued per `(receiver, lane)`. A receiver refuses
/// in sequence order over one FIFO stream, so a bounce at or below it is
/// a repeat — one a restarted receiver re-sends from its keeper's log.
#[derive(Default)]
pub struct Requeued {
    highest: HashMap<(u32, u32), u64>,
}

impl Requeued {
    /// Whether `receiver`'s bounce of packet `seq` on `lane` is new;
    /// records it if so.
    pub fn fresh(&mut self, receiver: u32, lane: u32, seq: u64) -> bool {
        if self.highest.get(&(receiver, lane)).is_some_and(|&h| seq <= h) {
            return false;
        }
        self.highest.insert((receiver, lane), seq);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quads(p: &Packet) -> Vec<[u64; 4]> {
        p.messages().collect()
    }

    #[test]
    fn the_gate_keeps_owned_served_puts_and_incs_and_everything_else() {
        let map = ShardMap::initial(&[0, 1], 4);
        // Shards 0 and 2 are node 0's; it serves shard 0 only.
        let (mine, unserved) = (Message::inc(0, 4, 1), Message::put(0, 2, 9));
        let (theirs, get) = (Message::inc(0, 1, 7), Message::get(0, 1, 3, 50));
        let words: Vec<u64> =
            [mine, unserved, theirs, get].iter().flat_map(Message::encode).collect();
        let mut pkt = Packet::from_words(1, 0, &words);
        (pkt.lane, pkt.seq) = (0, 41);
        assert_eq!(map.owner_of(4), 0);
        let (kept, refused) = gate(0, &map, |s| s == 0, &pkt).expect("two refused");
        assert_eq!((kept.src, kept.dest, kept.lane, kept.seq), (1, 0, 0, 41));
        assert_eq!(quads(&kept), [mine.encode(), get.encode()]);
        assert_eq!(refused, [unserved.encode(), theirs.encode()].concat());
        assert!(gate(0, &map, |_| true, &Packet::from_words(1, 0, &mine.encode())).is_none());
    }

    #[test]
    fn queued_pairs_follow_the_map_and_bounces_join_their_owner() {
        let first = ShardMap::initial(&[0, 1], 4);
        let dir = Directory::elastic(16, first.clone());
        let mut q = Packetizer::new(2);
        assert_eq!(q.enqueue(&dir, (0..8).map(|g| (g, 1))), 8);
        assert_eq!((q.queued(0), q.queued(1)), (4, 4));
        // Every shard moves to node 1: what is queued is routed again.
        let owners = vec![1; 4];
        let next = ShardMap { version: 2, owners, members: first.members.clone() };
        assert_eq!(dir.install_fenced(next, 0), gravel_pgas::FencedInstall::Installed);
        q.reroute(&dir, [Message::inc(0, 9, 5).encode()]);
        assert_eq!((q.queued(0), q.queued(1)), (0, 9));
        let pkt = q.cut(0, 1, 6, false, None).expect("a packet");
        assert_eq!(pkt.msg_count(), 6);
        assert!(q.cut(0, 1, 6, false, None).is_none(), "a short tail waits for the stream");
        assert_eq!(q.cut(0, 1, 6, true, None).map(|p| p.msg_count()), Some(3));
        assert!(q.cut(0, 1, 6, true, None).is_none() && q.is_empty());
    }

    #[test]
    fn the_stream_is_routed_only_until_an_open_member_fills_a_packet() {
        // Slot 2 is spare capacity: no shard, so no pair ever goes there.
        let dir = Directory::elastic(16, ShardMap::initial(&[0, 1], 4));
        let mut q = Packetizer::new(3);
        let mut stream = (0..16).map(|g| (g, 1));
        assert_eq!(q.fill(&dir, &mut stream, 3, |d| d == 2), 0, "only the spare is open");
        // Indices alternate between the members: node 1's third pair is
        // the sixth of the stream.
        assert_eq!(q.fill(&dir, &mut stream, 3, |_| true), 5);
        assert_eq!((q.queued(0), q.queued(1)), (3, 2));
        assert_eq!(q.fill(&dir, &mut stream, 3, |_| true), 0, "node 0 is full already");
        assert!(q.cut(0, 0, 3, false, None).is_some());
        assert_eq!(q.fill(&dir, &mut stream, 3, |d| d == 1), 1);
        assert_eq!((q.queued(0), q.queued(1)), (0, 3));
        assert!(q.cut(0, 1, 3, false, None).is_some());
        assert_eq!(q.fill(&dir, &mut stream, 100, |_| true), 10, "the stream runs dry");
        assert_eq!(stream.next(), None);
    }

    #[test]
    fn a_bounce_at_or_below_the_highest_requeued_seq_is_a_repeat() {
        let mut r = Requeued::default();
        assert!(r.fresh(2, 0, 5));
        assert!(!r.fresh(2, 0, 5), "the same refusal re-sent");
        assert!(!r.fresh(2, 0, 3), "an older one");
        assert!(r.fresh(3, 0, 3) && r.fresh(2, 1, 0), "another receiver or lane");
        assert!(r.fresh(2, 0, 6));
    }
}

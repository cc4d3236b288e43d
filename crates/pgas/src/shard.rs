//! Elastic shard directory: the layer that makes the cluster never a
//! fixed N.
//!
//! The paper (and the seed runtime) bakes the node count into address
//! translation: `dest = owner(addr)` is a pure function of a fixed
//! [`Partition`]. This module replaces that with a *versioned,
//! monotonic* [`ShardMap`]: the global index space is split into a
//! fixed number of shards (`addr % nshards`), and each shard names its
//! current owner. Topology change is then a map edit — join, leave,
//! evict — that moves whole shards between members, plus a data
//! migration of exactly the moved shards' heap words.
//!
//! Two invariants carry all the correctness weight (DESIGN.md §16):
//!
//! 1. **Monotonic versions.** Every rebalance bumps `version` by one;
//!    a node never installs a map older than the one it holds
//!    ([`Directory::install_fenced`] refuses). In-flight packets routed under
//!    a stale map are detected by *ownership*, not by version stamps —
//!    the receiver checks `owner_of(addr) == me` before applying — so
//!    late frames can never corrupt a moved shard.
//! 2. **Minimal moves.** `rebalance_join` moves only the shards the
//!    joiner must take (balanced load, steal-from-richest); a
//!    `rebalance_leave` moves only the leaver's shards. Unaffected
//!    shards keep their owner *and their data* — traffic on them never
//!    pauses.
//!
//! The elastic address scheme keeps local offsets stable across
//! resharding: in elastic mode the local heap offset of global index
//! `g` *is* `g` (heaps are provisioned at the full table size, shards
//! interleave through them cyclically). Migration therefore copies
//! words at offsets `{ g : g % nshards == shard }` verbatim, and a
//! bounced message re-routes by its `addr` alone.

use crate::partition::Partition;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Default shard count: enough granularity to balance small clusters
/// within one shard of ideal, small enough that a full map rides in
/// one control frame.
pub const DEFAULT_SHARDS: usize = 64;

/// One shard's change of owner inside a rebalance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMove {
    /// Shard index in `[0, nshards)`.
    pub shard: u32,
    /// Owner under the old map (migration source).
    pub from: u32,
    /// Owner under the new map (migration target).
    pub to: u32,
}

/// A monotonically versioned shard → owner map over a fixed shard
/// count and a dynamic member set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Monotonic map version; bumped by every rebalance. The initial
    /// map is version 1 so that "no map yet" can be version 0.
    pub version: u64,
    /// Owner node id per shard.
    pub owners: Vec<u32>,
    /// Active member ids, sorted ascending.
    pub members: Vec<u32>,
}

impl ShardMap {
    /// The initial map: `nshards` shards dealt round-robin over the
    /// (sorted, deduplicated) members, version 1.
    pub fn initial(members: &[u32], nshards: usize) -> Self {
        assert!(nshards > 0, "need at least one shard");
        let mut members: Vec<u32> = members.to_vec();
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "need at least one member");
        let owners = (0..nshards).map(|s| members[s % members.len()]).collect();
        ShardMap { version: 1, owners, members }
    }

    /// Shard count.
    pub fn nshards(&self) -> usize {
        self.owners.len()
    }

    /// The shard holding global index `g`.
    pub fn shard_of(&self, g: u64) -> u32 {
        (g % self.owners.len() as u64) as u32
    }

    /// The member owning global index `g`.
    pub fn owner_of(&self, g: u64) -> u32 {
        self.owners[self.shard_of(g) as usize]
    }

    /// Route global index `g` under this map: to its owner, at offset
    /// `g` (elastic heaps are addressed by global index).
    pub fn route(&self, g: u64) -> Route {
        Route { dest: self.owner_of(g), offset: g }
    }

    /// Words of shard `s` in a `table`-word heap: the globals `g <
    /// table` with `g % nshards == s`, strided by `nshards`.
    pub fn shard_words(&self, table: usize, s: u32) -> usize {
        table.saturating_sub(s as usize).div_ceil(self.nshards())
    }

    /// The member owning shard `s`.
    pub fn owner_of_shard(&self, s: u32) -> u32 {
        self.owners[s as usize]
    }

    /// Whether `node` is an active member.
    pub fn is_member(&self, node: u32) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// Shards currently owned by `node`.
    pub fn shards_of(&self, node: u32) -> Vec<u32> {
        (0..self.owners.len() as u32)
            .filter(|&s| self.owners[s as usize] == node)
            .collect()
    }

    /// A new map admitting `node`, with the minimal move set that
    /// rebalances shard counts to within one of ideal: the joiner
    /// steals from the richest members until it holds `⌊S/(m+1)⌋`
    /// shards. Returns `None` if `node` is already a member.
    pub fn rebalance_join(&self, node: u32) -> Option<(ShardMap, Vec<ShardMove>)> {
        if self.is_member(node) {
            return None;
        }
        let mut next = self.clone();
        next.version += 1;
        let at = next.members.partition_point(|&m| m < node);
        next.members.insert(at, node);
        let take = next.owners.len() / next.members.len();
        let mut moves = Vec::with_capacity(take);
        for _ in 0..take {
            // Steal one shard from the currently richest member;
            // among equals, the lowest id loses its highest shard —
            // deterministic on every node that computes the same edit.
            let richest = *next
                .members
                .iter()
                .filter(|&&m| m != node)
                .max_by_key(|&&m| (next.shards_of(m).len(), std::cmp::Reverse(m)))
                .expect("join always has a prior member");
            let shard = *next.shards_of(richest).last().expect("richest owns a shard");
            next.owners[shard as usize] = node;
            moves.push(ShardMove { shard, from: richest, to: node });
        }
        Some((next, moves))
    }

    /// A new map expelling `node` (leave or evict), its shards dealt
    /// round-robin to the survivors poorest-first. Returns `None` if
    /// `node` is not a member or is the last one.
    pub fn rebalance_leave(&self, node: u32) -> Option<(ShardMap, Vec<ShardMove>)> {
        if !self.is_member(node) || self.members.len() == 1 {
            return None;
        }
        let mut next = self.clone();
        next.version += 1;
        next.members.retain(|&m| m != node);
        let mut moves = Vec::new();
        for shard in self.shards_of(node) {
            let poorest = *next
                .members
                .iter()
                .min_by_key(|&&m| (next.shards_of(m).len(), m))
                .expect("survivors exist");
            next.owners[shard as usize] = poorest;
            moves.push(ShardMove { shard, from: node, to: poorest });
        }
        Some((next, moves))
    }

    /// Flat-word encoding for control frames:
    /// `[version, nmembers, members…, nshards, owners…]`.
    pub fn encode_words(&self) -> Vec<u64> {
        let mut w = Vec::with_capacity(2 + self.members.len() + 1 + self.owners.len());
        w.push(self.version);
        w.push(self.members.len() as u64);
        w.extend(self.members.iter().map(|&m| m as u64));
        w.push(self.owners.len() as u64);
        w.extend(self.owners.iter().map(|&o| o as u64));
        w
    }

    /// Total-on-decode inverse of [`encode_words`](Self::encode_words):
    /// returns the map and the index one past it, or `None` for any
    /// malformed input (never panics — control frames come off the
    /// wire).
    pub fn decode_words(words: &[u64], at: usize) -> Option<(ShardMap, usize)> {
        let version = *words.get(at)?;
        let nm = usize::try_from(*words.get(at + 1)?).ok()?;
        if nm == 0 || nm > 1 << 16 {
            return None;
        }
        let mut i = at + 2;
        let mut members = Vec::with_capacity(nm);
        for _ in 0..nm {
            members.push(u32::try_from(*words.get(i)?).ok()?);
            i += 1;
        }
        if members.windows(2).any(|w| w[0] >= w[1]) {
            return None; // must be sorted + unique
        }
        let ns = usize::try_from(*words.get(i)?).ok()?;
        if ns == 0 || ns > 1 << 20 {
            return None;
        }
        i += 1;
        let mut owners = Vec::with_capacity(ns);
        for _ in 0..ns {
            let o = u32::try_from(*words.get(i)?).ok()?;
            if members.binary_search(&o).is_err() {
                return None; // every owner must be a member
            }
            owners.push(o);
            i += 1;
        }
        Some((ShardMap { version, owners, members }, i))
    }
}

/// One routed element: which node to send to and at which local heap
/// offset it lives there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Owning node id.
    pub dest: u32,
    /// Offset in the owner's local symmetric heap.
    pub offset: u64,
}

enum DirInner {
    /// Static cluster: the classic fixed [`Partition`] (block/cyclic
    /// layout, compact local offsets).
    Fixed(Partition),
    /// Elastic cluster: a swappable [`ShardMap`]; local offsets are
    /// global indices (heaps provisioned at table size) so they stay
    /// stable across resharding. `term` is the highest coordinator
    /// fencing term observed on an installed-or-attempted map — the
    /// floor below which [`Directory::install_fenced`] rejects frames
    /// outright.
    Elastic { total: usize, map: RwLock<Arc<ShardMap>>, term: AtomicU64 },
}

/// The one address-to-node mapping every producer routes through —
/// apps, the aggregator, and the multi-process sender alike. Fixed
/// directories are a zero-cost view over a [`Partition`]; elastic
/// directories add one `RwLock` read per *packet-sized batch* (callers
/// snapshot the map with [`current_map`](Directory::current_map) for
/// per-message loops).
pub struct Directory {
    inner: DirInner,
}

impl Directory {
    /// A static directory over a fixed partition.
    pub fn fixed(part: Partition) -> Self {
        Directory { inner: DirInner::Fixed(part) }
    }

    /// An elastic directory over `total` global elements, starting at
    /// `map`.
    pub fn elastic(total: usize, map: ShardMap) -> Self {
        Directory {
            inner: DirInner::Elastic {
                total,
                map: RwLock::new(Arc::new(map)),
                term: AtomicU64::new(0),
            },
        }
    }

    /// Route global index `g` to its owner and local offset.
    pub fn route(&self, g: usize) -> Route {
        match &self.inner {
            DirInner::Fixed(p) => Route { dest: p.owner(g) as u32, offset: p.local_offset(g) },
            DirInner::Elastic { total, map, .. } => {
                debug_assert!(g < *total, "global index {g} out of {total}");
                map.read().unwrap_or_else(|p| p.into_inner()).route(g as u64)
            }
        }
    }

    /// Global element count.
    pub fn total(&self) -> usize {
        match &self.inner {
            DirInner::Fixed(p) => p.total(),
            DirInner::Elastic { total, .. } => *total,
        }
    }

    /// The current map version (0 for fixed directories, which never
    /// change).
    pub fn version(&self) -> u64 {
        match &self.inner {
            DirInner::Fixed(_) => 0,
            DirInner::Elastic { map, .. } => {
                map.read().unwrap_or_else(|p| p.into_inner()).version
            }
        }
    }

    /// Snapshot the elastic map (None for fixed directories). One lock
    /// read; hold the `Arc` across a message loop.
    pub fn current_map(&self) -> Option<Arc<ShardMap>> {
        match &self.inner {
            DirInner::Fixed(_) => None,
            DirInner::Elastic { map, .. } => {
                Some(map.read().unwrap_or_else(|p| p.into_inner()).clone())
            }
        }
    }

    /// The highest coordinator term observed via
    /// [`install_fenced`](Self::install_fenced) (0 for fixed
    /// directories and before any term-stamped frame arrives).
    pub fn term(&self) -> u64 {
        match &self.inner {
            DirInner::Fixed(_) => 0,
            DirInner::Elastic { term, .. } => term.load(Ordering::Acquire),
        }
    }

    /// Term-fenced install (DESIGN.md §18). The term is the map's
    /// *provenance* — which coordinator lease issued it — and gates the
    /// frame before the version is even looked at:
    ///
    /// - `term` below the highest observed → [`FencedInstall::Stale`];
    ///   the frame is from a fenced-off old coordinator and must be
    ///   ignored wholesale (no re-acks, no migration bookkeeping).
    /// - otherwise the observed-term floor rises to `term`, and the map
    ///   installs under the usual monotonic-version rule:
    ///   [`FencedInstall::Installed`] if `new.version` is higher,
    ///   [`FencedInstall::Current`] if not (a takeover re-broadcast of
    ///   a map this node already holds — still a *valid* frame whose
    ///   migration side effects the caller should replay idempotently).
    ///
    /// Versions stay monotonic **across** terms: a higher term never
    /// licenses a version regression, so a successor that missed the
    /// old coordinator's last commit cannot roll this node's map back.
    pub fn install_fenced(&self, new: ShardMap, new_term: u64) -> FencedInstall {
        match &self.inner {
            DirInner::Fixed(_) => FencedInstall::Current,
            DirInner::Elastic { map, term, .. } => {
                let mut cur = map.write().unwrap_or_else(|p| p.into_inner());
                // The term floor only moves under the map write lock, so
                // fencing and installation are atomic together.
                if new_term < term.load(Ordering::Acquire) {
                    return FencedInstall::Stale;
                }
                term.store(new_term, Ordering::Release);
                if new.version <= cur.version {
                    return FencedInstall::Current;
                }
                *cur = Arc::new(new);
                FencedInstall::Installed
            }
        }
    }
}

/// Outcome of a [`Directory::install_fenced`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FencedInstall {
    /// The frame's term is below the observed floor: it came from a
    /// fenced-off coordinator. Drop it entirely.
    Stale,
    /// Term accepted (floor possibly raised) but the map is not newer
    /// than the one held — e.g. a takeover re-broadcast. Process the
    /// frame's idempotent side effects; the routing map is unchanged.
    Current,
    /// Term accepted and the newer map is now live.
    Installed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Layout;

    #[test]
    fn shard_words_counts_the_stride() {
        // table 10, 4 shards: shard 0 owns {0,4,8}, 1 owns {1,5,9},
        // 2 owns {2,6}, 3 owns {3,7}.
        let m = ShardMap::initial(&[0], 4);
        assert_eq!([0, 1, 2, 3].map(|s| m.shard_words(10, s)), [3, 3, 2, 2]);
        // Degenerate: more shards than words.
        assert_eq!(ShardMap::initial(&[0], 8).shard_words(3, 5), 0);
        let m = ShardMap::initial(&[0], 64);
        assert_eq!((0..64).map(|s| m.shard_words(513, s)).sum::<usize>(), 513);
    }

    #[test]
    fn initial_map_deals_round_robin_and_is_version_1() {
        let m = ShardMap::initial(&[0, 1, 2, 3], 8);
        assert_eq!(m.version, 1);
        assert_eq!(m.owners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert!(m.is_member(2));
        assert!(!m.is_member(4));
        assert_eq!(m.owner_of(5), m.owner_of_shard(5));
        assert_eq!(m.shard_of(13), 5);
    }

    #[test]
    fn join_moves_minimally_and_balances() {
        let m = ShardMap::initial(&[0, 1, 2, 3], 64);
        let (next, moves) = m.rebalance_join(4).unwrap();
        assert_eq!(next.version, 2);
        assert!(next.is_member(4));
        // The joiner takes exactly ⌊64/5⌋ = 12 shards; nothing else moves.
        assert_eq!(moves.len(), 12);
        assert_eq!(next.shards_of(4).len(), 12);
        for mv in &moves {
            assert_eq!(mv.to, 4);
            assert_eq!(m.owner_of_shard(mv.shard), mv.from);
            assert_eq!(next.owner_of_shard(mv.shard), 4);
        }
        // Unaffected shards kept their owner.
        let moved: Vec<u32> = moves.iter().map(|mv| mv.shard).collect();
        for s in 0..64u32 {
            if !moved.contains(&s) {
                assert_eq!(m.owner_of_shard(s), next.owner_of_shard(s));
            }
        }
        // Balance: every member within one shard of ideal.
        for &mem in &next.members {
            let n = next.shards_of(mem).len();
            assert!((12..=13).contains(&n), "member {mem} owns {n}");
        }
        // Joining twice is refused.
        assert!(next.rebalance_join(4).is_none());
    }

    #[test]
    fn leave_moves_only_the_leaver_and_evict_of_nonmember_is_refused() {
        let m = ShardMap::initial(&[0, 1, 2, 3], 64);
        let (next, moves) = m.rebalance_leave(2).unwrap();
        assert_eq!(next.version, 2);
        assert!(!next.is_member(2));
        assert_eq!(moves.len(), 16, "exactly the leaver's shards move");
        assert!(moves.iter().all(|mv| mv.from == 2 && mv.to != 2));
        for &mem in &next.members {
            let n = next.shards_of(mem).len();
            assert!((21..=22).contains(&n), "member {mem} owns {n}");
        }
        assert!(m.rebalance_leave(9).is_none(), "non-member");
        let solo = ShardMap::initial(&[5], 8);
        assert!(solo.rebalance_leave(5).is_none(), "last member");
    }

    #[test]
    fn grow_then_shrink_returns_to_a_balanced_four_way_map() {
        let mut m = ShardMap::initial(&[0, 1, 2, 3], 64);
        let (m5, _) = m.rebalance_join(4).unwrap();
        let (m6, _) = m5.rebalance_join(5).unwrap();
        assert_eq!(m6.members, vec![0, 1, 2, 3, 4, 5]);
        let (m5b, _) = m6.rebalance_leave(4).unwrap();
        let (m4, _) = m5b.rebalance_leave(5).unwrap();
        assert_eq!(m4.version, 5);
        assert_eq!(m4.members, vec![0, 1, 2, 3]);
        for mem in 0..4u32 {
            assert_eq!(m4.shards_of(mem).len(), 16);
        }
        m = m4;
        assert_eq!(m.owners.len(), 64);
    }

    #[test]
    fn map_words_roundtrip_and_malformed_decodes_refuse() {
        let m = ShardMap::initial(&[3, 0, 7], 16);
        let w = m.encode_words();
        let (back, end) = ShardMap::decode_words(&w, 0).unwrap();
        assert_eq!(back, m);
        assert_eq!(end, w.len());
        for cut in 0..w.len() {
            assert!(ShardMap::decode_words(&w[..cut], 0).is_none(), "cut {cut}");
        }
        // An owner outside the member set is refused.
        let mut bad = w.clone();
        let last = bad.len() - 1;
        bad[last] = 99;
        assert!(ShardMap::decode_words(&bad, 0).is_none());
        // Unsorted members are refused.
        let mut unsorted = w;
        unsorted.swap(2, 3);
        assert!(ShardMap::decode_words(&unsorted, 0).is_none());
    }

    #[test]
    fn fixed_directory_matches_the_partition() {
        let p = Partition::new(100, 4, Layout::Cyclic);
        let d = Directory::fixed(p);
        for g in 0..100 {
            let r = d.route(g);
            assert_eq!(r.dest as usize, p.owner(g));
            assert_eq!(r.offset, p.local_offset(g));
        }
        assert_eq!(d.version(), 0);
        assert!(d.current_map().is_none());
        let install = d.install_fenced(ShardMap::initial(&[0], 4), 0);
        assert_eq!(install, FencedInstall::Current, "fixed never reshards");
    }

    #[test]
    fn elastic_directory_routes_by_map_and_installs_monotonically() {
        let d = Directory::elastic(100, ShardMap::initial(&[0, 1, 2, 3], 8));
        assert_eq!(d.version(), 1);
        let r = d.route(13);
        assert_eq!(r.offset, 13, "elastic offsets are global indices");
        assert_eq!(r.dest, (13 % 8) % 4, "shard 5 deals to member 1");
        let m = d.current_map().unwrap();
        let (next, _) = m.rebalance_join(4).unwrap();
        let install = |map| d.install_fenced(map, 0) == FencedInstall::Installed;
        assert!(install(next.clone()));
        assert_eq!(d.version(), 2);
        assert!(!install(next), "equal version refused");
        assert!(!install(ShardMap::initial(&[0, 1], 8)), "stale version refused");
        // Routing reflects the installed map.
        let m2 = d.current_map().unwrap();
        for g in 0..100u64 {
            assert_eq!(d.route(g as usize).dest, m2.owner_of(g));
        }
    }

    #[test]
    fn fenced_install_rejects_old_terms_and_keeps_versions_monotonic() {
        let d = Directory::elastic(100, ShardMap::initial(&[0, 1, 2, 3], 8));
        assert_eq!(d.term(), 0, "no term-stamped frame seen yet");

        let m1 = d.current_map().unwrap();
        let (v2, _) = m1.rebalance_join(4).unwrap();
        assert_eq!(d.install_fenced(v2.clone(), 1), FencedInstall::Installed);
        assert_eq!((d.term(), d.version()), (1, 2));

        // Takeover: the successor re-broadcasts the same map under term 2.
        assert_eq!(
            d.install_fenced(v2.clone(), 2),
            FencedInstall::Current,
            "same map under a newer term: valid frame, no map change"
        );
        assert_eq!(d.term(), 2, "the floor still rises");

        // The fenced-off old coordinator resurrects and re-sends v2 —
        // or even a newer-looking v3 — under its dead term 1.
        assert_eq!(d.install_fenced(v2.clone(), 1), FencedInstall::Stale);
        let (v3, _) = v2.rebalance_leave(4).unwrap();
        assert_eq!(d.install_fenced(v3.clone(), 1), FencedInstall::Stale);
        assert_eq!((d.term(), d.version()), (2, 2), "nothing moved");

        // A higher term never licenses a version rollback.
        assert_eq!(
            d.install_fenced(ShardMap::initial(&[0, 1], 8), 5),
            FencedInstall::Current,
            "version 1 under term 5: term accepted, map refused"
        );
        assert_eq!((d.term(), d.version()), (5, 2));

        // And the current term still installs newer maps.
        assert_eq!(d.install_fenced(v3, 5), FencedInstall::Installed);
        assert_eq!((d.term(), d.version()), (5, 3));
    }

    #[test]
    fn fixed_directories_ignore_fencing() {
        let d = Directory::fixed(Partition::new(64, 4, Layout::Block));
        assert_eq!(d.term(), 0);
        assert_eq!(
            d.install_fenced(ShardMap::initial(&[0, 1], 8), 7),
            FencedInstall::Current
        );
        assert_eq!(d.term(), 0, "fixed directories never change");
    }

    #[test]
    fn repeated_join_leave_cycles_keep_every_shard_owned_by_a_member() {
        let mut m = ShardMap::initial(&[0, 1], 32);
        for round in 0..20u32 {
            let candidate = 2 + (round % 5);
            m = if m.is_member(candidate) {
                m.rebalance_leave(candidate).map(|(n, _)| n).unwrap_or(m)
            } else {
                m.rebalance_join(candidate).map(|(n, _)| n).unwrap_or(m)
            };
            for s in 0..32u32 {
                assert!(m.is_member(m.owner_of_shard(s)), "round {round} shard {s}");
            }
        }
    }
}

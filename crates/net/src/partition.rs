//! Declarative link faults — partitions, one-way drops and per-link
//! delays — and the one schedule both fabrics judge them by.
//!
//! [`ChaosPlan`](crate::ChaosPlan) schedules *process* faults;
//! [`FaultConfig`](crate::FaultConfig)'s probabilities roll *per-frame*
//! faults. A [`LinkFault`] is the only way to say a link is down or
//! slow: a **structured connectivity failure**, evaluated against
//! wall-clock time since its [`LinkSchedule`] was armed:
//!
//! - [`LinkFault::Partition`] — a symmetric split: during the window,
//!   no frame crosses between the island and the rest of the cluster
//!   in either direction. Both sides keep talking internally. A run of
//!   short windows is an intermittent outage.
//! - [`LinkFault::OneWay`] — an asymmetric drop: `src → dest` frames
//!   die, `dest → src` frames pass. This is the classic half-broken
//!   link that makes naive failure detectors declare a live node dead
//!   on one side only.
//! - [`LinkFault::Delay`] — every `src → dest` frame is held back by
//!   `base` plus a seeded jitter in `[0, jitter)`, which also reorders
//!   it against frames on other links.
//!
//! One schedule serves both fabrics from each one's outbound chokepoint
//! (socket `write_to_peer`, `UnreliableTransport`'s send paths), so a
//! partition swallows every traffic class — data, acks, heartbeats,
//! control frames — like a cable pull; in-process, only data frames are
//! ever held. A held frame is judged again when it comes due, so one
//! released into a window dies like a queue drained onto a dead link.
//! Each drop and hold is counted once, into [`FaultStats`]'
//! `partition_drops`, `oneway_drops` and `delayed`.
//!
//! Multi-process harnesses hand every node the same textual spec
//! ([`LinkSchedule::parse`]); windows are measured from each process's
//! own arm time, so specs should use windows comfortably wider than
//! process-launch skew.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::{mix, FaultStats, NodeId, GAMMA};

/// One scheduled connectivity fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// Symmetric partition: for `from <= elapsed < until`, frames
    /// between a node inside `island` and a node outside it are dropped
    /// in both directions.
    Partition { island: Vec<NodeId>, from: Duration, until: Duration },
    /// Asymmetric drop: for `from <= elapsed < until`, frames from
    /// `src` to `dest` are dropped; the reverse direction is untouched.
    OneWay { src: NodeId, dest: NodeId, from: Duration, until: Duration },
    /// Every `src → dest` frame is delayed by `base` plus a seeded
    /// jitter uniform in `[0, jitter)`. Active for the whole run.
    Delay { src: NodeId, dest: NodeId, base: Duration, jitter: Duration },
}

impl LinkFault {
    /// Why this fault cannot be scheduled on a `nodes`-node cluster, if
    /// it cannot: an empty island, a loopback link, a node id outside
    /// `0..nodes`, an empty or inverted window, or a zero delay.
    pub fn check(&self, nodes: usize) -> Result<(), String> {
        use LinkFault::{Delay, OneWay, Partition};
        let (ids, window) = match self {
            Partition { island, from, until } => (island.clone(), Some((from, until))),
            OneWay { src, dest, from, until } => (vec![*src, *dest], Some((from, until))),
            Delay { src, dest, .. } => (vec![*src, *dest], None),
        };
        if let Some(id) = ids.iter().find(|&&id| id as usize >= nodes) {
            return Err(format!("node {id} is outside the {nodes}-node cluster"));
        }
        match (self, window) {
            (Partition { island, .. }, _) if island.is_empty() => {
                Err("empty partition island".into())
            }
            (OneWay { src, dest, .. } | Delay { src, dest, .. }, _) if src == dest => {
                Err(format!("loopback link {src} -> {dest}"))
            }
            (_, Some((from, until))) if from >= until => {
                Err(format!("empty or inverted window {from:?}..{until:?}"))
            }
            (Delay { base, jitter, .. }, _) if base.is_zero() && jitter.is_zero() => {
                Err("zero delay".into())
            }
            _ => Ok(()),
        }
    }
}

/// A seeded, armable schedule of [`LinkFault`]s and the ledger of what
/// it injected. All methods take `&self`; the hot-path queries are a
/// scan over a handful of faults with no locks.
#[derive(Debug)]
pub struct LinkSchedule {
    faults: Vec<LinkFault>,
    seed: u64,
    /// Set once, at [`arm`](Self::arm) or first query — windows are
    /// relative to this instant.
    epoch: OnceLock<Instant>,
    delay_ctr: AtomicU64,
    partition_drops: AtomicU64,
    oneway_drops: AtomicU64,
    delayed: AtomicU64,
}

/// Frames held back on their link, released in due order (equal due
/// times in hold order). Fill and drain it through
/// [`LinkSchedule::hold`] and [`LinkSchedule::release`], which count
/// the hold and judge the link again on release.
pub(crate) struct HoldQueue<T> {
    /// Keyed by due time, then the schedule's hold count.
    frames: Mutex<BTreeMap<(Instant, u64), Held<T>>>,
}

/// A frame in a [`HoldQueue`] and the link it was held on.
struct Held<T> {
    src: NodeId,
    dest: NodeId,
    frame: T,
}

impl<T> HoldQueue<T> {
    pub(crate) fn new() -> Self {
        HoldQueue { frames: Mutex::new(BTreeMap::new()) }
    }

    /// Frames held right now.
    pub(crate) fn len(&self) -> usize {
        self.frames.lock().unwrap().len()
    }
}

impl LinkSchedule {
    /// A schedule of `faults`, taken as given: check each one first
    /// ([`LinkFault::check`]), as [`parse`](Self::parse) and
    /// [`FaultConfig::validate`](crate::FaultConfig::validate) do.
    pub fn new(seed: u64, faults: Vec<LinkFault>) -> Self {
        LinkSchedule {
            faults,
            seed,
            epoch: OnceLock::new(),
            delay_ctr: AtomicU64::new(0),
            partition_drops: AtomicU64::new(0),
            oneway_drops: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        }
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[LinkFault] {
        &self.faults
    }

    /// True when any [`LinkFault::Delay`] is scheduled (transports use
    /// this to decide whether to run a delay pump at all).
    pub fn has_delays(&self) -> bool {
        self.faults.iter().any(|f| matches!(f, LinkFault::Delay { .. }))
    }

    /// Start the schedule clock now (idempotent; queries arm lazily if
    /// never called).
    pub fn arm(&self) {
        let _ = self.epoch.set(Instant::now());
    }

    fn elapsed(&self) -> Duration {
        self.epoch.get_or_init(Instant::now).elapsed()
    }

    /// Should a frame from `src` to `dest` be dropped right now?
    /// Counts the drop when true.
    pub fn blocked(&self, src: NodeId, dest: NodeId) -> bool {
        if src == dest || self.faults.is_empty() {
            return false;
        }
        let now = self.elapsed();
        for f in &self.faults {
            match f {
                LinkFault::Partition { island, from, until } => {
                    if now >= *from
                        && now < *until
                        && island.contains(&src) != island.contains(&dest)
                    {
                        self.partition_drops.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                }
                LinkFault::OneWay { src: s, dest: d, from, until } => {
                    if *s == src && *d == dest && now >= *from && now < *until {
                        self.oneway_drops.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                }
                LinkFault::Delay { .. } => {}
            }
        }
        false
    }

    /// Extra latency to impose on a `src → dest` frame, if a delay
    /// fault covers the link. Counted when the frame is held.
    pub fn delay(&self, src: NodeId, dest: NodeId) -> Option<Duration> {
        if src == dest {
            return None;
        }
        for f in &self.faults {
            if let LinkFault::Delay { src: s, dest: d, base, jitter } = f {
                if *s == src && *d == dest {
                    let extra = if jitter.is_zero() {
                        Duration::ZERO
                    } else {
                        let n = self.delay_ctr.fetch_add(1, Ordering::Relaxed);
                        Duration::from_nanos(
                            mix((self.seed ^ n).wrapping_add(GAMMA))
                                % (jitter.as_nanos() as u64).max(1),
                        )
                    };
                    return Some(*base + extra);
                }
            }
        }
        None
    }

    /// Hold `frame` on the `src → dest` link for `hold` from now, and
    /// count it delayed.
    pub(crate) fn hold<T>(
        &self,
        q: &HoldQueue<T>,
        src: NodeId,
        dest: NodeId,
        hold: Duration,
        frame: T,
    ) {
        let order = self.delayed.fetch_add(1, Ordering::Relaxed);
        q.frames.lock().unwrap().insert((Instant::now() + hold, order), Held { src, dest, frame });
    }

    /// Release the earliest frame in `q` due by `now` (any held frame,
    /// when `flush`), with its destination, and say when the next one
    /// comes due. A frame is judged again on release: one whose link is
    /// [blocked](Self::blocked) now dies here, counted once.
    pub(crate) fn release<T>(
        &self,
        q: &HoldQueue<T>,
        now: Instant,
        flush: bool,
    ) -> (Option<(NodeId, T)>, Option<Instant>) {
        let mut frames = q.frames.lock().unwrap();
        loop {
            let Some(first) = frames.first_entry() else { return (None, None) };
            if !flush && first.key().0 > now {
                return (None, Some(first.key().0));
            }
            let Held { src, dest, frame } = first.remove();
            if !self.blocked(src, dest) {
                return (Some((dest, frame)), frames.first_key_value().map(|(k, _)| k.0));
            }
        }
    }

    /// What the schedule injected so far: its `partition_drops`,
    /// `oneway_drops` and `delayed`; every other field is zero.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            partition_drops: self.partition_drops.load(Ordering::Relaxed),
            oneway_drops: self.oneway_drops.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            ..FaultStats::default()
        }
    }

    /// Parse the textual spec multi-process harnesses pass on the
    /// command line for a `nodes`-node cluster: `;`-separated entries
    /// of
    ///
    /// ```text
    /// part:<id>|<id>|...:<from_ms>:<until_ms>
    /// oneway:<src>:<dest>:<from_ms>:<until_ms>
    /// delay:<src>:<dest>:<base_ms>:<jitter_ms>
    /// ```
    ///
    /// The error names the first entry that does not parse or does not
    /// pass [`LinkFault::check`].
    pub fn parse(seed: u64, spec: &str, nodes: usize) -> Result<Self, String> {
        let mut faults = Vec::new();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let fault = parse_entry(entry)
                .and_then(|f| f.check(nodes).map(|()| f))
                .map_err(|why| format!("`{entry}`: {why}"))?;
            faults.push(fault);
        }
        Ok(LinkSchedule::new(seed, faults))
    }
}

/// One `part`, `oneway` or `delay` entry of a [`LinkSchedule::parse`]
/// spec, unchecked.
fn parse_entry(entry: &str) -> Result<LinkFault, String> {
    let id = |s: &str| s.parse::<NodeId>().map_err(|_| format!("bad node id `{s}`"));
    let ms = |s: &str| {
        s.parse::<u64>().map(Duration::from_millis).map_err(|_| format!("bad milliseconds `{s}`"))
    };
    Ok(match entry.split(':').collect::<Vec<_>>().as_slice() {
        ["part", island, from, until] => LinkFault::Partition {
            island: island.split('|').map(id).collect::<Result<_, _>>()?,
            from: ms(from)?,
            until: ms(until)?,
        },
        ["oneway", src, dest, from, until] => LinkFault::OneWay {
            src: id(src)?,
            dest: id(dest)?,
            from: ms(from)?,
            until: ms(until)?,
        },
        ["delay", src, dest, base, jitter] => LinkFault::Delay {
            src: id(src)?,
            dest: id(dest)?,
            base: ms(base)?,
            jitter: ms(jitter)?,
        },
        _ => return Err("not a part, oneway or delay entry".into()),
    })
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn partition_blocks_across_but_not_within_the_island() {
        let s = LinkSchedule::new(
            1,
            vec![LinkFault::Partition { island: vec![0, 1, 2], from: ms(0), until: ms(60_000) }],
        );
        s.arm();
        assert!(s.blocked(0, 3), "island to outside");
        assert!(s.blocked(4, 1), "outside to island");
        assert!(!s.blocked(0, 2), "within island");
        assert!(!s.blocked(3, 5), "within the complement");
        assert!(!s.blocked(0, 0), "loopback is never partitioned");
        let st = s.stats();
        assert_eq!((st.partition_drops, st.oneway_drops), (2, 0));
    }

    #[test]
    fn partition_respects_its_window() {
        let s = LinkSchedule::new(
            1,
            vec![LinkFault::Partition { island: vec![0], from: ms(50), until: ms(80) }],
        );
        s.arm();
        assert!(!s.blocked(0, 1), "before the window");
        std::thread::sleep(ms(55));
        assert!(s.blocked(0, 1), "inside the window");
        std::thread::sleep(ms(40));
        assert!(!s.blocked(0, 1), "after the window — healed");
    }

    #[test]
    fn oneway_is_asymmetric() {
        let s = LinkSchedule::new(
            1,
            vec![LinkFault::OneWay { src: 2, dest: 3, from: ms(0), until: ms(60_000) }],
        );
        s.arm();
        assert!(s.blocked(2, 3), "faulted direction drops");
        assert!(!s.blocked(3, 2), "reverse direction passes");
        assert!(!s.blocked(2, 4), "other links untouched");
        assert_eq!(s.stats().oneway_drops, 1);
    }

    #[test]
    fn delay_is_seeded_and_bounded() {
        let make = |seed| {
            let s = LinkSchedule::new(
                seed,
                vec![LinkFault::Delay { src: 0, dest: 1, base: ms(5), jitter: ms(10) }],
            );
            s.arm();
            (0..32).map(|_| s.delay(0, 1).unwrap()).collect::<Vec<_>>()
        };
        let a = make(7);
        assert_eq!(a, make(7), "same seed, same jitter sequence");
        assert_ne!(a, make(8), "different seed, different sequence");
        for d in &a {
            assert!(*d >= ms(5) && *d < ms(15), "delay {d:?} outside [base, base+jitter)");
        }
        assert!(a.iter().collect::<std::collections::HashSet<_>>().len() > 1, "jitter varies");
        let s = LinkSchedule::new(7, vec![LinkFault::Delay { src: 0, dest: 1, base: ms(5), jitter: ms(10) }]);
        assert_eq!(s.delay(1, 0), None, "reverse direction undelayed");
        assert_eq!(s.delay(0, 0), None, "loopback undelayed");
    }

    #[test]
    fn spec_parses_all_three_kinds() {
        let s = LinkSchedule::parse(3, "part:0|1|2:500:2500; oneway:2:3:100:900;delay:0:1:5:3", 4)
            .unwrap();
        assert_eq!(
            s.faults(),
            &[
                LinkFault::Partition { island: vec![0, 1, 2], from: ms(500), until: ms(2500) },
                LinkFault::OneWay { src: 2, dest: 3, from: ms(100), until: ms(900) },
                LinkFault::Delay { src: 0, dest: 1, base: ms(5), jitter: ms(3) },
            ]
        );
        assert!(s.has_delays());
        assert!(LinkSchedule::parse(0, "", 2).unwrap().faults().is_empty());
        for (spec, why) in [
            ("part:0:1", "`part:0:1`: not a part, oneway or delay entry"),
            ("bogus:1:2:3:4", "`bogus:1:2:3:4`: not a part, oneway or delay entry"),
            ("oneway:a:b:0:1", "`oneway:a:b:0:1`: bad node id `a`"),
            ("oneway:1:1:0:10", "`oneway:1:1:0:10`: loopback link 1 -> 1"),
            ("part:0:2000:1000", "`part:0:2000:1000`: empty or inverted window 2s..1s"),
            ("delay:0:1:0:0", "`delay:0:1:0:0`: zero delay"),
            ("oneway:0:9:0:10", "`oneway:0:9:0:10`: node 9 is outside the 2-node cluster"),
        ] {
            assert_eq!(LinkSchedule::parse(0, spec, 2).unwrap_err(), why);
        }
    }

    /// A spec entry for `f`, in whole milliseconds.
    fn entry(f: &LinkFault) -> String {
        let ms = |d: &Duration| d.as_millis();
        match f {
            LinkFault::Partition { island, from, until } => {
                let ids: Vec<String> = island.iter().map(|id| id.to_string()).collect();
                format!("part:{}:{}:{}", ids.join("|"), ms(from), ms(until))
            }
            LinkFault::OneWay { src, dest, from, until } => {
                format!("oneway:{src}:{dest}:{}:{}", ms(from), ms(until))
            }
            LinkFault::Delay { src, dest, base, jitter } => {
                format!("delay:{src}:{dest}:{}:{}", ms(base), ms(jitter))
            }
        }
    }

    /// Pieces a spec is made of, and some it must survive.
    const TOKENS: &[&str] = &[
        "part", "oneway", "delay", ":", ":", ";", "|", " ", "0", "1", "2", "9", "10", "500",
        "4294967296", "18446744073709551616", "-1", "x", "é", "\0", "",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            std::env::var("GRAVEL_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
        ))]

        /// Whatever the text, parsing returns; whatever it accepts
        /// passes the same check a config must.
        #[test]
        fn arbitrary_specs_never_panic(
            picks in vec(0..TOKENS.len(), 0..32),
            nodes in 0usize..6,
        ) {
            let spec: String = picks.iter().map(|&i| TOKENS[i]).collect();
            if let Ok(s) = LinkSchedule::parse(1, &spec, nodes) {
                for f in s.faults() {
                    prop_assert!(f.check(nodes).is_ok(), "{spec:?} let {f:?} through");
                }
            }
        }

        /// A spec written from valid faults parses back to exactly
        /// those faults.
        #[test]
        fn valid_specs_parse_to_their_faults(
            nodes in 2usize..9,
            raw in vec((0u8..3, any::<u64>(), 0u64..10_000, 1u64..10_000), 1..6),
        ) {
            let faults: Vec<LinkFault> = raw
                .iter()
                .map(|&(kind, bits, start, len)| {
                    let n = nodes as u64;
                    let src = (bits % n) as NodeId;
                    let dest = ((src as u64 + 1 + (bits >> 32) % (n - 1)) % n) as NodeId;
                    let (from, until) = (ms(start), ms(start + len));
                    match kind {
                        0 => {
                            let island = (0..nodes as NodeId)
                                .filter(|&i| i == src || bits >> i & 1 == 1)
                                .collect();
                            LinkFault::Partition { island, from, until }
                        }
                        1 => LinkFault::OneWay { src, dest, from, until },
                        _ => LinkFault::Delay { src, dest, base: from, jitter: ms(len) },
                    }
                })
                .collect();
            let spec: Vec<String> = faults.iter().map(entry).collect();
            let s = LinkSchedule::parse(1, &spec.join("; "), nodes).unwrap();
            prop_assert_eq!(s.faults(), &faults[..]);
        }

        /// Every invalid shape is an `Err` naming its entry, wherever it
        /// sits in an otherwise valid spec.
        #[test]
        fn invalid_entries_are_errors(
            nodes in 2usize..9,
            shape in 0u8..6,
            id in any::<u32>(),
            start in 0u64..10_000,
            first in any::<bool>(),
        ) {
            let node = id % nodes as u32;
            let (at, next) = (ms(start), ms(start + 1));
            let bad = match shape {
                0 => LinkFault::OneWay { src: node, dest: node, from: at, until: next },
                1 => LinkFault::OneWay { src: 0, dest: 1, from: at, until: at },
                2 => LinkFault::Partition { island: vec![node], from: next, until: at },
                3 => LinkFault::Delay { src: 0, dest: 1, base: ms(0), jitter: ms(0) },
                4 => LinkFault::Partition { island: vec![], from: at, until: next },
                _ => {
                    let dest = nodes as u32 + id % 100;
                    LinkFault::Delay { src: 0, dest, base: ms(1), jitter: ms(0) }
                }
            };
            prop_assert!(bad.check(nodes).is_err(), "{bad:?} passed the check");
            let (good, bad) = ("delay:0:1:1:0", entry(&bad));
            let spec = if first { format!("{bad};{good}") } else { format!("{good};{bad}") };
            let err = LinkSchedule::parse(1, &spec, nodes).unwrap_err();
            prop_assert!(err.contains(&format!("`{bad}`")), "{spec:?}: {err}");
        }
    }
}

//! Heartbeat emission and phi-accrual failure detection.
//!
//! Every node runs one heartbeat thread ([`run`]) that (a) emits a
//! best-effort heartbeat to every peer each
//! [`HeartbeatConfig::interval`], and (b) drains its own heartbeat
//! mailbox into a per-node [`FailureDetector`].
//!
//! The detector is phi-accrual (Hayashibara et al.): instead of a
//! binary timeout it tracks an EWMA of each peer's inter-arrival times
//! and reports a continuous suspicion level
//!
//! ```text
//! phi(peer) = log10(e) · t_since_last_beat / mean_interval
//! ```
//!
//! — the negative log-probability of the current silence under an
//! exponential arrival model. Two thresholds split the scale:
//! `suspect_phi` (the peer is *slow*: e.g. a link-down window or a GC
//! pause) and `dead_phi` (the silence is so improbable the peer is
//! declared dead — and the verdict latches, because resurrecting a
//! declared-dead node would race recovery). Heartbeats ride the
//! transport's lossy heartbeat plane, so the EWMA naturally widens on
//! flaky links, which is exactly the adaptivity that makes phi-accrual
//! distinguish "slow network" from "dead process".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gravel_net::{ChaosPlan, Heartbeat, Transport};
use gravel_telemetry::Registry;

use crate::error::ErrorSlot;

/// log10(e): converts nats of improbability to phi's decimal scale.
const LOG10_E: f64 = std::f64::consts::LOG10_E;

/// Failure-detection tuning.
#[derive(Clone, Debug)]
pub struct HeartbeatConfig {
    /// Heartbeat emission period per peer.
    pub interval: Duration,
    /// Phi above which a peer is [`PeerStatus::Suspect`] (slow but not
    /// presumed dead). 3.0 ≈ "this silence had probability 10⁻³".
    pub suspect_phi: f64,
    /// Phi above which a peer is declared [`PeerStatus::Dead`]; latches.
    pub dead_phi: f64,
    /// Beats observed from a peer before its EWMA is trusted; until
    /// then the detector assumes a conservative mean of 4× `interval`.
    pub min_samples: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        // With a 5 ms beat and prior mean 20 ms, dead_phi = 8 needs
        // ~370 ms of total silence before declaring death — an order of
        // magnitude past worst-case scheduler noise, two orders past a
        // normal beat gap.
        HeartbeatConfig {
            interval: Duration::from_millis(5),
            suspect_phi: 3.0,
            dead_phi: 8.0,
            min_samples: 3,
        }
    }
}

/// A peer's health as judged by one observer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerStatus {
    /// Beats arriving at the expected rhythm.
    Alive,
    /// Silence improbable enough to notice (`phi >= suspect_phi`) but
    /// not to act on. Slow, partitioned, or pausing — still presumed
    /// recoverable.
    Suspect,
    /// Silence past `dead_phi`. Latched: the peer stays dead for this
    /// observer even if late beats arrive afterwards.
    Dead,
}

struct PeerState {
    last: Option<Instant>,
    /// EWMA of inter-arrival time, in nanoseconds.
    ewma_ns: f64,
    samples: u32,
    dead: bool,
}

/// One node's view of every peer's liveness.
///
/// Fed by the heartbeat thread but usable standalone (tests drive it
/// with explicit `Instant`s). All methods take `&self`; state is one
/// short mutex.
pub struct FailureDetector {
    cfg: HeartbeatConfig,
    /// When observation began — the baseline for peers that never beat,
    /// so a peer dead from birth is still detectable.
    started: Instant,
    peers: Mutex<HashMap<u32, PeerState>>,
}

impl FailureDetector {
    pub fn new(cfg: HeartbeatConfig) -> Self {
        FailureDetector { cfg, started: Instant::now(), peers: Mutex::new(HashMap::new()) }
    }

    pub fn config(&self) -> &HeartbeatConfig {
        &self.cfg
    }

    /// Record a heartbeat from `peer` observed at `now`.
    pub fn note_beat(&self, peer: u32, now: Instant) {
        let mut peers = self.peers.lock().unwrap_or_else(|p| p.into_inner());
        let st = peers.entry(peer).or_insert_with(|| self.fresh_peer());
        if let Some(last) = st.last {
            let gap = now.saturating_duration_since(last).as_nanos() as f64;
            st.ewma_ns = if st.samples == 0 { gap } else { 0.8 * st.ewma_ns + 0.2 * gap };
            st.samples = st.samples.saturating_add(1);
        }
        st.last = Some(now);
    }

    /// Current suspicion level for `peer` at `now`. 0 when a beat just
    /// arrived; grows linearly with silence. A latched-dead peer
    /// reports at least `dead_phi` forever.
    pub fn phi(&self, peer: u32, now: Instant) -> f64 {
        let mut peers = self.peers.lock().unwrap_or_else(|p| p.into_inner());
        let st = peers.entry(peer).or_insert_with(|| self.fresh_peer());
        if st.dead {
            return self.cfg.dead_phi.max(self.phi_of(st, now));
        }
        self.phi_of(st, now)
    }

    fn phi_of(&self, st: &PeerState, now: Instant) -> f64 {
        // Until the EWMA has enough samples, assume a conservative mean
        // of 4× the configured interval so startup jitter cannot kill a
        // healthy peer.
        let prior_ns = 4.0 * self.cfg.interval.as_nanos() as f64;
        let mean_ns = if st.samples >= self.cfg.min_samples {
            st.ewma_ns.max(1.0)
        } else {
            prior_ns
        };
        let last = st.last.unwrap_or(self.started);
        let silence_ns = now.saturating_duration_since(last).as_nanos() as f64;
        LOG10_E * silence_ns / mean_ns
    }

    /// Classify `peer` at `now`; crossing `dead_phi` latches.
    pub fn status(&self, peer: u32, now: Instant) -> PeerStatus {
        let mut peers = self.peers.lock().unwrap_or_else(|p| p.into_inner());
        let st = peers.entry(peer).or_insert_with(|| self.fresh_peer());
        if st.dead {
            return PeerStatus::Dead;
        }
        let phi = self.phi_of(st, now);
        if phi >= self.cfg.dead_phi {
            st.dead = true;
            PeerStatus::Dead
        } else if phi >= self.cfg.suspect_phi {
            PeerStatus::Suspect
        } else {
            PeerStatus::Alive
        }
    }

    /// Re-evaluate every known peer at `now`; returns peers that
    /// transitioned to dead *in this call* (each reported exactly once
    /// across the detector's lifetime).
    pub fn sweep(&self, now: Instant) -> Vec<u32> {
        let mut peers = self.peers.lock().unwrap_or_else(|p| p.into_inner());
        let cfg_dead = self.cfg.dead_phi;
        let mut newly_dead: Vec<u32> = Vec::new();
        let ids: Vec<u32> = peers.keys().copied().collect();
        for id in ids {
            let st = peers.get_mut(&id).expect("peer present");
            if !st.dead && self.phi_of(st, now) >= cfg_dead {
                st.dead = true;
                newly_dead.push(id);
            }
        }
        newly_dead.sort_unstable();
        newly_dead
    }

    /// Every peer currently latched dead.
    pub fn dead_peers(&self) -> Vec<u32> {
        let peers = self.peers.lock().unwrap_or_else(|p| p.into_inner());
        let mut dead: Vec<u32> =
            peers.iter().filter(|(_, s)| s.dead).map(|(id, _)| *id).collect();
        dead.sort_unstable();
        dead
    }

    /// How long `peer` has been silent at `now` (time since its last
    /// observed beat; since tracking began if it never beat). `None`
    /// for a peer the detector has never heard of. Beats keep updating
    /// `last` even on a latched-dead peer, so a small silence on a
    /// dead peer means its beats have *resumed* — the signal the
    /// membership layer's partition-heal revive sweep keys on.
    pub fn silence(&self, peer: u32, now: Instant) -> Option<Duration> {
        let peers = self.peers.lock().unwrap_or_else(|p| p.into_inner());
        let st = peers.get(&peer)?;
        Some(now.saturating_duration_since(st.last.unwrap_or(self.started)))
    }

    /// Forget `peer`'s latched verdict and restart its silence clock at
    /// `now`: the membership layer calls this when a declared-dead peer
    /// completes a fresh handshake (a *new* incarnation of the process,
    /// not a resurrection of the old one — the latch still protects
    /// against late beats from a zombie). The EWMA restarts from the
    /// conservative prior so the rejoined peer gets warmup slack.
    pub fn reset_peer(&self, peer: u32, now: Instant) {
        let mut peers = self.peers.lock().unwrap_or_else(|p| p.into_inner());
        peers.insert(
            peer,
            PeerState { last: Some(now), ewma_ns: 0.0, samples: 0, dead: false },
        );
    }

    /// Start observing `peer` from `now` (its silence clock starts
    /// here, not at detector construction). The heartbeat thread calls
    /// this for every peer at startup.
    pub fn track(&self, peer: u32, now: Instant) {
        let mut peers = self.peers.lock().unwrap_or_else(|p| p.into_inner());
        peers.entry(peer).or_insert(PeerState {
            last: Some(now),
            ewma_ns: 0.0,
            samples: 0,
            dead: false,
        });
    }

    fn fresh_peer(&self) -> PeerState {
        PeerState { last: None, ewma_ns: 0.0, samples: 0, dead: false }
    }
}

/// Heartbeat worker body for node `id` in an `n`-node cluster: emit a
/// beat to every peer each interval, drain the mailbox into `detector`,
/// sweep for deaths. Runs until the transport closes or the cluster
/// fails; restartable under the supervisor (the shared beat counter and
/// detector survive the thread).
#[allow(clippy::too_many_arguments)]
pub fn run(
    cfg: HeartbeatConfig,
    id: u32,
    nodes: u32,
    transport: Arc<dyn Transport>,
    detector: Arc<FailureDetector>,
    chaos: Option<Arc<ChaosPlan>>,
    errors: Arc<ErrorSlot>,
    registry: Arc<Registry>,
    beat_seq: Arc<AtomicU64>,
) {
    let beats_sent = registry.counter(&format!("node{id}.ha.beats_sent"));
    let deaths = registry.counter("ha.deaths_declared");
    let phi_gauges: Vec<_> = (0..nodes)
        .map(|peer| registry.gauge(&format!("node{id}.ha.phi.node{peer}")))
        .collect();
    let start = Instant::now();
    for peer in 0..nodes {
        if peer != id {
            detector.track(peer, start);
        }
    }
    while !transport.is_closed() && !errors.is_set() {
        // Emit one beat per peer, unless a chaos blackhole suppresses
        // this node's outgoing beats right now.
        let beat = beat_seq.fetch_add(1, Ordering::Relaxed);
        let blackholed =
            chaos.as_deref().is_some_and(|c| c.heartbeat_blackholed(id, beat));
        if !blackholed {
            for peer in 0..nodes {
                if peer != id {
                    transport.send_heartbeat(Heartbeat { src: id, dest: peer, seq: beat });
                    beats_sent.inc();
                }
            }
        }
        // Drain everything that arrived since the last tick.
        let now = Instant::now();
        while let Some(hb) = transport.try_recv_heartbeat(id) {
            detector.note_beat(hb.src, now);
        }
        // Export suspicion and declare deaths.
        for peer in 0..nodes {
            if peer != id {
                let milli_phi = (detector.phi(peer, now) * 1000.0) as i64;
                phi_gauges[peer as usize].set(milli_phi);
            }
        }
        for _peer in detector.sweep(now) {
            deaths.inc();
        }
        std::thread::sleep(cfg.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HeartbeatConfig {
        HeartbeatConfig {
            interval: Duration::from_millis(5),
            suspect_phi: 3.0,
            dead_phi: 8.0,
            min_samples: 3,
        }
    }

    #[test]
    fn steady_beats_stay_alive() {
        let d = FailureDetector::new(cfg());
        let t0 = Instant::now();
        for i in 0..20 {
            d.note_beat(1, t0 + Duration::from_millis(5 * i));
        }
        let now = t0 + Duration::from_millis(5 * 20);
        assert_eq!(d.status(1, now), PeerStatus::Alive);
        assert!(d.phi(1, now) < 1.0, "phi = {}", d.phi(1, now));
    }

    #[test]
    fn phi_grows_linearly_with_silence() {
        let d = FailureDetector::new(cfg());
        let t0 = Instant::now();
        for i in 0..10 {
            d.note_beat(1, t0 + Duration::from_millis(5 * i));
        }
        let last = t0 + Duration::from_millis(45);
        let p1 = d.phi(1, last + Duration::from_millis(20));
        let p2 = d.phi(1, last + Duration::from_millis(40));
        assert!(p2 > 1.9 * p1 && p2 < 2.1 * p1, "p1 = {p1}, p2 = {p2}");
    }

    #[test]
    fn long_silence_is_suspect_then_dead_and_latches() {
        let d = FailureDetector::new(cfg());
        let t0 = Instant::now();
        for i in 0..10 {
            d.note_beat(1, t0 + Duration::from_millis(5 * i));
        }
        let last = t0 + Duration::from_millis(45);
        // EWMA mean ≈ 5 ms → suspect at ~34.5 ms silence, dead at ~92 ms.
        assert_eq!(d.status(1, last + Duration::from_millis(10)), PeerStatus::Alive);
        assert_eq!(d.status(1, last + Duration::from_millis(50)), PeerStatus::Suspect);
        assert_eq!(d.status(1, last + Duration::from_millis(200)), PeerStatus::Dead);
        // Latched: a late beat does not resurrect the peer.
        d.note_beat(1, last + Duration::from_millis(201));
        assert_eq!(d.status(1, last + Duration::from_millis(202)), PeerStatus::Dead);
        assert_eq!(d.dead_peers(), vec![1]);
    }

    #[test]
    fn reset_peer_clears_the_latch_for_a_rejoined_incarnation() {
        let d = FailureDetector::new(cfg());
        let t0 = Instant::now();
        d.track(1, t0);
        let dead_at = t0 + Duration::from_millis(500);
        assert_eq!(d.status(1, dead_at), PeerStatus::Dead);
        // Fresh handshake from the restarted process: latch clears and
        // the warmup prior applies again.
        let rejoin = dead_at + Duration::from_millis(10);
        d.reset_peer(1, rejoin);
        assert_eq!(d.status(1, rejoin + Duration::from_millis(20)), PeerStatus::Alive);
        assert_eq!(d.dead_peers(), Vec::<u32>::new());
        // And it can die again under renewed silence.
        assert_eq!(d.status(1, rejoin + Duration::from_millis(500)), PeerStatus::Dead);
    }

    #[test]
    fn silence_tracks_the_last_beat_even_after_the_latch() {
        let d = FailureDetector::new(cfg());
        let t0 = Instant::now();
        assert_eq!(d.silence(1, t0), None, "untracked peer has no silence");
        d.track(1, t0);
        assert_eq!(d.silence(1, t0 + Duration::from_millis(30)), Some(Duration::from_millis(30)));
        // Latch the death, then let beats resume: silence collapses to
        // near zero even though the verdict stays Dead — exactly what
        // the partition-heal revive sweep looks for.
        let dead_at = t0 + Duration::from_millis(500);
        assert_eq!(d.status(1, dead_at), PeerStatus::Dead);
        d.note_beat(1, dead_at + Duration::from_millis(5));
        assert_eq!(d.status(1, dead_at + Duration::from_millis(6)), PeerStatus::Dead);
        assert_eq!(
            d.silence(1, dead_at + Duration::from_millis(6)),
            Some(Duration::from_millis(1))
        );
    }

    #[test]
    fn dead_from_birth_is_detected_via_prior() {
        let d = FailureDetector::new(cfg());
        d.track(1, Instant::now());
        // Prior mean 20 ms → dead_phi = 8 needs ≈ 368 ms of silence.
        let now = Instant::now() + Duration::from_millis(500);
        assert_eq!(d.status(1, now), PeerStatus::Dead);
    }

    #[test]
    fn prior_mean_protects_during_warmup() {
        let d = FailureDetector::new(cfg());
        let t0 = Instant::now();
        // Two quick beats 1 ms apart: EWMA would say mean = 1 ms, but
        // with min_samples = 3 the 20 ms prior still applies, so a 30 ms
        // gap (phi ≈ 0.65 under the prior) is not even suspect.
        d.note_beat(1, t0);
        d.note_beat(1, t0 + Duration::from_millis(1));
        assert_eq!(
            d.status(1, t0 + Duration::from_millis(31)),
            PeerStatus::Alive
        );
    }

    #[test]
    fn sweep_reports_each_death_once() {
        let d = FailureDetector::new(cfg());
        let t0 = Instant::now();
        d.track(1, t0);
        d.track(2, t0);
        d.note_beat(2, t0 + Duration::from_millis(400));
        let later = t0 + Duration::from_millis(420);
        assert_eq!(d.sweep(later), vec![1], "only the silent peer dies");
        assert_eq!(d.sweep(later), Vec::<u32>::new(), "no double report");
        assert_eq!(d.dead_peers(), vec![1]);
    }

    #[test]
    fn jittery_but_live_peer_widens_ewma_instead_of_dying() {
        let d = FailureDetector::new(cfg());
        let t0 = Instant::now();
        // Irregular gaps between 5 and 40 ms — a flaky link. The EWMA
        // adapts upward, so a subsequent 40 ms gap stays below dead.
        let gaps = [5u64, 30, 10, 40, 15, 35, 8, 40];
        let mut t = t0;
        for g in gaps {
            t += Duration::from_millis(g);
            d.note_beat(1, t);
        }
        assert_ne!(d.status(1, t + Duration::from_millis(40)), PeerStatus::Dead);
    }
}

//! The six in-process workloads. Each builds its inputs from the seed,
//! constructs a two-node `GravelRuntime` with the configuration users get
//! (`GravelConfig::paper`), drives it closed-loop for the asked number of
//! seconds from at most `nproc` generator threads, and checks every output
//! against a sequential reference.
//!
//! The timed region is a sequence of segments of about half a second, each
//! ending with the runtime quiescent and followed by a host-speed probe
//! (`measure::Meter`). A run reports the median over its segments of each
//! figure scaled to the reference host's speed, so a stretch in which a
//! neighbour slows this host neither dominates a run nor shifts it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gravel_apps::graph::{gen, reference};
use gravel_apps::{gups, pagerank};
use gravel_core::gq::Message;
use gravel_core::pgas::{Layout, Partition};
use gravel_core::telemetry::HistogramSnapshot;
use gravel_core::{FaultConfig, GravelConfig, GravelRuntime, TelemetryConfig, TransportKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{median, nproc, peak_rss_mb, timed_setup, Meter, Segment};

/// What one invocation asks of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// 1/50 scale: inputs shrink with the run length.
    pub smoke: bool,
    /// Run the program with `TelemetryConfig::CountersAndTrace` and read
    /// its counters afterwards.
    pub traced: bool,
}

impl Params {
    fn telemetry(&self) -> TelemetryConfig {
        if self.traced {
            TelemetryConfig::CountersAndTrace
        } else {
            TelemetryConfig::default()
        }
    }

    /// `full` at full scale, a fiftieth of it (at least `floor`) in a
    /// smoke run.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 50).max(floor)
        } else {
            full
        }
    }

    pub fn deadline(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Length of one segment: half a second, or a tenth of a short run.
    pub fn segment(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 10.0).min(0.5))
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Median time of everything before the first timed operation, at the
    /// reference host's speed.
    pub setup_s: f64,
    /// The timed region, segment by segment.
    pub segments: Vec<Segment>,
    /// The workload's pace is set by timers (flush and retransmission
    /// timeouts), not by the cores: its figures do not follow the host's
    /// speed and are reported as measured.
    pub timer_paced: bool,
    /// Latency of each closed-loop operation of the workload, unscaled
    /// (sorted by the caller before percentiles are taken).
    pub op_ns: Vec<u64>,
    /// PUT-to-visible latencies (`latency_idle` only).
    pub put_visible_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    /// Per-layer counts read from the program after the run.
    pub counts: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn take(&mut self, meter: Meter) {
        self.segments = meter.segments;
        self.op_ns = meter.op_ns;
    }

    /// One-way messages applied during the timed region.
    pub fn msgs(&self) -> u64 {
        self.segments.iter().map(|s| s.msgs).sum()
    }

    /// Timed wall seconds, probes excluded.
    pub fn wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall_ns).sum::<u64>() as f64 / 1e9
    }

    /// Factor that takes a time measured in `s` to the reference host's
    /// speed; 1 on a timer-paced workload.
    fn scale(&self, s: &Segment) -> f64 {
        if self.timer_paced {
            1.0
        } else {
            s.ref_scale()
        }
    }

    fn median_of(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        let live: Vec<f64> = self
            .segments
            .iter()
            .filter(|s| s.msgs > 0 && s.wall_ns > 0)
            .map(f)
            .collect();
        median(&live)
    }

    /// Messages per second of timed wall time over the whole run, as measured.
    pub fn raw_msgs_per_s(&self) -> f64 {
        match self.wall_s() {
            w if w > 0.0 => self.msgs() as f64 / w,
            _ => 0.0,
        }
    }

    /// CPU nanoseconds per message over the whole run, as measured.
    pub fn raw_cpu_ns_per_msg(&self) -> f64 {
        self.segments.iter().map(|s| s.cpu_ns).sum::<u64>() as f64 / self.msgs().max(1) as f64
    }

    /// Median segment's message rate at the reference host's speed.
    pub fn msgs_per_s(&self) -> f64 {
        self.median_of(|s| s.msgs as f64 * 1e9 / (s.wall_ns as f64 * self.scale(s)))
    }

    /// Median segment's CPU nanoseconds per message at the reference
    /// host's speed.
    pub fn cpu_ns_per_msg(&self) -> f64 {
        self.median_of(|s| s.cpu_ns as f64 * self.scale(s) / s.msgs as f64)
    }

    /// Median over segments of the segment's median operation latency, at
    /// the reference host's speed, in microseconds.
    pub fn op_p50_us(&self) -> f64 {
        self.median_of(|s| s.op_p50_ns as f64 * self.scale(s) / 1e3)
    }

    /// Median host speed over the run's segments: 1 on the quiet reference
    /// host, lower when this host ran slower.
    pub fn host_speed(&self) -> f64 {
        median(
            &self
                .segments
                .iter()
                .map(Segment::ref_scale)
                .collect::<Vec<_>>(),
        )
    }

    /// Share of the timed region's CPU time the hypervisor gave to others.
    pub fn steal_frac(&self) -> f64 {
        let n = self.segments.len().max(1) as f64;
        self.segments.iter().map(|s| s.steal_frac).sum::<f64>() / n
    }
}

/// Global table length of the INC streams (split cyclically over 2 nodes).
pub const TABLE: usize = 1 << 14;

/// A seeded chunk of INC messages over a cyclically partitioned table,
/// with the histogram of global indices it increments.
pub fn inc_chunk(seed: u64, producer: usize, len: usize) -> (Vec<Message>, Vec<u64>) {
    let part = Partition::new(TABLE, 2, Layout::Cyclic);
    let mut rng =
        StdRng::seed_from_u64(seed ^ (producer as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut hist = vec![0u64; TABLE];
    let msgs = (0..len)
        .map(|_| {
            let g = rng.gen_range(0..TABLE);
            hist[g] += 1;
            Message::inc(part.owner(g) as u32, part.local_offset(g), 1)
        })
        .collect();
    (msgs, hist)
}

/// Sum over the table of |heap word − expected|: the number of updates
/// lost or duplicated.
fn table_mismatch(rt: &GravelRuntime, expect: &[u64]) -> u64 {
    let part = Partition::new(expect.len(), rt.nodes(), Layout::Cyclic);
    expect
        .iter()
        .enumerate()
        .map(|(g, &want)| {
            rt.heap(part.owner(g))
                .load(part.local_offset(g))
                .abs_diff(want)
        })
        .sum()
}

/// Read the per-layer counts, shut the runtime down and fold a shutdown
/// error into the failure count.
fn finish(rt: GravelRuntime, p: &Params, out: &mut Outcome) {
    if p.traced {
        out.counts = insitu(&rt);
    }
    out.peak_rss_mb = peak_rss_mb(std::process::id());
    if let Err(e) = rt.shutdown() {
        out.failed = out.failed.max(1);
        out.notes.push(format!("runtime error: {e}"));
    }
    out.failed = out.failed.min(out.attempted.max(1));
}

/// Counts summed over nodes, by the names `spec::PER_LAYER` declares.
fn insitu(rt: &GravelRuntime) -> Vec<(&'static str, f64)> {
    let stats = rt.stats();
    let snap = rt.telemetry_snapshot();
    let sum =
        |f: &dyn Fn(&gravel_core::NodeStats) -> u64| stats.nodes.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let packets = sum(&|n| n.agg.packets);
    let produced = sum(&|n| n.queue.messages_produced);
    let polls_empty = sum(&|n| n.agg_polls_empty);
    let polls_hit = sum(&|n| n.agg_polls_hit);
    let q_empty = sum(&|n| n.queue.consumer_empty_polls);
    let q_hits = sum(&|n| n.queue.consumer_hits);
    let local = sum(&|n| n.local_routed);
    let remote = sum(&|n| n.remote_routed);
    let mut deliver = HistogramSnapshot::default();
    let (mut hits, mut misses, mut resident, mut expands, mut collapses) =
        (0u64, 0u64, 0i64, 0u64, 0u64);
    for n in 0..rt.nodes() {
        if let Some(h) = snap.histogram(&format!("node{n}.net.packet_latency_ns")) {
            deliver.merge(h);
        }
        hits += snap.counter(&format!("node{n}.pool.hits"));
        misses += snap.counter(&format!("node{n}.pool.misses"));
        resident += snap.gauge(&format!("node{n}.pool.resident_bytes"));
        expands += snap.counter(&format!("node{n}.gov.expands"));
        collapses += snap.counter(&format!("node{n}.gov.collapses"));
    }
    vec![
        ("core.agg.packets", packets),
        ("core.agg.avg_packet_bytes", stats.avg_packet_bytes()),
        (
            "core.agg.timeout_flush_frac",
            ratio(sum(&|n| n.agg.timeout_flushes), packets),
        ),
        (
            "core.agg.polls_empty_frac",
            ratio(polls_empty, polls_empty + polls_hit),
        ),
        (
            "gq.queue.rmws_per_msg",
            ratio(sum(&|n| n.queue.producer_rmws), produced),
        ),
        (
            "gq.queue.producer_spins_per_msg",
            ratio(sum(&|n| n.queue.producer_spins), produced),
        ),
        (
            "gq.queue.consumer_empty_poll_frac",
            ratio(q_empty, q_empty + q_hits),
        ),
        ("core.net.retransmits", sum(&|n| n.net.retransmits)),
        ("core.net.dups_suppressed", sum(&|n| n.net.dups_suppressed)),
        ("core.net.ooo_dropped", sum(&|n| n.net.ooo_dropped)),
        ("core.net.window_stalls", sum(&|n| n.net.window_stalls)),
        ("core.net.chan_stalls", sum(&|n| n.net.chan_stalls)),
        ("core.net.spin_parks", sum(&|n| n.net.spin_parks)),
        (
            "core.net.acks_per_packet",
            ratio(sum(&|n| n.net.acks_sent), packets),
        ),
        ("core.net.deliver_p50_us", deliver.p50() as f64 / 1e3),
        ("core.net.deliver_p99_us", deliver.p99() as f64 / 1e3),
        (
            "gq.pool.hit_frac",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        ("gq.pool.resident_mb", resident as f64 / 1e6),
        ("core.gov.expands", expands as f64),
        ("core.gov.collapses", collapses as f64),
        ("core.rpc.credits_stalled", sum(&|n| n.rpc.credits_stalled)),
        ("core.rpc.timeouts", sum(&|n| n.rpc.timeouts)),
        ("core.route.local_frac", ratio(local, local + remote)),
    ]
}

/// `put_dense` and `put_lossy`: one producer thread per node replays a
/// seeded INC chunk through `host_send_batch` for the length of a segment,
/// then the cluster quiesces; segments repeat until the time is up. The
/// closed-loop operation is one `host_send_batch` of `SLICE` messages
/// returning (ring back-pressure).
pub fn put_stream(p: &Params, lossy: bool) -> Outcome {
    const SLICE: usize = 4096;
    let chunk_len = p.scaled(256 * 1024, SLICE);
    let ((rt, chunks), setup_s) = timed_setup(|| {
        let chunks: Vec<_> = (0..2).map(|n| inc_chunk(p.seed, n, chunk_len)).collect();
        let mut cfg = GravelConfig::paper(2, TABLE / 2);
        cfg.telemetry = p.telemetry();
        if lossy {
            cfg.transport = TransportKind::Unreliable(FaultConfig::drop_only(p.seed, 0.05));
        }
        (GravelRuntime::new(cfg), chunks)
    });
    let mut out = Outcome {
        setup_s,
        timer_paced: lossy,
        ..Outcome::default()
    };
    let (deadline, segment) = (p.deadline(), p.segment());
    let mut replays = [0u64; 2];
    let mut meter = Meter::start();
    let start = Instant::now();
    while start.elapsed() < deadline {
        let timer = meter.begin();
        let per_producer: Vec<(u64, Vec<u64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter()
                .enumerate()
                .map(|(n, (chunk, _))| {
                    let (node, timer) = (rt.node(n).clone(), &timer);
                    s.spawn(move || {
                        let mut lat = Vec::new();
                        let mut replays = 0u64;
                        loop {
                            for slice in chunk.chunks(SLICE) {
                                let t0 = Instant::now();
                                node.host_send_batch(slice);
                                lat.push(t0.elapsed().as_nanos() as u64);
                            }
                            replays += 1;
                            if timer.elapsed() >= segment {
                                return (replays, lat);
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("producer thread"))
                .collect()
        });
        rt.quiesce();
        let timed = meter.end(&timer);
        let (mut msgs, mut ops) = (0u64, Vec::new());
        for (n, (r, lat)) in per_producer.into_iter().enumerate() {
            replays[n] += r;
            msgs += r * chunks[n].0.len() as u64;
            ops.extend(lat);
        }
        meter.push(timed, msgs, ops);
    }
    out.take(meter);

    let mut expect = vec![0u64; TABLE];
    for (r, (_, hist)) in replays.iter().zip(&chunks) {
        for (e, h) in expect.iter_mut().zip(hist) {
            *e += r * h;
        }
    }
    out.attempted = out.msgs();
    out.failed = table_mismatch(&rt, &expect);
    finish(rt, p, &mut out);
    out
}

/// `gups_simt`: rounds of `gups::run_live` (SIMT kernels offloading
/// through `shmem_inc`) on one runtime until the time is up. The
/// closed-loop operation is one round: two dispatches and a quiesce.
pub fn gups_simt(p: &Params) -> Outcome {
    let updates = p.scaled(1 << 20, 4096);
    let (rt, setup_s) = timed_setup(|| {
        let mut cfg = GravelConfig::paper(2, TABLE / 2);
        cfg.num_cus = nproc();
        cfg.telemetry = p.telemetry();
        GravelRuntime::new(cfg)
    });
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let input = |round: u64| gups::GupsInput {
        updates,
        table_len: TABLE,
        seed: p.seed.wrapping_add(round),
    };
    let (deadline, segment) = (p.deadline(), p.segment());
    let mut rounds = 0u64;
    let mut meter = Meter::start();
    let start = Instant::now();
    while start.elapsed() < deadline {
        let timer = meter.begin();
        let (mut msgs, mut ops) = (0u64, Vec::new());
        while ops.is_empty() || timer.elapsed() < segment {
            let t0 = Instant::now();
            msgs += gups::run_live(&rt, &input(rounds));
            ops.push(t0.elapsed().as_nanos() as u64);
            rounds += 1;
        }
        meter.push(meter.end(&timer), msgs, ops);
    }
    out.take(meter);

    // The cumulative histogram of every round's update streams.
    let mut expect = vec![0u64; TABLE];
    for round in 0..rounds {
        for node in 0..2 {
            for g in gups::node_updates(&input(round), 2, node) {
                expect[g] += 1;
            }
        }
    }
    out.attempted = out.msgs();
    out.failed = table_mismatch(&rt, &expect);
    finish(rt, p, &mut out);
    out
}

/// `pagerank`: rounds of `pagerank::run_live` (`ITERS` iterations, a
/// quiesce barrier each) on a seeded mesh until the time is up, every
/// round compared bit for bit with `graph::reference::pagerank`. The
/// closed-loop operation is one round.
pub fn pagerank(p: &Params) -> Outcome {
    const ITERS: usize = 4;
    let vertices = p.scaled(200_000, 2_000);
    let damping = pagerank::default_damping();
    let ((rt, g, want), setup_s) = timed_setup(|| {
        let g = gen::hugebubbles_like(vertices, p.seed);
        let want = reference::pagerank(&g, ITERS, damping);
        let part = pagerank::partition(&g, 2);
        let heap_len = (0..2).map(|n| part.local_len(n)).max().unwrap_or(1);
        let mut cfg = GravelConfig::paper(2, heap_len);
        cfg.num_cus = nproc();
        cfg.telemetry = p.telemetry();
        (GravelRuntime::new(cfg), g, want)
    });
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let (deadline, segment) = (p.deadline(), p.segment());
    let (mut rounds, mut bad_rounds) = (0u64, 0u64);
    let mut applied = rt.stats().total_applied();
    let mut meter = Meter::start();
    let start = Instant::now();
    while start.elapsed() < deadline {
        let timer = meter.begin();
        let mut ops = Vec::new();
        while ops.is_empty() || timer.elapsed() < segment {
            let t0 = Instant::now();
            let live = pagerank::run_live(&rt, &g, ITERS, damping);
            ops.push(t0.elapsed().as_nanos() as u64);
            rounds += 1;
            bad_rounds += u64::from(live != want);
        }
        let timed = meter.end(&timer);
        let now = rt.stats().total_applied();
        meter.push(timed, now - applied, ops);
        applied = now;
    }
    out.take(meter);
    out.attempted = out.msgs();
    out.failed = bad_rounds * (out.attempted / rounds.max(1));
    finish(rt, p, &mut out);
    out
}

/// Heap words the GET probes read: a function of node, address and seed,
/// so a reply is checked, not just received.
fn sentinel(seed: u64, node: usize, addr: u64) -> u64 {
    (seed ^ 0xA5A5_5A5A).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (addr << 8) ^ node as u64
}

const GET_HEAP: usize = 1024;

/// The one default the GET workloads override: with the stock 250 ms
/// request deadline a scheduling stall of the (virtual) host turns a slow
/// GET into a failed one about once in a hundred runs. With this deadline a
/// stall shows where it belongs, in the latency tail, and only a lost
/// request or reply still fails.
const PROBE_DEADLINE: Duration = Duration::from_secs(10);

/// `latency_idle`: one client thread on two idle nodes. For two thirds
/// of each segment it issues sequential `host_get(0→1)`; for the last third
/// it sends one PUT at a time and spins until the value is visible in node
/// 1's heap. The closed-loop operation is the GET round trip.
pub fn latency_idle(p: &Params) -> Outcome {
    let (rt, setup_s) = timed_setup(|| {
        let mut cfg = GravelConfig::paper(2, GET_HEAP);
        cfg.telemetry = p.telemetry();
        cfg.rpc.timeout = PROBE_DEADLINE;
        let rt = GravelRuntime::new(cfg);
        for addr in 0..GET_HEAP as u64 {
            rt.heap(1).store(addr, sentinel(p.seed, 1, addr));
        }
        rt
    });
    let mut out = Outcome {
        setup_s,
        timer_paced: true,
        ..Outcome::default()
    };
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x1D1E);
    let (deadline, segment) = (p.deadline(), p.segment());
    let get_window = segment.mul_f64(2.0 / 3.0);
    let mut stamp = p.seed << 24;
    let mut applied = rt.stats().total_applied();
    let mut meter = Meter::start();
    let start = Instant::now();
    while start.elapsed() < deadline {
        let timer = meter.begin();
        let mut ops = Vec::new();
        while ops.is_empty() || timer.elapsed() < get_window {
            // Probe the upper half; the lower half takes the PUT probes.
            let addr = rng.gen_range(GET_HEAP as u64 / 2..GET_HEAP as u64);
            let t0 = Instant::now();
            let got = rt.host_get(0, 1, addr);
            ops.push(t0.elapsed().as_nanos() as u64);
            out.attempted += 1;
            if got != Ok(sentinel(p.seed, 1, addr)) {
                out.failed += 1;
                out.notes.push(format!(
                    "GET {} of word {addr} returned {got:?} after {:?}",
                    out.attempted,
                    t0.elapsed()
                ));
            }
        }
        while timer.elapsed() < segment {
            let addr = rng.gen_range(0..GET_HEAP as u64 / 2);
            stamp += 1;
            let t0 = Instant::now();
            rt.node(0).host_send(Message::put(1, addr, stamp));
            let mut seen = false;
            while !seen && t0.elapsed() < PROBE_DEADLINE {
                std::hint::spin_loop();
                seen = rt.heap(1).load(addr) == stamp;
            }
            out.put_visible_ns.push(t0.elapsed().as_nanos() as u64);
            out.attempted += 1;
            if !seen {
                out.failed += 1;
                out.notes.push(format!(
                    "PUT of stamp {stamp} to word {addr} not visible after {PROBE_DEADLINE:?}"
                ));
            }
        }
        rt.quiesce();
        let timed = meter.end(&timer);
        let now = rt.stats().total_applied();
        meter.push(timed, now - applied, ops);
        applied = now;
    }
    out.take(meter);
    finish(rt, p, &mut out);
    out
}

/// `get_under_put`: a storm thread keeps at most `IN_FLIGHT` bulk INCs in
/// the pipeline (alternating source node) while a probe thread issues
/// sequential `host_get(0→1)` for the length of a segment; then the storm
/// stops and the cluster quiesces. The closed-loop operation is the GET
/// round trip; `msgs_per_s` is the bulk rate sustained meanwhile.
pub fn get_under_put(p: &Params) -> Outcome {
    const IN_FLIGHT: u64 = 64 * 1024;
    const CHUNK: usize = 2048;
    const BULK_ADDRS: u64 = 512;
    let ((rt, chunks), setup_s) = timed_setup(|| {
        let mut cfg = GravelConfig::paper(2, GET_HEAP);
        cfg.telemetry = p.telemetry();
        cfg.rpc.timeout = PROBE_DEADLINE;
        let rt = GravelRuntime::new(cfg);
        for addr in BULK_ADDRS..GET_HEAP as u64 {
            rt.heap(1).store(addr, sentinel(p.seed, 1, addr));
        }
        // One chunk per source node, aimed at the other node.
        let chunks: Vec<(Vec<Message>, Vec<u64>)> = (0..2u32)
            .map(|src| {
                let mut rng = StdRng::seed_from_u64(p.seed ^ (0xB01C + u64::from(src)));
                let mut hist = vec![0u64; BULK_ADDRS as usize];
                let msgs = (0..CHUNK)
                    .map(|_| {
                        let addr = rng.gen_range(0..BULK_ADDRS);
                        hist[addr as usize] += 1;
                        Message::inc(1 - src, addr, 1)
                    })
                    .collect();
                (msgs, hist)
            })
            .collect();
        (rt, chunks)
    });
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x6E7);
    // Chunks sent so far from each source node.
    let sent = [AtomicU64::new(0), AtomicU64::new(0)];
    let sent_total = || sent[0].load(Ordering::Relaxed) + sent[1].load(Ordering::Relaxed);
    let (deadline, segment) = (p.deadline(), p.segment());
    let mut gets_failed = 0u64;
    let mut meter = Meter::start();
    let start = Instant::now();
    while start.elapsed() < deadline {
        let stop = AtomicBool::new(false);
        let sent_before = sent_total();
        let timer = meter.begin();
        let mut ops = Vec::new();
        let timed = std::thread::scope(|s| {
            s.spawn(|| {
                let nodes = [rt.node(0), rt.node(1)];
                let mut src = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let applied: u64 = nodes.iter().map(|n| n.applied.get()).sum();
                    let offloaded: u64 = nodes.iter().map(|n| n.offloaded.get()).sum();
                    if offloaded.saturating_sub(applied) < IN_FLIGHT {
                        nodes[src].host_send_batch(&chunks[src].0);
                        sent[src].fetch_add(1, Ordering::Relaxed);
                        src = 1 - src;
                    } else {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            });
            while ops.is_empty() || timer.elapsed() < segment {
                let addr = rng.gen_range(BULK_ADDRS..GET_HEAP as u64);
                let t0 = Instant::now();
                let got = rt.host_get(0, 1, addr);
                ops.push(t0.elapsed().as_nanos() as u64);
                if got != Ok(sentinel(p.seed, 1, addr)) {
                    gets_failed += 1;
                    out.notes.push(format!(
                        "GET of word {addr} returned {got:?} after {:?}",
                        t0.elapsed()
                    ));
                }
            }
            let timed = meter.end(&timer);
            stop.store(true, Ordering::Relaxed);
            timed
        });
        let bulk = (sent_total() - sent_before) * CHUNK as u64;
        rt.quiesce();
        meter.push(timed, bulk, ops);
    }
    out.take(meter);
    // Source node `src` increments the other node's bulk addresses.
    let mut bulk_lost = 0u64;
    for src in 0..2 {
        let sent = sent[src].load(Ordering::Relaxed);
        for (addr, h) in chunks[src].1.iter().enumerate() {
            bulk_lost += rt.heap(1 - src).load(addr as u64).abs_diff(sent * h);
        }
    }
    out.attempted = out.msgs() + out.op_ns.len() as u64;
    out.failed = bulk_lost + gets_failed;
    finish(rt, p, &mut out);
    out
}

//! Stage replay: the start of `put_dense`'s message stream carried
//! through each layer's public calls, one stage at a time, with a
//! bench-side span around the calls. Which function each stage calls is
//! listed in the README, so an API change knows what it breaks.
//!
//! Everything runs on the calling thread except where a stage *is* a
//! thread of the program (`aggregator::run`, `netthread::run`, the socket
//! transport's reader) or needs a consumer to discard what SIMT work-groups
//! offload.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gravel_core::gq::{
    BufferPool, Consumed, GravelQueue, Message, QueueConfig, ReplySink, MSG_ROWS,
};
use gravel_core::net::{
    Ack, AckFrame, ChannelTransport, RecvStatus, SendStatus, SocketAddrSpec, SocketConfig,
    SocketTransport, Transport,
};
use gravel_core::pgas::{
    apply, crc32c, open_data_frame, AggCounters, AmRegistry, DataFrame, Directory, FlushPolicy,
    Layout, NodeQueues, Packet, Partition, SymmetricHeap, WireIntegrity,
};
use gravel_core::simt::{Grid, LaneVec, SimtEngine};
use gravel_core::{
    aggregator, netthread, ErrorSlot, GravelConfig, GravelCtx, NodeShared, PendingReplies, Registry,
};

use crate::cluster::RunDir;
use crate::measure::{median, nproc, SpanId, Spans};
use crate::workloads::{inc_chunk, TABLE};

const WG: usize = 256;
/// Ring slots per drain, the runtime's `drain_batch_slots` default.
const BATCH_SLOTS: usize = 8;
const CRC: WireIntegrity = WireIntegrity::Crc32c;

/// The flush policy `GravelRuntime::with_handlers` hands its aggregators.
fn flush_policy(cfg: &GravelConfig) -> FlushPolicy {
    cfg.adaptive_flush
        .map_or(FlushPolicy::Fixed(cfg.flush_timeout), FlushPolicy::Adaptive)
}

pub struct Replay {
    pub metrics: Vec<(&'static str, f64)>,
    /// Sum of the host-path stages (`replay.work_ns_per_msg`): what one
    /// message costs when every layer's work is done back to back on one
    /// thread.
    pub work_ns_per_msg: f64,
    pub attempted: u64,
    pub failed: u64,
}

struct Stage<'a> {
    spans: &'a mut Spans,
    parent: SpanId,
    metrics: Vec<(&'static str, f64)>,
    failed: u64,
}

impl Stage<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Count a stage whose output was wrong.
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("gbench: stage replay check failed: {what}");
        }
    }
}

/// Number of passes; each metric reports the median of its values, so one
/// disturbed pass (another process on the core, a page-fault storm after a
/// memory-hungry workload) does not set the figure.
const PASSES: usize = 3;

pub fn run(seed: u64, smoke: bool, spans: &mut Spans, parent: SpanId) -> Replay {
    // A multiple of 64 work-groups, so every stage sees whole slots.
    let n = if smoke { 16 * 1024 } else { 1 << 20 };
    let iters = if smoke { 2_000 } else { 200_000 };
    let (stream, hist) = inc_chunk(seed, 0, n);
    let words: Vec<u64> = stream.iter().flat_map(|m| m.encode()).collect();
    let mut passes: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut failed = 0;
    for pass in 0..PASSES {
        let span = spans.begin(format!("replay pass {pass}"), Some(parent));
        let mut st = Stage {
            spans,
            parent: span,
            metrics: Vec::new(),
            failed: 0,
        };
        let work_ns_per_msg = host_path(&mut st, &words, &hist);
        st.put("replay.work_ns_per_msg", work_ns_per_msg);
        wg_produce(&mut st, &words);
        pool_and_sink(&mut st, iters);
        simt_offload(&mut st, seed, n);
        small_frames_crc_route(&mut st, &words, iters);
        uds(&mut st, &words, if smoke { 64 } else { 1024 }, iters / 20);
        aggregator_stage(&mut st, &stream);
        netthread_stage(&mut st, &words);
        rpc_pending(&mut st, iters);
        failed += st.failed;
        passes.push(st.metrics);
        spans.end(span);
    }
    // Every pass puts the same names in the same order.
    let metrics: Vec<(&'static str, f64)> = (0..passes[0].len())
        .map(|i| {
            let values: Vec<f64> = passes.iter().map(|p| p[i].1).collect();
            (passes[0][i].0, median(&values))
        })
        .collect();
    let work_ns_per_msg = metrics
        .iter()
        .find(|(name, _)| *name == "replay.work_ns_per_msg")
        .map_or(0.0, |(_, v)| *v);
    Replay {
        metrics,
        work_ns_per_msg,
        attempted: (PASSES * n) as u64,
        failed,
    }
}

/// The host path on one thread, a drain batch at a time: ring produce →
/// ring drain → per-destination pack → seal → channel → open → apply.
fn host_path(st: &mut Stage, words: &[u64], hist: &[u64]) -> f64 {
    let n = (words.len() / MSG_ROWS) as f64;
    let span = st.spans.begin("host path", Some(st.parent));
    let q = GravelQueue::new(QueueConfig::gravel_default());
    let slot_words = q.config().lane_width * MSG_ROWS;
    let cfg = GravelConfig::paper(2, TABLE / 2);
    let pool = BufferPool::new();
    let mut nq = NodeQueues::with_policy(
        0,
        2,
        cfg.node_queue_bytes,
        flush_policy(&cfg),
        AggCounters::default(),
    )
    .with_pool(pool.clone());
    let fabric = ChannelTransport::new(2, 1, cfg.channel_capacity);
    let heaps = [SymmetricHeap::new(TABLE / 2), SymmetricHeap::new(TABLE / 2)];
    let ams = AmRegistry::new();
    let (mut produce, mut consume, mut push, mut seal, mut chan, mut open, mut apply_ns) =
        (0u64, 0, 0, 0, 0, 0, 0);
    let (mut packets, mut packet_bytes, mut seqs) = (0u64, 0u64, [0u64; 2]);
    let mut drained: Vec<u64> = Vec::new();
    let mut flushed: Vec<Packet> = Vec::new();

    let batches: Vec<&[u64]> = words.chunks(BATCH_SLOTS * slot_words).collect();
    for (i, batch) in batches.iter().enumerate() {
        let b = st.spans.begin("drain batch", Some(span));
        let ((), ns) = st.spans.call("GravelQueue::produce_batch", Some(b), || {
            for slot in batch.chunks(slot_words) {
                q.produce_batch(slot, slot.len() / MSG_ROWS);
            }
        });
        produce += ns;
        drained.clear();
        let ((), ns) = st
            .spans
            .call("GravelQueue::try_consume_batch", Some(b), || {
                while drained.len() < batch.len() {
                    if let Consumed::Batch(_) = q.try_consume_batch(&mut drained, BATCH_SLOTS) {}
                }
            });
        consume += ns;
        // Same-destination runs, as the aggregator's scan finds them; the
        // scan is the aggregator's work and stays outside this timer.
        let mut runs = Vec::new();
        let mut pos = 0;
        while pos < drained.len() {
            let dest = drained[pos + 1];
            let mut end = pos;
            while end < drained.len() && drained[end + 1] == dest {
                end += MSG_ROWS;
            }
            runs.push((dest as usize, pos, end));
            pos = end;
        }
        let now = Instant::now();
        let ((), ns) = st.spans.call("NodeQueues::push_run", Some(b), || {
            for &(dest, from, to) in &runs {
                nq.push_run(dest, &drained[from..to], MSG_ROWS, now, &mut flushed);
            }
            if i + 1 == batches.len() {
                nq.flush_all_into(&mut flushed);
            }
        });
        push += ns;
        for mut pkt in flushed.drain(..) {
            pkt.seq = seqs[pkt.dest as usize];
            seqs[pkt.dest as usize] += 1;
            packets += 1;
            packet_bytes += pkt.len() as u64;
            let (frame, ns) = st.spans.call("Packet::seal_in", Some(b), || {
                pkt.seal_in(0, CRC, Some(&pool))
            });
            seal += ns;
            let dest = frame.dest;
            let (got, ns) = st
                .spans
                .call("ChannelTransport send_data+recv_data", Some(b), || {
                    fabric.send_data(frame, Duration::from_secs(1));
                    fabric.recv_data(dest, Duration::from_secs(1))
                });
            chan += ns;
            let RecvStatus::Msg(frame) = got else {
                st.check(false, "channel lost a frame");
                continue;
            };
            let (opened, ns) = st
                .spans
                .call("DataFrame::open", Some(b), || frame.open(CRC));
            open += ns;
            let Ok(pkt) = opened else {
                st.check(false, "sealed frame failed to open");
                continue;
            };
            let heap = &heaps[pkt.dest as usize];
            let ((), ns) = st
                .spans
                .call("Packet::messages + pgas::apply", Some(b), || {
                    for w in pkt.messages() {
                        if let Some(msg) = Message::decode(w) {
                            apply(&msg, pkt.src, heap, &ams, &mut |_| {});
                        }
                    }
                });
            apply_ns += ns;
        }
        st.spans.end(b);
    }
    st.spans.end(span);
    let part = Partition::new(TABLE, 2, Layout::Cyclic);
    let exact = hist
        .iter()
        .enumerate()
        .all(|(g, &want)| heaps[part.owner(g)].load(part.local_offset(g)) == want);
    st.check(exact, "host-path heaps differ from the stream's histogram");

    let per_packet = |ns: u64| ns as f64 / packets.max(1) as f64;
    st.put("gq.produce_batch_ns_per_msg", produce as f64 / n);
    st.put("gq.consume_batch_ns_per_msg", consume as f64 / n);
    st.put("pgas.nodeq_push_run_ns_per_msg", push as f64 / n);
    st.put("pgas.nodeq_avg_packet_bytes", per_packet(packet_bytes));
    st.put("pgas.frame_seal_ns_per_packet", per_packet(seal));
    st.put("pgas.frame_open_ns_per_packet", per_packet(open));
    st.put("net.channel_send_recv_ns_per_frame", per_packet(chan));
    st.put("pgas.apply_ns_per_msg", apply_ns as f64 / n);
    (produce + consume + push + seal + chan + open + apply_ns) as f64 / n
}

fn drain_all(q: &GravelQueue, scratch: &mut Vec<u64>) {
    loop {
        scratch.clear();
        if !matches!(
            q.try_consume_batch(scratch, BATCH_SLOTS),
            Consumed::Batch(_)
        ) {
            return;
        }
    }
}

/// `GravelQueue::wg_produce` from 256-work-item work-groups on one compute
/// unit, 64 work-groups per dispatch into a ring drained between
/// dispatches (outside the timer).
fn wg_produce(st: &mut Stage, words: &[u64]) {
    let span = st.spans.begin("gq.wg_produce", Some(st.parent));
    let q = GravelQueue::new(QueueConfig::gravel_default());
    let engine = SimtEngine::with_cus(1);
    let mut scratch = Vec::new();
    let mut total = 0u64;
    for group in words.chunks(64 * WG * MSG_ROWS) {
        let grid = Grid {
            wg_count: group.len() / (WG * MSG_ROWS),
            wg_size: WG,
            wf_width: 64,
        };
        let (_, ns) = st.spans.call(
            "SimtEngine::dispatch(GravelQueue::wg_produce)",
            Some(span),
            || {
                engine.dispatch(grid, |ctx| {
                    let base = ctx.wg_id() * WG;
                    q.wg_produce(ctx, |lane, row| group[(base + lane) * MSG_ROWS + row]);
                })
            },
        );
        total += ns;
        drain_all(&q, &mut scratch);
    }
    st.spans.end(span);
    st.put(
        "gq.wg_produce_ns_per_msg",
        total as f64 / (words.len() / MSG_ROWS) as f64,
    );
}

/// The buffer arena's take/put pair and the reply sink's life for one GET.
fn pool_and_sink(st: &mut Stage, iters: usize) {
    let pool = BufferPool::new();
    let ((), ns) = st
        .spans
        .call("BufferPool::take + put", Some(st.parent), || {
            for _ in 0..iters {
                let (buf, ticket) = pool.take(64 * 1024);
                pool.put(black_box(buf), ticket);
            }
        });
    st.put("gq.pool_take_put_ns", ns as f64 / iters as f64);
    st.check(
        pool.hits() as usize >= iters - 1,
        "buffer pool did not recycle",
    );

    let (ok, ns) = st.spans.call(
        "ReplySink new/arm/complete/wait_all/get",
        Some(st.parent),
        || {
            let mut ok = true;
            for i in 0..iters as u64 {
                let sink = Arc::new(ReplySink::new(1));
                sink.arm();
                sink.complete(0, i);
                ok &= sink.wait_all(Duration::from_secs(1))
                    && sink.get(0) == gravel_core::ReplyState::Ok(i);
            }
            ok
        },
    );
    st.check(ok, "reply sink lost a completion");
    st.put("gq.replysink_complete_ns", ns as f64 / iters as f64);
}

/// The GUPS kernel through `GravelCtx::shmem_inc` on every compute unit,
/// into a node ring that a bench thread drains and discards.
fn simt_offload(st: &mut Stage, seed: u64, n: usize) {
    let cus = nproc();
    let mut cfg = GravelConfig::paper(2, TABLE / 2);
    cfg.num_cus = cus;
    let node = NodeShared::new(0, &cfg, Arc::new(AmRegistry::new()));
    let dir = Directory::fixed(Partition::new(TABLE, 2, Layout::Cyclic));
    let updates = gravel_apps::gups::node_updates(
        &gravel_apps::gups::GupsInput {
            updates: 2 * n,
            table_len: TABLE,
            seed,
        },
        2,
        0,
    );
    let engine = SimtEngine::with_cus(cus);
    let grid = Grid {
        wg_count: updates.len() / WG,
        wg_size: WG,
        wf_width: cfg.wf_width,
    };
    let stop = AtomicBool::new(false);
    let (res, ns) = std::thread::scope(|s| {
        s.spawn(|| {
            let mut scratch = Vec::new();
            while !stop.load(Ordering::Acquire) {
                drain_all(node.queue.ring(0), &mut scratch);
                std::thread::yield_now();
            }
            drain_all(node.queue.ring(0), &mut scratch);
        });
        let out = st.spans.call(
            "SimtEngine::dispatch(GravelCtx::shmem_inc)",
            Some(st.parent),
            || {
                engine.dispatch(grid, |wg| {
                    let mut ctx = GravelCtx::new(wg, &node, true);
                    let gids = ctx.wg.global_ids();
                    let route = |l: usize| dir.route(updates[gids.get(l)]);
                    let dests = LaneVec::from_fn(WG, |l| route(l).dest);
                    let addrs = LaneVec::from_fn(WG, |l| route(l).offset);
                    ctx.shmem_inc(&dests, &addrs, &LaneVec::splat(WG, 1u64));
                })
            },
        );
        stop.store(true, Ordering::Release);
        out
    });
    let sent = res.counters.messages;
    st.check(
        sent == (grid.wg_count * WG) as u64,
        "SIMT kernel offloaded a different message count",
    );
    st.put("simt.offload_ns_per_msg", ns as f64 / sent.max(1) as f64);
    st.put("simt.atomics_per_msg", res.counters.atomics_per_message());
    st.put(
        "simt.utilization",
        res.counters.simt_utilization(cfg.wf_width),
    );
}

/// One-message RPC frames, the CRC kernel on a 64 kB buffer, and the
/// directory lookup.
fn small_frames_crc_route(st: &mut Stage, words: &[u64], iters: usize) {
    let get = Packet::from_words(0, 1, &Message::get(1, 7, 42, 250).encode());
    let (frame, ns) = st
        .spans
        .call("Packet::seal (one GET)", Some(st.parent), || {
            let mut last = get.seal(0, CRC);
            for _ in 1..iters {
                last = black_box(&get).seal(0, CRC);
            }
            last
        });
    st.put("pgas.frame_seal_small_ns", ns as f64 / iters as f64);
    let (ok, ns) = st
        .spans
        .call("DataFrame::open (one GET)", Some(st.parent), || {
            (0..iters).all(|_| black_box(&frame).open(CRC).is_ok())
        });
    st.check(ok, "small frame failed to open");
    st.put("pgas.frame_open_small_ns", ns as f64 / iters as f64);

    let buf: Vec<u8> = words
        .iter()
        .take(8192)
        .flat_map(|w| w.to_le_bytes())
        .collect();
    let rounds = (iters / 10).max(1);
    let (sum, ns) = st.spans.call("pgas::crc32c (64 kB)", Some(st.parent), || {
        (0..rounds).fold(0u32, |acc, _| acc ^ crc32c(black_box(&buf)))
    });
    black_box(sum);
    st.put(
        "pgas.crc32c_gb_per_s",
        (buf.len() * rounds) as f64 / ns.max(1) as f64,
    );

    let dir = Directory::fixed(Partition::new(TABLE, 2, Layout::Cyclic));
    let (sum, ns) = st.spans.call("Directory::route", Some(st.parent), || {
        (0..iters).fold(0u64, |acc, i| {
            let r = dir.route(black_box(i % TABLE));
            acc + r.offset + u64::from(r.dest)
        })
    });
    black_box(sum);
    st.put("pgas.directory_route_ns", ns as f64 / iters as f64);
}

fn recv_one(t: &SocketTransport, node: u32) -> bool {
    let until = Instant::now() + Duration::from_secs(5);
    while Instant::now() < until {
        match t.recv_data(node, Duration::from_millis(100)) {
            RecvStatus::Msg(_) => return true,
            RecvStatus::TimedOut => {}
            RecvStatus::Closed => return false,
        }
    }
    false
}

/// Two `SocketTransport`s in this process over Unix sockets, as
/// `crates/net/tests/socket.rs` pairs them: one frame at a time for the
/// hand-off latency, then a stream for the byte rate.
fn uds(st: &mut Stage, words: &[u64], stream_frames: usize, pings: usize) {
    let span = st.spans.begin("net.uds", Some(st.parent));
    let pair = RunDir::create("uds").and_then(|dir| {
        let addrs: Vec<_> = (0..2)
            .map(|i| SocketAddrSpec::Uds(dir.0.join(format!("n{i}.sock"))))
            .collect();
        let t0 = SocketTransport::spawn(SocketConfig::new(0, addrs.clone()))?;
        let t1 = SocketTransport::spawn(SocketConfig::new(1, addrs))?;
        Ok((dir, t0, t1))
    });
    let connected = pair.as_ref().is_ok_and(|(_, t0, t1)| {
        t0.wait_connected(1, Duration::from_secs(5)) && t1.wait_connected(0, Duration::from_secs(5))
    });
    st.check(connected, "socket pair did not connect");
    let (mut big_ns, mut small_ns, mut mb_per_s) = (0.0, 0.0, 0.0);
    if let (true, Ok((_dir, t0, t1))) = (connected, &pair) {
        let big = Packet::from_words(1, 0, &words[..2048 * MSG_ROWS]).seal(0, CRC);
        let small = Packet::from_words(1, 0, &Message::get(0, 7, 42, 250).encode()).seal(0, CRC);
        let ping = |st: &mut Stage, name: &str, frame: &DataFrame, count: usize| {
            let (ok, ns) = st.spans.call(name, Some(span), || {
                (0..count).all(|_| {
                    t1.send_data(frame.clone(), Duration::from_secs(1));
                    recv_one(t0, 0)
                })
            });
            st.check(ok, "socket lost a frame");
            ns as f64 / count as f64
        };
        big_ns = ping(
            st,
            "SocketTransport send_data+recv_data (64 kB)",
            &big,
            pings.max(1),
        );
        small_ns = ping(
            st,
            "SocketTransport send_data+recv_data (one GET)",
            &small,
            pings.max(1),
        );
        let (ok, ns) = st
            .spans
            .call("SocketTransport stream (64 kB frames)", Some(span), || {
                std::thread::scope(|s| {
                    s.spawn(|| {
                        for _ in 0..stream_frames {
                            t1.send_data(big.clone(), Duration::from_secs(1));
                        }
                    });
                    (0..stream_frames).all(|_| recv_one(t0, 0))
                })
            });
        st.check(ok, "socket stream lost a frame");
        mb_per_s = (stream_frames * big.len()) as f64 / 1e6 / (ns as f64 / 1e9);
        t0.close();
        t1.close();
    }
    st.spans.end(span);
    st.put("net.uds_send_recv_ns_per_frame_64k", big_ns);
    st.put("net.uds_send_recv_ns_per_frame_small", small_ns);
    st.put("net.uds_mb_per_s", mb_per_s);
}

/// A fabric that swallows data frames and acknowledges each at once, so
/// `aggregator::run` can be timed without a receiver.
struct SinkTransport {
    acks: Mutex<VecDeque<AckFrame>>,
    closed: AtomicBool,
}

impl Transport for SinkTransport {
    fn nodes(&self) -> usize {
        2
    }

    fn lanes(&self) -> usize {
        1
    }

    fn send_data(&self, frame: DataFrame, _timeout: Duration) -> SendStatus {
        // Header fields only: the sink does no receiver work.
        if let Ok(head) = open_data_frame(&frame.bytes, WireIntegrity::Off) {
            let ack = Ack {
                src: head.dest,
                dest: head.src,
                lane: head.lane,
                cum_seq: head.seq,
            };
            self.acks
                .lock()
                .expect("ack mailbox")
                .push_back(ack.seal(head.epoch, CRC));
        }
        SendStatus::Sent
    }

    fn recv_data(&self, _node: u32, timeout: Duration) -> RecvStatus<DataFrame> {
        if self.is_closed() {
            return RecvStatus::Closed;
        }
        std::thread::sleep(timeout);
        RecvStatus::TimedOut
    }

    fn send_ack(&self, _ack: AckFrame) {}

    fn try_recv_ack(&self, _node: u32, _lane: u32) -> Option<AckFrame> {
        self.acks.lock().expect("ack mailbox").pop_front()
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn data_depths(&self) -> Vec<usize> {
        vec![0; 2]
    }

    fn ack_depths(&self, _node: u32) -> usize {
        self.acks.lock().expect("ack mailbox").len()
    }
}

/// `aggregator::run` on a bare `NodeShared`, fed by `host_send_batch` from
/// this thread, sending into the sink: first send to the lane's exit.
fn aggregator_stage(st: &mut Stage, stream: &[Message]) {
    let cfg = GravelConfig::paper(2, TABLE / 2);
    let node = Arc::new(NodeShared::new(0, &cfg, Arc::new(AmRegistry::new())));
    let sink = Arc::new(SinkTransport {
        acks: Mutex::new(VecDeque::new()),
        closed: AtomicBool::new(false),
    });
    let errors = Arc::new(ErrorSlot::default());
    let policy = flush_policy(&cfg);
    let (joined, ns) = st.spans.call("aggregator::run", Some(st.parent), || {
        let lane = {
            let (node, sink, errors) = (node.clone(), sink.clone(), errors.clone());
            std::thread::spawn(move || {
                aggregator::run(node, 0, sink, cfg.node_queue_bytes, policy, errors)
            })
        };
        node.host_send_batch(stream);
        node.queue.close();
        lane.join().is_ok()
    });
    let packed = node.stats().agg.messages;
    st.check(
        joined && !errors.is_set() && packed == stream.len() as u64,
        "aggregator lane lost messages",
    );
    st.put(
        "core.aggregator_ns_per_msg",
        ns as f64 / stream.len() as f64,
    );
}

/// Pre-sealed 64 kB frames through a `ChannelTransport` into
/// `netthread::run`: first send until the node has applied every message.
fn netthread_stage(st: &mut Stage, words: &[u64]) {
    let cfg = GravelConfig::paper(2, TABLE / 2);
    let node = Arc::new(NodeShared::new(0, &cfg, Arc::new(AmRegistry::new())));
    let fabric = Arc::new(ChannelTransport::new(2, 1, cfg.channel_capacity));
    let errors = Arc::new(ErrorSlot::default());
    let per_frame = cfg.node_queue_bytes / 8;
    let frames: Vec<DataFrame> = words
        .chunks(per_frame)
        .enumerate()
        .map(|(seq, chunk)| {
            let mut pkt = Packet::from_words(1, 0, chunk);
            pkt.seq = seq as u64;
            pkt.seal(0, CRC)
        })
        .collect();
    let total = (words.len() / MSG_ROWS) as u64;
    let receiver = {
        let (node, fabric, errors) = (node.clone(), fabric.clone(), errors.clone());
        std::thread::spawn(move || netthread::run(node, fabric, errors))
    };
    let (done, ns) = st.spans.call("netthread::run", Some(st.parent), || {
        let until = Instant::now() + Duration::from_secs(30);
        for frame in &frames {
            while fabric.send_data(frame.clone(), Duration::from_millis(100)) != SendStatus::Sent {
                if Instant::now() >= until {
                    return false;
                }
            }
            while fabric.try_recv_ack(1, 0).is_some() {}
        }
        while node.applied.get() < total {
            if Instant::now() >= until {
                return false;
            }
            std::thread::yield_now();
        }
        true
    });
    fabric.close();
    let joined = receiver.join().is_ok();
    // Every message is an INC by one, so the heap sums to the count.
    let sum: u64 = node.heap.snapshot().iter().sum();
    st.check(
        done && joined && sum == total,
        "network thread did not apply every message",
    );
    st.put("core.netthread_ns_per_msg", ns as f64 / total as f64);
}

/// The pending-reply table's register/complete pair for one GET.
fn rpc_pending(st: &mut Stage, iters: usize) {
    let table = PendingReplies::bound(&Registry::enabled(), "bench", 4096);
    let deadline = Instant::now() + Duration::from_secs(3600);
    let (ok, ns) = st.spans.call(
        "PendingReplies::register + complete",
        Some(st.parent),
        || {
            (0..iters as u64).all(|i| {
                let sink = Arc::new(ReplySink::new(1));
                table
                    .register(sink, 0, deadline)
                    .is_ok_and(|token| table.complete(token, i))
            })
        },
    );
    st.check(ok && table.is_empty(), "pending-reply table lost an entry");
    st.put(
        "core.rpc_pending_register_complete_ns",
        ns as f64 / iters as f64,
    );
}

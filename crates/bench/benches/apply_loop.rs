//! The network thread's apply loop, 2 × 2 (EXPERIMENTS.md "Apply at the
//! network thread"): how an INC resolves — a locked `fetch_add`
//! (`SymmetricHeap::with_concurrent_atomics`, what every node paid until
//! PR 22 and the `serialize_atomics = false` ablation still does) or the
//! single-writer load + store — by how a packet is walked — one
//! `Message::decode` + `pgas::apply` per message (the loop until PR 22,
//! kept as the test oracle) or `apply_stream`'s PUT/INC runs.
//!
//! Sixteen 64 kB packets of uniformly addressed INCs, applied round
//! robin to heaps of 512 words (L1), 8 Ki (the size class of `gbench`'s
//! tables), 100 k (L2) and 4 Mi (DRAM: the misses dominate every cell).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gravel_gq::Message;
use gravel_pgas::{
    apply, apply_stream, AmRegistry, Applied, Packet, SymmetricHeap, DEFAULT_QUEUE_BYTES,
    PAIR_BYTES, RUN_HEADER_BYTES,
};

const PACKETS: usize = 16;
/// INC records in a full queue.
const PER_PACKET: usize = (DEFAULT_QUEUE_BYTES - RUN_HEADER_BYTES) / PAIR_BYTES;

fn packets(heap_len: usize) -> Vec<Packet> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..PACKETS)
        .map(|_| {
            let mut words = Vec::with_capacity(PER_PACKET * 4);
            for _ in 0..PER_PACKET {
                // xorshift64: cheap and seeded, the addresses only need
                // to be spread.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                words.extend(Message::inc(0, x % heap_len as u64, 1).encode());
            }
            Packet::from_words(1, 0, &words)
        })
        .collect()
}

/// One way to walk a packet.
type Walk = fn(&Packet, &SymmetricHeap, &AmRegistry);

fn by_message(pkt: &Packet, heap: &SymmetricHeap, ams: &AmRegistry) {
    for words in pkt.messages() {
        if let Some(msg) = Message::decode(words) {
            apply(&msg, pkt.src, heap, ams, &mut |_| {});
        }
    }
}

fn run_wise(pkt: &Packet, heap: &SymmetricHeap, ams: &AmRegistry) {
    let payload: &[u8] = &pkt.payload;
    apply_stream(
        payload,
        pkt.dest,
        &mut 0,
        heap,
        || false,
        |_, words| match Message::decode(words) {
            Some(msg) => apply(&msg, pkt.src, heap, ams, &mut |_| {}) != Applied::Shutdown,
            None => true,
        },
    );
}

fn apply_loop(c: &mut Criterion) {
    let ams = AmRegistry::new();
    for heap_len in [512, 8 << 10, 100_000, 4 << 20] {
        let mut group = c.benchmark_group(&format!("apply_loop/{heap_len}_words"));
        group.sample_size(30);
        group.throughput(Throughput::Elements(PER_PACKET as u64));
        let packets = packets(heap_len);
        for (inc, locked) in [("locked", true), ("single_writer", false)] {
            let heap = if locked {
                SymmetricHeap::with_concurrent_atomics(heap_len)
            } else {
                SymmetricHeap::new(heap_len)
            };
            let walks: [(&str, Walk); 2] = [("per_message", by_message), ("run_wise", run_wise)];
            for (walk, f) in walks {
                let mut next = 0;
                group.bench_function(BenchmarkId::new(inc, walk), |b| {
                    b.iter(|| {
                        next = (next + 1) % PACKETS;
                        f(&packets[next], &heap, &ams)
                    })
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, apply_loop);
criterion_main!(benches);

//! Focused wire-integrity ablation: GUPS with CRC32C on vs
//! off, repeated, printing only the tax. Diagnostic companion to the
//! full `throughput` bin for iterating on the seal/verify hot path.

use gravel_bench::throughput::{self, Scale};

fn main() {
    // Micro: isolated seal cost at the bench's typical frame size.
    {
        use gravel_core::pgas::Packet;
        use gravel_core::WireIntegrity;
        let words: Vec<u64> = (0..2035 * 4).map(|i| i as u64).collect();
        let pkt = Packet::from_words(0, 1, &words);
        for integ in [WireIntegrity::Crc32c, WireIntegrity::Off] {
            let t = std::time::Instant::now();
            let iters = 20_000;
            for _ in 0..iters {
                std::hint::black_box(pkt.seal(0, integ));
            }
            let ns = t.elapsed().as_nanos() as f64 / iters as f64;
            println!("seal {integ:?}: {ns:.0} ns/frame ({:.2} GB/s)", 65120.0 / ns);
        }
    }

    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let scale = Scale {
        pr_vertices: 4, // skip PageRank — this probe is GUPS-only
        pr_iters: 1,
        ..Scale::full()
    };
    for _ in 0..reps {
        let r = throughput::measure(&scale, 4, false);
        let on = r.cell("gups").unwrap().msgs_per_sec / 1e6;
        let off = r.cell("gups_nocrc").unwrap().msgs_per_sec / 1e6;
        println!(
            "crc32c {on:.2} Mmsg/s  off {off:.2} Mmsg/s  tax {:.2}%",
            r.integrity_tax * 100.0
        );
    }
}

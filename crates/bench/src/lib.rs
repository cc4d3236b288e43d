//! # gravel-bench — the experiment harness
//!
//! One binary per table/figure of the paper, the fault sweep of the live
//! runtime, plus criterion microbenchmarks for the atomics and
//! apply-loop studies. The repository's
//! end-to-end benchmark is `gbench/` (see `BENCHMARK.json`), not this
//! crate:
//!
//! | Target | Reproduces | Kind |
//! |---|---|---|
//! | `--bin fig6` | Fig. 6 — queue throughput vs work-group size | live queues |
//! | `--bin fig8` | Fig. 8 — queue throughput vs message size | live queues |
//! | `--bin fig12` | Fig. 12 — Gravel scalability, 9 workloads | trace + model |
//! | `--bin fig13` | Fig. 13 — Gravel vs CPU systems | trace + model |
//! | `--bin fig14` | Fig. 14 — aggregation-size sensitivity | trace + model |
//! | `--bin fig15` | Fig. 15 — style comparison at 8 nodes | trace + model |
//! | `--bin table1` | Table 1 — model criteria (measured) | live + model |
//! | `--bin table2` | Table 2 — GUPS lines of code | source count |
//! | `--bin table3_table4` | Tables 3, 4 — configuration and inputs, paper vs. here | descriptive |
//! | `--bin table5` | Table 5 — network statistics at 8 nodes | trace + model |
//! | `--bin sec8` | §8.2 — diverged WG-level operations | live SIMT |
//! | `--bin extensions` | §10 hierarchy + §8.1 hw aggregator (future work) | model |
//! | `--bin all_experiments` | every generator above, in order | — |
//! | `--bin fault_sweep` | GUPS vs injected drop / corruption; reshard and failover cells | live runtime, reshard replay, HA machine (`ha::sim`) |
//! | `--bench ablation_atomics` | serialized vs concurrent local atomics | live runtime |
//! | `--bench apply_loop` | the network thread's apply loop, 2 × 2 | single thread |
//!
//! Each binary prints an aligned table and saves JSON under `results/`
//! (or `$GRAVEL_RESULTS_DIR`). The paper generators accept `--quick` to
//! run at test scale; `fault_sweep` runs at test scale by default and
//! takes `--full` for the full one.

pub mod experiments;
pub mod queue_bench;
pub mod report;

pub use report::Table;

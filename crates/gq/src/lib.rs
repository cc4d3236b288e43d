//! # gravel-gq — GPU-efficient producer/consumer queues
//!
//! The substrate of Gravel's core contribution (paper §4): a
//! producer/consumer queue that lets thousands of GPU work-items offload
//! small messages to CPU consumer threads with synchronization amortized
//! across each work-group.
//!
//! * [`GravelQueue`] — the work-group-slot queue: a leader work-item
//!   reserves a whole slot with one `fetch_add`, lanes write the slot's
//!   columns coalesced, and the ticket/full-bit protocol hands slots to
//!   consumers. Also provides the work-item-granularity strawman
//!   ([`GravelQueue::wi_produce`]) that the paper measures at two orders
//!   of magnitude slower.
//! * [`SpscQueue`] / [`MpmcQueue`] — the CPU-only baselines of Figure 8,
//!   with the cache-line padding that makes them expensive for small
//!   messages.
//! * [`Message`]/[`Command`] — the 32-byte PGAS message format (PUT,
//!   atomic increment, active message).
//! * [`QueueStats`] — dynamically-profiled synchronization counts
//!   (Figure 6's atomics-per-work-item, §8.1's poll fraction).
//!
//! ```
//! use gravel_gq::{GravelQueue, QueueConfig, Message, Consumed};
//! use gravel_simt::{SimtEngine, Grid};
//!
//! let q = GravelQueue::new(QueueConfig { slots: 8, lane_width: 64, rows: 4 });
//! // A GPU kernel: every work-item sends one atomic-increment message.
//! SimtEngine::with_cus(2).dispatch(Grid { wg_count: 4, wg_size: 64, wf_width: 64 }, |ctx| {
//!     let base = ctx.wg_id() * ctx.wg_size();
//!     q.wg_produce(ctx, |lane, row| Message::inc(0, (base + lane) as u64, 1).encode()[row]);
//! });
//! // A CPU consumer drains whole slots.
//! let mut out = Vec::new();
//! let mut messages = 0;
//! while let Consumed::Batch(n) = q.try_consume_into(&mut out) {
//!     messages += n;
//! }
//! assert_eq!(messages, 4 * 64);
//! ```

pub mod gravel_queue;
pub mod mpmc;
pub mod msg;
pub mod pad;
pub mod park;
pub mod pool;
pub mod replysink;
pub mod spsc;
pub mod stats;

pub use gravel_queue::{Claim, Consumed, GravelQueue, QueueConfig, SlotView};
pub use mpmc::MpmcQueue;
pub use msg::{Band, Command, Message, MSG_BYTES, MSG_ROWS, NUM_BANDS};
pub use pad::CachePad;
pub use park::WaitCell;
pub use pool::BufferPool;
pub use replysink::{ReplySink, ReplyState, RpcFailure};
pub use spsc::SpscQueue;
pub use stats::{QueueStats, StatsSnapshot};

/// Cases per seeded property in this crate's unit tests: 256 in a debug
/// build, 4096 in `--release` (CI's `release-oracles`), or
/// `GRAVEL_FUZZ_CASES`.
#[cfg(test)]
pub(crate) fn fuzz_cases() -> u64 {
    std::env::var("GRAVEL_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 256 } else { 4096 })
}

//! # gravel-pgas — partitioned-global-address-space substrate
//!
//! The memory and messaging substrate under the Gravel runtime:
//!
//! * [`SymmetricHeap`] — one node's slice of the PGAS array, with the
//!   atomic operations PUT/INC/active-message resolution needs.
//! * [`Partition`] — global-index → (owner node, local offset) mapping,
//!   block or cyclic.
//! * [`AmRegistry`] — destination-side active-message handlers.
//! * [`NodeQueues`] — the aggregator's per-destination queues (64 kB,
//!   125 µs timeout by default, paper Table 3) producing network
//!   [`Packet`]s.
//! * [`command`] — applying received messages as local memory operations.
//! * [`frame`] — the checksummed wire frame (CRC32C header + trailer)
//!   every packet and ack travels in.
//! * [`runs`] — the packet payload: runs of `(addr, value)` PUT and INC
//!   records, and whole messages for everything else.
//! * [`quarantine`] — the bounded dead-letter buffer for CRC-clean but
//!   semantically poisonous messages.

pub mod am;
pub mod command;
pub mod frame;
pub mod heap;
pub mod nodeq;
pub mod partition;
pub mod quarantine;
pub mod runs;
pub mod shard;

pub use am::{relax_min_handler, AmHandler, AmRegistry, AmReturningHandler};
pub use command::{apply, apply_stream, apply_words, Applied, StreamEnd};
pub use frame::{
    crc32c, open_ack, open_control, open_data_frame, open_frame, open_heartbeat, open_hello,
    open_reject, seal_ack, seal_control, seal_control_into, seal_frame, seal_frame_in,
    seal_heartbeat, seal_hello, seal_reject, split_wire_lane, wire_lane, DataFrame, FrameError,
    FrameHead, FrameKind, HelloInfo, RejectReason, WireIntegrity, ACK_FRAME_BYTES, ACK_MAP_BITS,
    FRAME_OVERHEAD, HEADER_BYTES,
};
pub use heap::SymmetricHeap;
pub use quarantine::{Quarantine, QuarantineReason, QuarantinedMessage};
pub use nodeq::{
    AdaptiveFlush, AggCounters, AggStats, FlushPolicy, NodeQueues, Packet, DEFAULT_QUEUE_BYTES,
    DEFAULT_TIMEOUT, MIN_QUEUE_BYTES,
};
pub use runs::{Messages, PayloadWords, RunKind, PAIR_BYTES, RUN_HEADER_BYTES};
pub use partition::{Layout, Partition};
pub use shard::{Directory, FencedInstall, Route, ShardMap, ShardMove, DEFAULT_SHARDS};

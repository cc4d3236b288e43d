//! # gravel-core — the Gravel runtime
//!
//! A Rust reproduction of **Gravel** (Orr et al., SC'17): fine-grain
//! GPU-initiated network messages with CPU-side aggregation.
//!
//! GPU work-items call PGAS operations (`shmem_put`, `shmem_inc`, active
//! messages) from arbitrary — even divergent — kernel code. Messages flow
//! through a GPU-efficient producer/consumer queue (one atomic reservation
//! per work-group, coalesced payload writes) to a per-node **aggregator**
//! CPU thread, which repacks them into 64 kB per-destination queues sent
//! when full or after 125 µs. A **network thread** at each destination
//! applies arriving messages as local memory operations and serializes
//! all atomics.
//!
//! The crate hosts the whole cluster in one process (nodes are thread
//! groups, links are channels), which exercises the paper's exact code
//! path — queue → aggregator → network thread → remote symmetric heap —
//! with real shared-memory synchronization between the (software) GPU and
//! the CPU threads. Multi-node *timing* is the business of the
//! `gravel-cluster` simulator; this runtime is for correctness, API, and
//! the queue-level microbenchmarks.
//!
//! Start at [`GravelRuntime`] and [`GravelCtx`].

pub mod aggregator;
pub mod backoff;
pub mod config;
pub mod ctx;
pub mod error;
pub mod flow;
pub mod ha;
pub mod netthread;
pub mod node;
pub mod reshard;
pub mod rings;
pub mod rpc;
pub mod runtime;
pub mod stats;

pub use config::GravelConfig;
pub use ctx::GravelCtx;
pub use error::{ErrorSlot, RuntimeError};
pub use ha::{
    Checkpoint, FailureDetector, HaConfig, HeartbeatConfig, PeerStatus, RecoveryLog, Supervisor,
    SupervisorConfig, WorkerKind,
};
pub use node::NodeShared;
pub use rings::RingPair;
pub use rpc::{PendingReplies, RpcConfig, RpcError};
pub use runtime::GravelRuntime;
pub use stats::{HaStats, NetStats, NodeStats, RpcStats, RuntimeStats};

// Re-export the layers callers routinely need alongside the runtime.
pub use gravel_gq as gq;
pub use gravel_gq::{Band, ReplySink, ReplyState, RpcFailure};
pub use gravel_net as net;
pub use gravel_net::{
    ChaosPlan, FaultConfig, FaultStats, ProcessFault, RetryConfig, TransportKind,
};
pub use gravel_pgas as pgas;
pub use gravel_pgas::{
    AdaptiveFlush, FlushPolicy, FrameError, Quarantine, QuarantineReason, QuarantinedMessage,
    WireIntegrity,
};
pub use gravel_simt as simt;
pub use gravel_telemetry as telemetry;
pub use gravel_telemetry::{Registry, RegistrySnapshot, TelemetryConfig, Tracer};

//! gravel-ha — node-level fault tolerance for the live runtime.
//!
//! PR 1 made *links* survivable: the delivery protocol (sequence
//! numbers, selective acks, retransmission) delivers every
//! message exactly once over a transport that drops, duplicates, and
//! reorders. This layer makes *nodes* survivable. Three mechanisms:
//!
//! 1. **Failure detection** ([`heartbeat`]) — each `gravel-node`
//!    process emits best-effort heartbeats over its socket transport's
//!    heartbeat plane; a phi-accrual detector per observer turns
//!    inter-arrival statistics into a continuous suspicion level,
//!    distinguishing *slow* (phi above the suspect threshold, below
//!    dead) from *dead* (phi above the dead threshold). Suspicion is
//!    exported as per-peer gauges. [`sim`] feeds the same detector
//!    virtual beats.
//!
//! 2. **Supervised restart** ([`supervisor`]) — the in-process
//!    runtime's worker threads (aggregators, network threads) run under
//!    a supervisor that restarts a panicked worker with exponential
//!    backoff, bounded per restart window. Worker state (sender
//!    windows, receive cursors) lives in shared `Mutex`es outside the
//!    threads, so a restarted worker resumes exactly where its
//!    predecessor died; the delivery protocol's sequence numbers and
//!    acks make the replay exact. Budget exhaustion escalates the
//!    original panic through the runtime's [`ErrorSlot`](crate::ErrorSlot).
//!
//! 3. **Epoch checkpointing** ([`checkpoint`]) — with
//!    [`GravelConfig::checkpoint`](crate::GravelConfig::checkpoint) the
//!    runtime cuts a consistent epoch (a quiesce-lite barrier)
//!    into each node's [`RecoveryLog`]: a baseline of its PGAS heap,
//!    flow cursors and app progress (via the [`Checkpoint`] trait),
//!    then every packet it applies. A node declared dead is restored
//!    by replaying its log, reproducing the exact pre-death heap.
//!
//! A fourth mechanism builds on the first three: **elastic
//! rebalancing** ([`rebalance`]) — the coordinator-side state machine
//! that commits JOIN/LEAVE/EVICT proposals one at a time at epoch
//! boundaries and tracks the resulting shard migration; every node's
//! HA machine holds one and drives it while it holds the lease
//! (DESIGN.md §16).
//!
//! A fifth makes the coordinator *role* itself survivable: **lease +
//! fencing + quorum** ([`lease`]) — a monotonically increasing term
//! stamped into every topology frame fences off resurrected stale
//! coordinators, the lowest live member succeeds a dead holder, and a
//! death-vote quorum over the last-committed membership keeps a
//! minority partition from evicting anyone or forking the map. Every
//! decision the lease, the votes and the rebalancer drive is one pure
//! state machine ([`machine`]); [`sim`] runs N of them in seeded
//! virtual time (DESIGN.md §18).
//!
//! The chaos side — *injecting* the process faults these mechanisms
//! absorb — lives in `gravel-net`'s [`ChaosPlan`](gravel_net::ChaosPlan),
//! next to the link-fault machinery it extends.
//!
//! What is **not** recovered (see DESIGN.md §11): messages still in the
//! GPU producer/consumer queue at the instant of a *node* death (a
//! worker restart preserves them), and panics at arbitrary instruction
//! boundaries — injected chaos fires only at message boundaries, which
//! is what makes restart exactness provable.

pub mod buddy;
pub mod checkpoint;
pub mod heartbeat;
pub mod lease;
pub mod machine;
pub mod rebalance;
pub mod sim;
pub mod supervisor;

pub use buddy::{Emit, Keeper, Ward, CKPT_EVERY};
pub use checkpoint::{Baseline, Checkpoint, LoggedPacket, RecoveryLog, ReplayError, Replayed};
pub use heartbeat::{FailureDetector, HeartbeatConfig, PeerStatus};
pub use lease::{quorum, successor, LeaseState, VoteLedger, INITIAL_TERM};
pub use machine::{Action, Event, HaMachine, Topo};
pub use rebalance::{RebalancePlan, Rebalancer, TopologyChange};
pub use supervisor::{Supervisor, SupervisorConfig, WorkerKind};

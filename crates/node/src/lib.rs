//! `gravel-node` — one Gravel cluster member as a real OS process.
//!
//! The in-process runtime (`gravel-core`) proves the protocol under
//! threads and injected faults; this crate proves it under *processes*
//! and real `kill -9`. N instances of the `gravel-node` binary form a
//! cluster over Unix-domain (or TCP) sockets, run GUPS, and survive a
//! member being SIGKILLed and restarted mid-run with a bit-exact final
//! heap — see `tests/cluster.rs` and DESIGN.md §14.
//!
//! Layering:
//!
//! * [`proto`]  — control-plane word codec (FWD / CKPT / RECOVER and
//!   the elastic TOPO / MIGRATE / BOUNCE family).
//! * [`store`]  — buddy-side storage of a ward's baseline + replay log.
//! * [`forward`] — the [`PacketTap`](gravel_core::netthread::PacketTap)
//!   that streams applied packets to the buddy and cuts epochs.
//! * [`sender`] — the one packetizer: a node's update stream routed
//!   through its directory (fixed or elastic), fed to the core flow
//!   engine (`gravel_core::flow`) on wire lane 0.
//! * [`elastic`] — live membership: the versioned shard directory, the
//!   stale-routing bounce gate, pull-based shard migration, and the
//!   lease-held coordinator (DESIGN.md §16, §18).
//! * [`gets`] — the sentinel GET probes the cluster test verifies
//!   bit-exact; their requests and replies ride a core aggregator, on
//!   lane 1's express flows.
//! * [`signal`] — SIGTERM/SIGINT graceful-shutdown plumbing and the
//!   literal self-`kill -9` chaos switch.
//! * [`report`] — the JSON the harness asserts on, written atomically.

pub mod elastic;
pub mod forward;
pub mod gets;
pub mod proto;
pub mod report;
pub mod sender;
pub mod signal;
pub mod store;

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
//! * [`proto`]  — control-plane word codec (FWD / CKPT / RECOVER, the
//!   FLOW_END completion announcement, and the elastic TOPO / MIGRATE /
//!   BOUNCE family).
//! * [`forward`] — the [`PacketTap`](gravel_core::netthread::PacketTap)
//!   (and elastic gate) that writes what the core buddy protocol's
//!   ward side (`gravel_core::ha::Ward`) sends for each applied packet:
//!   forwards to the buddy, refusals, bounces and epoch cuts. The
//!   buddy keeps them in a `gravel_core::ha::Keeper`.
//! * [`sender`] — the one packetizer: a node's update stream routed
//!   through its directory (fixed or elastic) as packets leave, fed to
//!   the core flow engine (`gravel_core::flow`) on wire lane 0; and the
//!   ledger of announced packet counts a static receiver completes on.
//! * [`elastic`] — live membership: the versioned shard directory, the
//!   stale-routing bounce gate, and the loops that run the control-plane
//!   machine (`gravel_core::ha::HaMachine`, DESIGN.md §16, §18).
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

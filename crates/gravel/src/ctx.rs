//! The PGAS API kernels program against.
//!
//! [`GravelCtx`] wraps a work-group context with one node's Gravel state
//! and exposes the paper's network operations (§6): `shmem_put`,
//! `shmem_inc`, and active messages. Calls are *per-lane*: every active
//! lane contributes one operation with its own destination/address/value,
//! and the whole work-group's messages are offloaded through a single
//! work-group-granularity queue reservation. This is what makes Gravel's
//! GUPS kernel one line (Fig. 4b) — lanes never coordinate explicitly.
//!
//! Routing policy, as evaluated in the paper:
//! * local PUT → executed directly by the GPU as a store;
//! * remote PUT → offloaded to the aggregator;
//! * INC and active messages → *always* offloaded (even local), because
//!   Gravel serializes atomics through the network thread
//!   (configurable: [`GravelConfig::serialize_atomics`](crate::GravelConfig)).

use std::sync::Arc;
use std::time::Instant;

use gravel_gq::{Band, Message, ReplySink, RpcFailure};
use gravel_simt::{LaneVec, Mask, WgCtx};

use crate::node::NodeShared;

/// Per-work-group handle combining SIMT execution state with the node's
/// Gravel runtime state.
pub struct GravelCtx<'a> {
    /// The SIMT work-group context (masks, collectives, counters).
    pub wg: &'a mut WgCtx,
    node: &'a NodeShared,
    serialize_atomics: bool,
}

impl<'a> GravelCtx<'a> {
    /// Bind a work-group context to a node. `serialize_atomics = false`
    /// (local INCs as GPU atomics) needs a node built with the same
    /// setting: only then does its network thread resolve INC with a
    /// locked add that those atomics cannot tear.
    pub fn new(wg: &'a mut WgCtx, node: &'a NodeShared, serialize_atomics: bool) -> Self {
        assert!(
            serialize_atomics || !node.heap.serializes_atomics(),
            "concurrent-RMW kernels need a node configured with serialize_atomics = false"
        );
        GravelCtx {
            wg,
            node,
            serialize_atomics,
        }
    }

    /// This node's id.
    pub fn my_node(&self) -> u32 {
        self.node.id
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.node.nodes
    }

    /// Read-only access to the local symmetric heap (PGAS loads of local
    /// data are plain GPU loads).
    pub fn heap(&self) -> &gravel_pgas::SymmetricHeap {
        &self.node.heap
    }

    /// Run `body` with the active mask restricted to `mask ∩ active` —
    /// the SIMT `if` for PGAS code (kernels use it to mask off
    /// out-of-range tail lanes and divergent branches).
    pub fn masked(&mut self, mask: &Mask, body: impl FnOnce(&mut Self)) {
        let m = self.wg.active().and(mask);
        if m.is_empty() {
            return;
        }
        self.wg.push_mask(m);
        body(self);
        self.wg.pop_mask();
    }

    fn local_mask(&self, dests: &LaneVec<u32>) -> Mask {
        let me = self.node.id;
        self.wg.active().filter(|l| dests.get(l) == me)
    }

    /// Offload one message per lane of `mask` in one work-group
    /// reservation, whatever the lanes' destinations. All of a call's
    /// messages are one operation, so one `band` speaks for them and
    /// picks the node's ring.
    fn offload(
        &mut self,
        mask: &Mask,
        dests: &LaneVec<u32>,
        band: Band,
        make: impl Fn(usize) -> Message,
    ) {
        if mask.is_empty() {
            return;
        }
        let node = self.node;
        let ring = node.queue.band(band);
        let count = mask.count() as u64;
        let local = mask.iter().filter(|&l| dests.get(l) == node.id).count() as u64;
        self.wg.with_mask(mask.clone(), |wg| {
            ring.wg_produce_with(wg, |lane, msg| msg.copy_from_slice(&make(lane).encode()));
        });
        node.note_offloaded(count);
        node.local_routed.add(local);
        node.remote_routed.add(count - local);
    }

    /// PGAS store: each active lane writes `vals[lane]` to
    /// `addrs[lane]` on node `dests[lane]`.
    pub fn shmem_put(&mut self, dests: &LaneVec<u32>, addrs: &LaneVec<u64>, vals: &LaneVec<u64>) {
        // Local lanes: the GPU stores directly ("A local PUT is executed
        // by the GPU directly as a store", §7.1).
        let local = self.local_mask(dests);
        if !local.is_empty() {
            let heap = &self.node.heap;
            let base = heap as *const _ as u64;
            self.wg.with_mask(local.clone(), |wg| {
                wg.mem_access_by(8, |l| base.wrapping_add(addrs.get(l) * 8));
            });
            for lane in local.iter() {
                heap.store(addrs.get(lane), vals.get(lane));
            }
            self.node.local_direct.add(local.count() as u64);
        }
        // Remote lanes: offload.
        let remote = self.wg.active().and_not(&local);
        self.offload(&remote, dests, Band::Bulk, |lane| {
            Message::put(dests.get(lane), addrs.get(lane), vals.get(lane))
        });
    }

    /// PGAS atomic increment: each active lane adds `vals[lane]` to
    /// `addrs[lane]` on node `dests[lane]`.
    pub fn shmem_inc(&mut self, dests: &LaneVec<u32>, addrs: &LaneVec<u64>, vals: &LaneVec<u64>) {
        if self.serialize_atomics {
            // Everything — local included — routes through the network
            // thread (§6).
            let mask = self.wg.active().clone();
            self.offload(&mask, dests, Band::Bulk, |lane| {
                Message::inc(dests.get(lane), addrs.get(lane), vals.get(lane))
            });
        } else {
            // Concurrent-RMW ablation: local lanes update the heap with
            // GPU atomics, remote lanes offload.
            let local = self.local_mask(dests);
            if !local.is_empty() {
                let heap = &self.node.heap;
                for lane in local.iter() {
                    heap.fetch_add(addrs.get(lane), vals.get(lane));
                }
                self.wg.counters.atomics += local.count() as u64;
                self.node.local_direct.add(local.count() as u64);
            }
            let remote = self.wg.active().and_not(&local);
            self.offload(&remote, dests, Band::Bulk, |lane| {
                Message::inc(dests.get(lane), addrs.get(lane), vals.get(lane))
            });
        }
    }

    /// PGAS fetch (request-reply): each active lane reads heap word
    /// `addrs[lane]` from node `dests[lane]`. Returns the work-group's
    /// completion sink — slot `lane` completes with the value once the
    /// reply frame arrives, or with a deterministic
    /// [`RpcFailure`] (timeout, restart, table full) otherwise. Issue
    /// the whole group's GETs, then `sink.wait_all(..)`: one park for
    /// the group, the WG-amortized analogue of the offload queue's
    /// single reservation.
    pub fn shmem_get(&mut self, dests: &LaneVec<u32>, addrs: &LaneVec<u64>) -> Arc<ReplySink> {
        self.rpc_offload(dests, |lane, token, dl| {
            Message::get(dests.get(lane), addrs.get(lane), token, dl)
        })
    }

    /// Value-returning active message: each active lane runs returning
    /// handler `handler` against `args[lane]` on node `dests[lane]` and
    /// receives the handler's result in its sink slot. Same completion
    /// contract as [`shmem_get`](Self::shmem_get).
    pub fn shmem_am_call(
        &mut self,
        handler: u32,
        dests: &LaneVec<u32>,
        args: &LaneVec<u64>,
    ) -> Arc<ReplySink> {
        self.rpc_offload(dests, |lane, token, dl| {
            Message::am_call(dests.get(lane), handler, args.get(lane), token, dl)
        })
    }

    fn rpc_offload(
        &mut self,
        dests: &LaneVec<u32>,
        make: impl Fn(usize, u64, u16) -> Message,
    ) -> Arc<ReplySink> {
        let mask = self.wg.active().clone();
        let sink = Arc::new(ReplySink::new(self.wg.wg_size()));
        if mask.is_empty() {
            return sink;
        }
        let deadline = Instant::now() + self.node.rpc_timeout;
        let deadline_ms = self.node.rpc_timeout.as_millis().min(u128::from(u16::MAX)) as u16;
        // Register every lane's token *before* offloading anything, so
        // no reply can ever race its own registration. A lane refused by
        // a full table fails its slot immediately and sends nothing.
        let mut tokens = self.wg.take_words(self.wg.wg_size());
        let mut send = mask.clone();
        for lane in mask.iter() {
            match self.node.rpc.register(sink.clone(), lane, deadline) {
                Ok(t) => tokens[lane] = t,
                Err(_) => {
                    send.set(lane, false);
                    sink.arm();
                    sink.fail(lane, RpcFailure::TableFull);
                }
            }
        }
        self.offload(&send, dests, Band::Express, |lane| {
            make(lane, tokens[lane], deadline_ms)
        });
        self.wg.give_words(tokens);
        sink
    }

    /// Active message: each active lane invokes handler `handler` on node
    /// `dests[lane]` with `(addrs[lane], vals[lane])`. Always serialized
    /// through the destination's network thread.
    pub fn shmem_am(
        &mut self,
        handler: u32,
        dests: &LaneVec<u32>,
        addrs: &LaneVec<u64>,
        vals: &LaneVec<u64>,
    ) {
        let mask = self.wg.active().clone();
        self.offload(&mask, dests, Band::Bulk, |lane| {
            Message::active(dests.get(lane), handler, addrs.get(lane), vals.get(lane))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GravelConfig;
    use gravel_gq::Consumed;
    use gravel_pgas::AmRegistry;
    use gravel_simt::Grid;
    use std::sync::Arc;

    fn node(nodes: usize) -> NodeShared {
        let cfg = GravelConfig::small(nodes, 32);
        NodeShared::new(0, &cfg, Arc::new(AmRegistry::new()))
    }

    fn wg() -> WgCtx {
        WgCtx::new(
            Grid {
                wg_count: 1,
                wg_size: 8,
                wf_width: 4,
            },
            0,
        )
    }

    #[test]
    fn local_puts_store_directly_without_offload() {
        let n = node(2);
        let mut w = wg();
        let mut ctx = GravelCtx::new(&mut w, &n, true);
        let dests = LaneVec::splat(8, 0u32); // all local
        let addrs = LaneVec::from_fn(8, |l| l as u64);
        let vals = LaneVec::from_fn(8, |l| 10 + l as u64);
        ctx.shmem_put(&dests, &addrs, &vals);
        assert_eq!(n.heap.load(3), 13);
        assert_eq!(n.queue.backlog(), 0, "no offload for local PUTs");
        assert_eq!(n.local_direct.get(), 8);
    }

    #[test]
    fn remote_puts_offload() {
        let n = node(2);
        let mut w = wg();
        let mut ctx = GravelCtx::new(&mut w, &n, true);
        let dests = LaneVec::from_fn(8, |l| (l % 2) as u32); // half remote
        let addrs = LaneVec::from_fn(8, |l| l as u64);
        let vals = LaneVec::splat(8, 5u64);
        ctx.shmem_put(&dests, &addrs, &vals);
        // 4 local applied, 4 remote queued.
        assert_eq!(n.local_direct.get(), 4);
        assert_eq!(n.remote_routed.get(), 4);
        let mut out = Vec::new();
        assert_eq!(n.queue.ring(0).try_consume_into(&mut out), Consumed::Batch(4));
    }

    #[test]
    fn serialized_inc_routes_local_operations() {
        let n = node(2);
        let mut w = wg();
        let mut ctx = GravelCtx::new(&mut w, &n, true);
        let dests = LaneVec::splat(8, 0u32); // all local, but serialized
        let addrs = LaneVec::splat(8, 0u64);
        let vals = LaneVec::splat(8, 1u64);
        ctx.shmem_inc(&dests, &addrs, &vals);
        assert_eq!(n.heap.load(0), 0, "not applied yet — routed");
        assert_eq!(n.local_routed.get(), 8);
        assert_eq!(n.queue.backlog(), 1);
    }

    #[test]
    fn concurrent_rmw_ablation_applies_local_incs_directly() {
        let mut cfg = GravelConfig::small(2, 32);
        cfg.serialize_atomics = false;
        let n = NodeShared::new(0, &cfg, Arc::new(AmRegistry::new()));
        let mut w = wg();
        let mut ctx = GravelCtx::new(&mut w, &n, false);
        let dests = LaneVec::from_fn(8, |l| (l / 4) as u32); // 4 local, 4 remote
        let addrs = LaneVec::splat(8, 0u64);
        let vals = LaneVec::splat(8, 1u64);
        ctx.shmem_inc(&dests, &addrs, &vals);
        assert_eq!(n.heap.load(0), 4, "local lanes applied immediately");
        assert_eq!(n.remote_routed.get(), 4);
    }

    #[test]
    fn am_encodes_handler_id() {
        let n = node(2);
        let mut w = wg();
        let mut ctx = GravelCtx::new(&mut w, &n, true);
        let dests = LaneVec::splat(8, 1u32);
        let addrs = LaneVec::splat(8, 2u64);
        let vals = LaneVec::splat(8, 3u64);
        ctx.shmem_am(7, &dests, &addrs, &vals);
        let mut out = Vec::new();
        assert_eq!(n.queue.ring(0).try_consume_into(&mut out), Consumed::Batch(8));
        let m = Message::decode([out[0], out[1], out[2], out[3]]).unwrap();
        assert_eq!(m, Message::active(1, 7, 2, 3));
    }

    #[test]
    fn masked_lanes_send_nothing() {
        let n = node(2);
        let mut w = wg();
        let only_two = Mask::from_fn(8, |l| l < 2);
        w.with_mask(only_two, |w| {
            let mut ctx = GravelCtx::new(w, &n, true);
            let dests = LaneVec::splat(8, 1u32);
            let addrs = LaneVec::from_fn(8, |l| l as u64);
            let vals = LaneVec::splat(8, 1u64);
            ctx.shmem_inc(&dests, &addrs, &vals);
        });
        let mut out = Vec::new();
        assert_eq!(n.queue.ring(0).try_consume_into(&mut out), Consumed::Batch(2));
    }

    #[test]
    fn gets_and_am_calls_offload_through_the_express_ring() {
        let n = node(2);
        let mut w = wg();
        let mut ctx = GravelCtx::new(&mut w, &n, true);
        let dests = LaneVec::splat(8, 1u32);
        let addrs = LaneVec::from_fn(8, |l| l as u64);
        let sink = ctx.shmem_get(&dests, &addrs);
        assert_eq!(sink.outstanding(), 8);
        ctx.shmem_am_call(0, &dests, &addrs);
        // One reservation per work-group and call, none in a bulk ring.
        assert_eq!(n.queue.express().backlog(), 2);
        assert_eq!(n.queue.ring(0).backlog(), 0);
        assert_eq!(n.offloaded.get(), 16);
        let mut out = Vec::new();
        assert_eq!(
            n.queue.express().try_consume_into(&mut out),
            Consumed::Batch(8)
        );
        let m = Message::decode([out[0], out[1], out[2], out[3]]).unwrap();
        assert!(matches!(m.command, gravel_gq::Command::Get { .. }));
        assert_eq!((m.dest, m.addr), (1, 0));
    }
}

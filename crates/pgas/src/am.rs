//! Active messages.
//!
//! Gravel supports "a primitive active message API" (paper §6): a message
//! names a pre-registered handler that runs *at the destination* against
//! the destination's symmetric heap. Handlers are registered identically
//! on every node before the runtime starts (SPMD style), so a handler id
//! is meaningful cluster-wide. Because Gravel serializes atomics —
//! including active messages — through each node's network thread,
//! handlers may assume they run one-at-a-time per node with respect to
//! other serialized operations.
//!
//! Handlers may also *reply*: the invoke path hands them a callback that
//! enqueues follow-up messages through the local node's own Gravel path
//! (queue → aggregator → wire). Request/response patterns — remote
//! lookups, the Meraculous phase-2 traversal the paper leaves as future
//! work — build on this.

use gravel_gq::Message;

use crate::heap::SymmetricHeap;

/// A simple handler invoked at the destination: `(heap, addr, value)`.
pub type AmHandler = Box<dyn Fn(&SymmetricHeap, u64, u64) + Send + Sync>;

/// A replying handler: like [`AmHandler`] but may emit follow-up
/// messages via the last argument (each is routed through the local
/// node's aggregator like any GPU-initiated message).
pub type AmReplyHandler =
    Box<dyn Fn(&SymmetricHeap, u64, u64, &mut dyn FnMut(Message)) + Send + Sync>;

/// A value-returning handler for AM_CALL messages: runs at the
/// destination against `(heap, arg)` and its return value travels back
/// to the requester in a REPLY. A separate id space from
/// [`AmReplyHandler`] — a call naming a returning id must get a reply or
/// a deterministic timeout, so the two tables never alias.
pub type AmReturningHandler = Box<dyn Fn(&SymmetricHeap, u64) -> u64 + Send + Sync>;

/// Registry of active-message handlers, indexed by the id carried in the
/// message's command word.
#[derive(Default)]
pub struct AmRegistry {
    handlers: Vec<AmReplyHandler>,
    returning: Vec<AmReturningHandler>,
}

impl AmRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a non-replying `handler`, returning its id. Registration
    /// order must match across nodes.
    pub fn register(&mut self, handler: AmHandler) -> u32 {
        self.register_replying(Box::new(move |heap, addr, value, _reply| {
            handler(heap, addr, value)
        }))
    }

    /// Register a replying handler, returning its id.
    pub fn register_replying(&mut self, handler: AmReplyHandler) -> u32 {
        let id = self.handlers.len() as u32;
        self.handlers.push(handler);
        id
    }

    /// Register a value-returning handler for AM_CALL, returning its id
    /// (an independent id space from [`register`](Self::register) /
    /// [`register_replying`](Self::register_replying)). Registration
    /// order must match across nodes.
    pub fn register_returning(&mut self, handler: AmReturningHandler) -> u32 {
        let id = self.returning.len() as u32;
        self.returning.push(handler);
        id
    }

    /// Run returning handler `id` against `heap` and `arg`. `None` for
    /// an unknown id — the caller quarantines the call and the requester
    /// times out deterministically instead of the network thread
    /// crashing.
    pub fn invoke_returning(&self, id: u32, heap: &SymmetricHeap, arg: u64) -> Option<u64> {
        self.returning.get(id as usize).map(|h| h(heap, arg))
    }

    /// Number of registered handlers.
    pub fn len(&self) -> usize {
        self.handlers.len()
    }

    /// True when no handlers are registered.
    pub fn is_empty(&self) -> bool {
        self.handlers.is_empty()
    }

    /// Run handler `id` against `heap`, collecting any replies through
    /// `reply`. Returns `false` (and does nothing) for an unknown id — a
    /// malformed message must not crash the network thread.
    pub fn invoke(
        &self,
        id: u32,
        heap: &SymmetricHeap,
        addr: u64,
        value: u64,
        reply: &mut dyn FnMut(Message),
    ) -> bool {
        match self.handlers.get(id as usize) {
            Some(h) => {
                h(heap, addr, value, reply);
                true
            }
            None => false,
        }
    }
}

impl std::fmt::Debug for AmRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AmRegistry({} handlers, {} returning)",
            self.handlers.len(),
            self.returning.len()
        )
    }
}

/// The relax handler used by SSSP: `dist[addr] = min(dist[addr], value)`.
/// Provided here because several crates (runtime, cluster models, tests)
/// need the identical handler.
pub fn relax_min_handler() -> AmHandler {
    Box::new(|heap, addr, value| {
        heap.fetch_min(addr, value);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_reply() -> impl FnMut(Message) {
        |_m| {}
    }

    #[test]
    fn register_and_invoke() {
        let mut reg = AmRegistry::new();
        let id = reg.register(Box::new(|h, a, v| h.store(a, v * 2)));
        let heap = SymmetricHeap::new(4);
        assert!(reg.invoke(id, &heap, 1, 21, &mut no_reply()));
        assert_eq!(heap.load(1), 42);
    }

    #[test]
    fn ids_are_sequential() {
        let mut reg = AmRegistry::new();
        let a = reg.register(Box::new(|_, _, _| {}));
        let b = reg.register(Box::new(|_, _, _| {}));
        assert_eq!((a, b), (0, 1));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn unknown_handler_is_ignored() {
        let reg = AmRegistry::new();
        let heap = SymmetricHeap::new(1);
        assert!(!reg.invoke(5, &heap, 0, 0, &mut no_reply()));
        assert_eq!(heap.load(0), 0);
    }

    #[test]
    fn relax_min() {
        let mut reg = AmRegistry::new();
        let id = reg.register(relax_min_handler());
        let heap = SymmetricHeap::new(1);
        heap.store(0, 10);
        reg.invoke(id, &heap, 0, 7, &mut no_reply());
        assert_eq!(heap.load(0), 7);
        reg.invoke(id, &heap, 0, 9, &mut no_reply());
        assert_eq!(heap.load(0), 7);
    }

    #[test]
    fn returning_handlers_have_their_own_id_space() {
        let mut reg = AmRegistry::new();
        let plain = reg.register(Box::new(|_, _, _| {}));
        let ret = reg.register_returning(Box::new(|h, a| h.load(a) + 1));
        // Both start at 0: independent tables.
        assert_eq!((plain, ret), (0, 0));
        let heap = SymmetricHeap::new(2);
        heap.store(1, 41);
        assert_eq!(reg.invoke_returning(ret, &heap, 1), Some(42));
        assert_eq!(reg.invoke_returning(9, &heap, 0), None);
    }

    #[test]
    fn replying_handler_emits_messages() {
        let mut reg = AmRegistry::new();
        let id = reg.register_replying(Box::new(|heap, addr, value, reply| {
            let found = heap.load(addr);
            reply(Message::put(value as u32, 0, found + 100));
        }));
        let heap = SymmetricHeap::new(2);
        heap.store(1, 7);
        let mut replies = Vec::new();
        assert!(reg.invoke(id, &heap, 1, 3, &mut |m| replies.push(m)));
        assert_eq!(replies, vec![Message::put(3, 0, 107)]);
    }
}

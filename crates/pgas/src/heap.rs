//! Symmetric heap.
//!
//! PGAS systems allocate a *symmetric heap*: an array of the same size at
//! the same (virtual) address on every node, so a global element is named
//! by `(node, offset)` and a remote operation ships only the offset
//! (paper Fig. 4: "There is a slice of A, at the same virtual address, on
//! each node"). [`SymmetricHeap`] is one node's slice, stored as atomics
//! because the network thread, the GPU, and helper threads all touch it.
//!
//! # Who may read-modify-write
//!
//! Many threads *load* a node's heap and several *store* to it, but one
//! party at a time read-modify-writes it: the node's network thread, or
//! whoever holds that thread's receive-state lock while it cannot run
//! (epoch recovery's refill + replay, a process replaying its log before
//! the thread starts). Every INC and every active message resolves
//! there (paper §6), so they are atomic with respect to each other by
//! serialization and [`add`](SymmetricHeap::add) needs no locked
//! instruction. The other writers — a GPU lane's direct local PUT, a
//! shard-migration install, `fill_from`/`reset` — are plain stores to
//! words no in-flight INC or handler may target, by contract: an atomic
//! is atomic with respect to other atomics, not to a racing PUT of the
//! same word (OpenSHMEM's rule). The one configuration that breaks the
//! single-writer rule is the `serialize_atomics = false` ablation, whose
//! GPU lanes `fetch_add` words the network thread also increments; a
//! node built for it takes [`with_concurrent_atomics`] and `add` stays
//! a locked RMW.
//!
//! [`with_concurrent_atomics`]: SymmetricHeap::with_concurrent_atomics

use std::sync::atomic::{AtomicU64, Ordering};

/// One node's slice of the symmetric heap: `len` 64-bit elements.
pub struct SymmetricHeap {
    cells: Box<[AtomicU64]>,
    /// Other threads `fetch_add` words that `add` also targets.
    concurrent_atomics: bool,
}

impl SymmetricHeap {
    /// A zero-initialised heap of `len` elements whose atomics are
    /// serialized through one thread (see the module docs).
    pub fn new(len: usize) -> Self {
        SymmetricHeap {
            cells: (0..len).map(|_| AtomicU64::new(0)).collect(),
            concurrent_atomics: false,
        }
    }

    /// A heap whose [`add`](Self::add) must be atomic against concurrent
    /// [`fetch_add`](Self::fetch_add)s from other threads.
    pub fn with_concurrent_atomics(len: usize) -> Self {
        SymmetricHeap { concurrent_atomics: true, ..Self::new(len) }
    }

    /// True when atomics on this heap are serialized through one thread.
    pub fn serializes_atomics(&self) -> bool {
        !self.concurrent_atomics
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the heap has no elements.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read element `offset`.
    #[inline]
    pub fn load(&self, offset: u64) -> u64 {
        self.cells[offset as usize].load(Ordering::Acquire)
    }

    /// PUT: store `value` at `offset`.
    #[inline]
    pub fn store(&self, offset: u64, value: u64) {
        self.cells[offset as usize].store(value, Ordering::Release);
    }

    /// Atomic add: add `value` to `offset`, returning the old value.
    #[inline]
    pub fn fetch_add(&self, offset: u64, value: u64) -> u64 {
        self.cells[offset as usize].fetch_add(value, Ordering::AcqRel)
    }

    /// INC as the heap's serializing thread resolves it: add `value` to
    /// `offset`. No other thread read-modify-writes this word (module
    /// docs), so the old value cannot change between the load and the
    /// store and no `lock` prefix is paid; the `Release` store publishes
    /// to the same `Acquire` loads [`store`](Self::store) does. On a
    /// [`with_concurrent_atomics`](Self::with_concurrent_atomics) heap
    /// this is `fetch_add`.
    #[inline]
    pub fn add(&self, offset: u64, value: u64) {
        let cell = &self.cells[offset as usize];
        if self.concurrent_atomics {
            cell.fetch_add(value, Ordering::AcqRel);
        } else {
            cell.store(cell.load(Ordering::Relaxed).wrapping_add(value), Ordering::Release);
        }
    }

    /// Atomic minimum (used by SSSP's relax handler): store
    /// `min(current, value)`, returning the old value.
    pub fn fetch_min(&self, offset: u64, value: u64) -> u64 {
        self.cells[offset as usize].fetch_min(value, Ordering::AcqRel)
    }

    /// Atomic compare-exchange on element `offset`.
    pub fn compare_exchange(&self, offset: u64, current: u64, new: u64) -> Result<u64, u64> {
        self.cells[offset as usize].compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
    }

    /// Copy the heap into a plain vector (test/verification helper; not
    /// atomic across elements).
    pub fn snapshot(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.load(Ordering::Acquire)).collect()
    }

    /// Bulk-initialise from a slice (test/setup helper).
    pub fn fill_from(&self, values: &[u64]) {
        assert!(values.len() <= self.len(), "initialiser longer than heap");
        for (i, &v) in values.iter().enumerate() {
            self.cells[i].store(v, Ordering::Release);
        }
    }

    /// Reset every element to `value`.
    pub fn reset(&self, value: u64) {
        for c in self.cells.iter() {
            c.store(value, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for SymmetricHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SymmetricHeap({} elements)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_roundtrip() {
        let h = SymmetricHeap::new(8);
        h.store(3, 42);
        assert_eq!(h.load(3), 42);
        assert_eq!(h.load(0), 0);
    }

    #[test]
    fn fetch_add_accumulates() {
        let h = SymmetricHeap::new(2);
        assert_eq!(h.fetch_add(1, 5), 0);
        assert_eq!(h.fetch_add(1, 7), 5);
        assert_eq!(h.load(1), 12);
    }

    #[test]
    fn add_accumulates_and_wraps_in_both_modes() {
        for h in [SymmetricHeap::new(2), SymmetricHeap::with_concurrent_atomics(2)] {
            h.add(1, 5);
            h.add(1, 7);
            assert_eq!(h.load(1), 12);
            h.add(1, u64::MAX);
            assert_eq!(h.load(1), 11, "wraps like fetch_add");
            assert_eq!(h.load(0), 0);
        }
    }

    #[test]
    fn add_on_a_concurrent_heap_is_exact_against_racing_fetch_adds() {
        let h = std::sync::Arc::new(SymmetricHeap::with_concurrent_atomics(1));
        assert!(!h.serializes_atomics());
        let start = std::sync::Arc::new(std::sync::Barrier::new(3));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (h, start) = (h.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..20_000 {
                        h.fetch_add(0, 1);
                    }
                })
            })
            .collect();
        start.wait();
        for _ in 0..20_000 {
            h.add(0, 1);
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.load(0), 60_000);
    }

    #[test]
    fn fetch_min_keeps_smaller() {
        let h = SymmetricHeap::new(1);
        h.store(0, 100);
        assert_eq!(h.fetch_min(0, 50), 100);
        assert_eq!(h.fetch_min(0, 80), 50);
        assert_eq!(h.load(0), 50);
    }

    #[test]
    fn compare_exchange() {
        let h = SymmetricHeap::new(1);
        assert_eq!(h.compare_exchange(0, 0, 9), Ok(0));
        assert_eq!(h.compare_exchange(0, 0, 10), Err(9));
    }

    #[test]
    fn snapshot_and_fill() {
        let h = SymmetricHeap::new(4);
        h.fill_from(&[1, 2, 3]);
        assert_eq!(h.snapshot(), vec![1, 2, 3, 0]);
        h.reset(7);
        assert_eq!(h.snapshot(), vec![7, 7, 7, 7]);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let h = std::sync::Arc::new(SymmetricHeap::new(1));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        h.fetch_add(0, 1);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.load(0), 4000);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        SymmetricHeap::new(1).load(1);
    }
}

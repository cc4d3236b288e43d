//! A wakeup cell for spin-then-park consumers.
//!
//! The aggregator threads used to burn a core in `yield_now` loops
//! whenever the GPU ring went quiet. [`WaitCell`] lets them park on a
//! condvar instead while keeping the publish path almost free: a
//! producer only touches the lock when a sleeper is registered, so the
//! common no-sleeper publish costs one fence plus one relaxed-ish load.
//!
//! The handshake is the classic Dekker store/load pattern:
//!
//! * consumer: `sleepers.fetch_add(1)` (SeqCst) → re-check readiness
//!   under the lock → `wait_timeout`;
//! * producer: publish data → SeqCst fence → `sleepers.load`; if
//!   nonzero, take the lock and `notify_all`.
//!
//! Either the producer sees the sleeper (and its notify is serialized
//! with the consumer's wait by the lock), or the consumer's readiness
//! re-check sees the published data. The timeout is a belt-and-braces
//! bound, not a correctness requirement.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Parking support for consumers of a concurrent structure.
#[derive(Default)]
pub struct WaitCell {
    /// Consumers currently registered to sleep (or about to).
    sleepers: AtomicU64,
    /// Wakeup generation; only ever touched under `lock`.
    lock: Mutex<u64>,
    cv: Condvar,
}

impl WaitCell {
    pub fn new() -> Self {
        WaitCell {
            sleepers: AtomicU64::new(0),
            lock: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Wake every parked consumer. Call *after* making data visible
    /// (e.g. after a release-store of a full bit). Nearly free when
    /// nobody is parked. Returns whether anybody was (registered to
    /// sleep, or about to): `false` means the call cost a fence and a
    /// load.
    pub fn notify_all(&self) -> bool {
        // Pairs with the consumer's SeqCst fetch_add: if we read 0 here,
        // any later-registering consumer is guaranteed to see the data
        // published before this fence when it re-checks readiness.
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut gen = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        *gen = gen.wrapping_add(1);
        drop(gen);
        self.cv.notify_all();
        true
    }

    /// Threads registered to sleep, or about to.
    #[cfg(test)]
    pub(crate) fn sleepers(&self) -> u64 {
        self.sleepers.load(Ordering::SeqCst)
    }

    /// Park for up to `timeout` unless `ready()` already holds (it is
    /// re-checked after registering, so a publish racing this call is
    /// never missed) or a notify arrives first. Returns `true` if the
    /// thread actually parked.
    pub fn park_timeout(&self, timeout: Duration, ready: impl Fn() -> bool) -> bool {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let parked = {
            let gen = self.lock.lock().unwrap_or_else(|p| p.into_inner());
            let gen0 = *gen;
            if ready() {
                false
            } else {
                // A producer that published after our fetch_add must
                // grab `lock` to notify, which serializes it after this
                // wait (wait releases the lock) or bumps `gen` first.
                let _unused = self
                    .cv
                    .wait_timeout_while(gen, timeout, |g| *g == gen0)
                    .unwrap_or_else(|p| p.into_inner());
                true
            }
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn ready_check_skips_the_park() {
        let cell = WaitCell::new();
        let start = Instant::now();
        assert!(!cell.park_timeout(Duration::from_secs(5), || true));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn notify_wakes_a_parked_thread() {
        let cell = Arc::new(WaitCell::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (cell, flag) = (cell.clone(), flag.clone());
            std::thread::spawn(move || {
                let start = Instant::now();
                while !flag.load(Ordering::Acquire) {
                    cell.park_timeout(Duration::from_secs(10), || flag.load(Ordering::Acquire));
                }
                start.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::Release);
        cell.notify_all();
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "woke via notify, not timeout ({waited:?})"
        );
    }

    #[test]
    fn timeout_bounds_the_park() {
        let cell = WaitCell::new();
        let start = Instant::now();
        assert!(cell.park_timeout(Duration::from_millis(10), || false));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }
}

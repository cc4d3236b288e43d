//! Unix signal plumbing without a libc crate: raw `extern "C"`
//! declarations of the handful of POSIX calls the node binary needs.
//!
//! SIGTERM and SIGINT request *graceful* shutdown: the handler only
//! flips an `AtomicBool` (async-signal-safe) and the main loop notices,
//! quiesces, cuts a final checkpoint, and exits 0. SIGKILL can install
//! no handler by definition — it is the only way to crash a node, which
//! is exactly the failure model the recovery protocol is built for.

use std::sync::atomic::{AtomicBool, Ordering};

pub const SIGINT: i32 = 2;
pub const SIGKILL: i32 = 9;
pub const SIGUSR1: i32 = 10;
pub const SIGTERM: i32 = 15;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static LEAVE: AtomicBool = AtomicBool::new(false);

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
}

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" fn on_leave(_sig: i32) {
    LEAVE.store(true, Ordering::SeqCst);
}

/// Install the graceful-shutdown handler for SIGTERM and SIGINT, and
/// the drain/leave trigger for SIGUSR1 (elastic membership: the node
/// proposes its own LEAVE to the coordinator and donates its shards,
/// but keeps running — and serving — until SIGTERM).
pub fn install_shutdown_handler() {
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGUSR1, on_leave as *const () as usize);
    }
}

/// Whether a SIGTERM/SIGINT has arrived since startup.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Whether a SIGUSR1 drain/leave request has arrived since startup.
pub fn leave_requested() -> bool {
    LEAVE.load(Ordering::SeqCst)
}

/// Die exactly like `kill -9`: no unwinding, no atexit, no flush. Used
/// by the chaos kill switch so the in-process "crash" is the literal
/// signal the recovery protocol promises to survive.
pub fn kill_self_hard() -> ! {
    unsafe {
        kill(std::process::id() as i32, SIGKILL);
    }
    // SIGKILL cannot be blocked; this is unreachable on any POSIX
    // system, but the signature must diverge.
    std::process::abort();
}

/// Send `sig` to another process (test harnesses).
pub fn send_signal(pid: u32, sig: i32) -> bool {
    unsafe { kill(pid as i32, sig) == 0 }
}

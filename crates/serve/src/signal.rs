//! SIGTERM/SIGINT notification without external crates: on Unix we
//! declare the C runtime's `signal` symbol (Rust links libc already) and
//! install a handler whose only action is an atomic store — the one thing
//! that is async-signal-safe. The server's accept loop polls
//! [`signaled`] and turns it into a graceful drain.

use std::sync::atomic::{AtomicBool, Ordering};

static SIGNALED: AtomicBool = AtomicBool::new(false);

/// SIGUSR1 pending flag — consumed by [`take_usr1`] to trigger a
/// flight-recorder dump from the serve loops.
static USR1: AtomicBool = AtomicBool::new(false);

/// SIGHUP pending flag — consumed by [`take_hup`] to trigger a model
/// reload from the registry in the serve loops.
static HUP: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM or SIGINT has been received since [`install`].
#[must_use]
pub fn signaled() -> bool {
    SIGNALED.load(Ordering::SeqCst)
}

/// Test hook: pretend a signal arrived (same observable effect).
pub fn raise() {
    SIGNALED.store(true, Ordering::SeqCst);
}

/// Consumes a pending SIGUSR1, returning whether one had arrived.
#[must_use]
pub fn take_usr1() -> bool {
    USR1.swap(false, Ordering::SeqCst)
}

/// Consumes a pending SIGHUP, returning whether one had arrived.
#[must_use]
pub fn take_hup() -> bool {
    HUP.swap(false, Ordering::SeqCst)
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" fn on_usr1(_signum: i32) {
    USR1.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" fn on_hup(_signum: i32) {
    HUP.store(true, Ordering::SeqCst);
}

/// Installs the handlers for SIGTERM, SIGINT, SIGUSR1, and SIGHUP.
/// Idempotent.
#[cfg(unix)]
pub fn install() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    #[cfg(target_os = "macos")]
    const SIGUSR1: i32 = 30;
    #[cfg(not(target_os = "macos"))]
    const SIGUSR1: i32 = 10;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
        signal(SIGUSR1, on_usr1);
        signal(SIGHUP, on_hup);
    }
}

/// No signals to hook on non-Unix targets; rely on programmatic shutdown.
#[cfg(not(unix))]
pub fn install() {}

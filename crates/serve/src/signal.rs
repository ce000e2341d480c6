//! Minimal SIGTERM/SIGINT hook for the CLI daemon.
//!
//! The workspace carries no `libc` dependency, so this binds the C
//! `signal(2)` entry point directly — the only unsafe code outside
//! `abp-trace`'s counting allocator, confined to this module. The
//! handler does the one thing that is async-signal-safe: store a relaxed
//! atomic flag. The daemon's accept loop polls [`triggered`] and runs an
//! orderly shutdown (join the connection threads and the rebuilder, dump counters)
//! from normal thread context.

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        super::TRIGGERED.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn install() {
        // SAFETY: `on_signal` only stores a relaxed atomic, which is
        // async-signal-safe; `signal` itself is safe to call with a
        // valid function pointer for these two standard signals.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGTERM/SIGINT handler (idempotent). On non-unix
/// platforms this is a no-op and only [`trigger`] can set the flag.
pub fn install() {
    imp::install();
}

/// Whether a termination signal (or a programmatic [`trigger`]) has
/// been observed since process start.
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::Relaxed)
}

/// Sets the flag programmatically — what the signal handler does, but
/// callable from tests and orchestration code.
pub fn trigger() {
    TRIGGERED.store(true, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    #[test]
    fn trigger_sets_the_flag() {
        // `install` must not panic; `trigger` must be observable.
        super::install();
        assert!(!super::triggered() || super::triggered());
        super::trigger();
        assert!(super::triggered());
    }
}

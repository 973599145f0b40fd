//! Runtime switch for the small-word arithmetic fast path.
//!
//! [`BigInt`](crate::BigInt) and [`Rat`](crate::Rat) store values that fit a
//! machine word inline and normally compute on them with primitive `i128`
//! arithmetic, falling back to limb vectors only on overflow. Disabling the
//! fast path forces every operation through the limb algorithms — the
//! *representation* stays canonical (small values remain inline), only the
//! arithmetic shortcuts are bypassed — which gives one binary both code
//! paths: for the `force_bigint` fault site and for tests that check the
//! two paths agree bit-for-bit. The only way to flip it is the scoped
//! [`force_bigint`] guard.
//!
//! The flag is a process-global relaxed atomic: both settings compute
//! identical values, so concurrent readers seeing a stale flag is
//! correctness-neutral.

use std::sync::atomic::{AtomicBool, Ordering};

static DISABLED: AtomicBool = AtomicBool::new(false);

/// Returns `true` iff the small-word fast path is active (the default).
#[inline]
pub fn enabled() -> bool {
    !DISABLED.load(Ordering::Relaxed)
}

fn set_enabled(on: bool) {
    DISABLED.store(!on, Ordering::Relaxed);
}

/// Disables the fast path until the returned guard is dropped, restoring
/// the previous setting afterwards.
pub fn force_bigint() -> ForceBigintGuard {
    let was_enabled = enabled();
    set_enabled(false);
    ForceBigintGuard { was_enabled }
}

/// Guard returned by [`force_bigint`]; restores the prior setting on drop.
#[must_use = "the fast path is re-enabled when the guard drops"]
pub struct ForceBigintGuard {
    was_enabled: bool,
}

impl Drop for ForceBigintGuard {
    fn drop(&mut self) {
        set_enabled(self.was_enabled);
    }
}

/// Serialises unit tests that toggle the global flag, so tests asserting
/// `enabled()` don't race with concurrently-held guards in other tests.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_restores_previous_setting() {
        let _serial = test_lock();
        assert!(enabled());
        {
            let _g = force_bigint();
            assert!(!enabled());
            {
                let _inner = force_bigint();
                assert!(!enabled());
            }
            assert!(!enabled());
        }
        assert!(enabled());
    }
}

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
//! The switch is per thread: a guard disables the fast path only on the
//! thread that holds it, so guards on different threads cannot undo each
//! other. Every guarded region runs on one thread (the solver and the
//! arithmetic spawn none). Both settings compute identical values.
//!
//! On x86-64 Linux a thread-local read in a library crate compiles to a
//! thread-pointer load, an offset and the load itself, which measurably
//! slows the small-word operations that check the switch. So [`enabled`] first reads
//! a process-wide count of live guards: while it is zero (outside the
//! `force_bigint` fault site and the tests that flip the switch) the check
//! is that one relaxed load, as with a global flag.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Guards alive on any thread. `Relaxed` suffices: it publishes no other
/// data, a thread always sees its own increment (so a guarded thread reads
/// its own flag), and a stale count on an unguarded thread leads to that
/// thread's flag, which is `true` anyway.
static GUARDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's setting; read only while some guard is alive.
    static ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Returns `true` iff the small-word fast path is active on this thread
/// (the default).
#[inline]
pub fn enabled() -> bool {
    GUARDS.load(Ordering::Relaxed) == 0 || enabled_on_this_thread()
}

/// Out of line, so that call sites do not compute the thread-local's
/// address on the common path.
#[cold]
#[inline(never)]
fn enabled_on_this_thread() -> bool {
    ENABLED.with(Cell::get)
}

/// Disables the fast path on this thread until the returned guard is
/// dropped, restoring the previous setting afterwards.
pub fn force_bigint() -> ForceBigintGuard {
    GUARDS.fetch_add(1, Ordering::Relaxed);
    ForceBigintGuard {
        was_enabled: ENABLED.replace(false),
        _thread: PhantomData,
    }
}

/// Guard returned by [`force_bigint`]; restores the prior setting on drop.
/// It is not `Send`: it must drop on the thread whose switch it holds.
#[must_use = "the fast path is re-enabled when the guard drops"]
pub struct ForceBigintGuard {
    was_enabled: bool,
    _thread: PhantomData<*const ()>,
}

impl Drop for ForceBigintGuard {
    fn drop(&mut self) {
        ENABLED.set(self.was_enabled);
        GUARDS.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn guard_restores_previous_setting() {
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

    /// Two threads take overlapping guards and drop them in the order they
    /// took them: A takes, B takes, A drops, B drops. With one process-wide
    /// switch, B would save A's `false` and restore it last, leaving the
    /// fast path off everywhere.
    #[test]
    fn overlapping_guards_on_two_threads_restore_both() {
        let barrier = Arc::new(Barrier::new(2));
        let a = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let guard = force_bigint();
                barrier.wait(); // A holds its guard.
                barrier.wait(); // B holds its guard.
                drop(guard);
                barrier.wait(); // A has dropped; B drops next.
                enabled()
            })
        };
        let b = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let guard = force_bigint();
                barrier.wait();
                barrier.wait();
                drop(guard);
                enabled()
            })
        };
        assert!(a.join().unwrap());
        assert!(b.join().unwrap());
        assert!(enabled());
    }

    #[test]
    fn a_guard_leaves_other_threads_on_the_fast_path() {
        let _g = force_bigint();
        assert!(!enabled());
        assert!(std::thread::spawn(enabled).join().unwrap());
    }
}

//! [`LeafMutex`]: the one `Mutex` type library code uses.
//!
//! The workspace's lock rule (CONTRIBUTING.md, "Lint rules", R7): a
//! thread holding a `LeafMutex` guard takes no second `LeafMutex` and
//! moves no byte to or from a device — no [`crate::PageBackend`]
//! transfer, no WAL append or sync. The guarded locks are the leaves of
//! the lock order, so none of them can deadlock against another or
//! stall behind a disk.
//!
//! Debug builds check the rule on every path they run: each thread
//! counts the guards it holds, and [`LeafMutex::lock`] and
//! [`assert_unlocked`] (which every backend transfer and WAL
//! append/sync calls) `debug_assert!` that the count is zero. Release
//! builds carry neither the count nor the checks, so the type is a
//! plain [`Mutex`] there.
//!
//! The store core's `RwLock` is deliberately not a `LeafMutex` and is
//! not counted: it guards the backend itself, so every transfer runs
//! under it.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[cfg(debug_assertions)]
thread_local! {
    /// `LeafGuard`s alive on this thread.
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Guards alive on this thread (debug builds; tests).
#[cfg(debug_assertions)]
pub(crate) fn held() -> usize {
    HELD.with(std::cell::Cell::get)
}

/// Panic, in debug builds, if this thread holds a [`LeafMutex`] guard.
/// `what` names the operation in the message.
#[inline]
#[cfg_attr(debug_assertions, track_caller)]
pub fn assert_unlocked(what: &str) {
    #[cfg(debug_assertions)]
    {
        let held = held();
        debug_assert!(
            held == 0,
            "{what} while this thread holds {held} LeafMutex guard(s)"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = what;
}

/// A [`Mutex`] whose guards are leaves of the lock order (see the
/// module docs).
///
/// [`LeafMutex::lock`] is the one place library code recovers from
/// poison. Every `LeafMutex` guards state that is whole between any two
/// of its owner's statements — counters, a free list, the LRU pool, a
/// pointer slot, a channel end — and library code has no panic path
/// under a guard (clippy's panic gates), so a poisoned lock carries
/// nothing worth propagating.
#[derive(Debug, Default)]
pub struct LeafMutex<T>(Mutex<T>);

impl<T> LeafMutex<T> {
    /// A lock around `value`.
    pub fn new(value: T) -> Self {
        Self(Mutex::new(value))
    }

    /// Block until this thread holds the lock.
    ///
    /// Panics in debug builds if this thread already holds a
    /// `LeafMutex` guard, this one or another.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> LeafGuard<'_, T> {
        assert_unlocked("taking a LeafMutex");
        let guard = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        HELD.with(|held| held.set(held.get() + 1));
        LeafGuard(guard)
    }

    /// The data, through exclusive access: no locking, nothing counted.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The guard [`LeafMutex::lock`] returns; dropping it unlocks.
#[derive(Debug)]
pub struct LeafGuard<'a, T>(MutexGuard<'a, T>);

impl<T> Deref for LeafGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for LeafGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for LeafGuard<'_, T> {
    fn drop(&mut self) {
        HELD.with(|held| held.set(held.get() - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_lock_still_yields_its_data() {
        let lock = std::sync::Arc::new(LeafMutex::new(vec![1, 2]));
        let poisoner = std::sync::Arc::clone(&lock);
        let died = std::thread::spawn(move || {
            let mut data = poisoner.lock();
            data.push(3);
            panic!("poison the lock");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(*lock.lock(), [1, 2, 3]);
        let mut lock = std::sync::Arc::into_inner(lock).unwrap();
        assert_eq!(*lock.get_mut(), [1, 2, 3]);
    }

    #[cfg(debug_assertions)]
    mod counted {
        use super::super::*;
        use crate::{FaultPlan, FaultyBackend, FileBackend, MemBackend, PageBackend, PAGE_SIZE};

        #[test]
        #[should_panic(expected = "taking a LeafMutex while this thread holds 1")]
        fn a_second_lock_under_a_guard_panics() {
            let (a, b) = (LeafMutex::new(0), LeafMutex::new(0));
            let _held = a.lock();
            let _ = b.lock();
        }

        /// Allocate a page on `backend`, then read it under a guard.
        fn read_under_a_guard(mut backend: impl PageBackend) {
            let id = backend.allocate().unwrap();
            let lock = LeafMutex::new(());
            let _held = lock.lock();
            let _ = backend.read_into(id, &mut [0; PAGE_SIZE]);
        }

        #[test]
        #[should_panic(expected = "page transfer while this thread holds 1")]
        fn a_mem_backend_transfer_under_a_guard_panics() {
            read_under_a_guard(MemBackend::new());
        }

        #[test]
        #[should_panic(expected = "page transfer while this thread holds 1")]
        fn a_file_backend_transfer_under_a_guard_panics() {
            let dir = std::env::temp_dir().join(format!("sti-lock-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let backend = FileBackend::create(&dir.join("pages")).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            read_under_a_guard(backend);
        }

        #[test]
        #[should_panic(expected = "while this thread holds 1")]
        fn a_faulty_backend_transfer_under_a_guard_panics() {
            read_under_a_guard(FaultyBackend::new_mem(FaultPlan::none()));
        }

        #[test]
        fn the_count_returns_to_zero_after_drop_and_after_unwinding() {
            let lock = LeafMutex::new(0);
            assert_eq!(held(), 0);
            let guard = lock.lock();
            assert_eq!(held(), 1);
            drop(guard);
            assert_eq!(held(), 0, "an explicit drop releases mid-scope");
            let unwound = std::panic::catch_unwind(|| {
                let _guard = lock.lock();
                assert_eq!(held(), 1);
                panic!("unwind with a guard alive");
            });
            assert!(unwound.is_err());
            assert_eq!(held(), 0, "unwinding released the guard");
            *lock.lock() += 1;
            assert_eq!(*lock.lock(), 1, "the poisoned lock is usable");
        }
    }
}

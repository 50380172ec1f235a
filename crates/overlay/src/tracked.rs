//! Write guards that invalidate the broker's cached repair trees.
//!
//! The anti-entropy layer caches one hash tree per section and drops the
//! cache whenever the shared `repair_epoch` counter moves.  Every map the
//! trees are built from sits behind a [`Tracked`] lock: each write guard
//! that was mutably dereferenced bumps the epoch when it drops, so no
//! mutation can leave a stale tree behind, however the caller is written.
//! A guard that only read through [`Deref`] leaves the epoch alone — a
//! stale write that loses its last-writer-wins comparison must not cost a
//! tree rebuild.

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A classed [`RwLock`] whose mutating writes bump a shared epoch.
pub(crate) struct Tracked<T> {
    lock: RwLock<T>,
    epoch: Arc<AtomicU64>,
}

impl<T> Tracked<T> {
    /// Wraps `value` in a lock of lock-order class `class` whose writes bump
    /// `epoch`.
    pub(crate) fn with_class(class: &'static str, value: T, epoch: &Arc<AtomicU64>) -> Self {
        Tracked {
            lock: RwLock::with_class(class, value),
            epoch: Arc::clone(epoch),
        }
    }

    /// Shared read access; never moves the epoch.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        self.lock.read()
    }

    /// Exclusive access; the epoch moves when the guard drops, if it was
    /// mutably dereferenced.
    pub(crate) fn write(&self) -> TrackedWriteGuard<'_, T> {
        TrackedWriteGuard {
            guard: self.lock.write(),
            epoch: &self.epoch,
            dirty: false,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Tracked<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.lock, f)
    }
}

/// Write guard of a [`Tracked`] lock.
pub(crate) struct TrackedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    epoch: &'a AtomicU64,
    dirty: bool,
}

impl<T> Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.dirty = true;
        &mut self.guard
    }
}

impl<T> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        // Bumped while the lock is still held, after the mutation: a reader
        // that loads the new epoch (Acquire) also sees the new state, and a
        // reader that loaded the old one rebuilds on its next round.
        if self.dirty {
            self.epoch.fetch_add(1, Ordering::Release);
        }
    }
}

//! Instrumented drop-in replacements for the `std::sync` primitives the
//! execution engine uses.
//!
//! Outside a model run every type here delegates straight to its `std`
//! counterpart (a thread-local lookup per operation), so a build with
//! these primitives still behaves normally under ordinary tests. Inside
//! a [`crate::model`] run they additionally hand the scheduling baton to
//! the model checker at every operation, making each one an explorable
//! interleaving point.
//!
//! Identity of a `Mutex`/`Condvar` is its address, so a contended
//! primitive must not move while threads are blocked on it (true for
//! anything behind an `Arc` or a stable stack frame, which covers every
//! use in the engine).

use crate::sched::{ExecShared, ThreadState};
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::{Arc, LockResult, PoisonError, TryLockError};

thread_local! {
    static CURRENT: RefCell<Option<(Arc<ExecShared>, usize)>> = const { RefCell::new(None) };
}

pub(crate) fn enter_model(exec: Arc<ExecShared>, me: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((exec, me)));
}

pub(crate) fn exit_model() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// The executing thread's model context, if it runs under a model and
/// the model has not dissolved into free-running mode.
fn current_model() -> Option<(Arc<ExecShared>, usize)> {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .filter(|(exec, _)| !exec.free_running())
            .cloned()
    })
}

/// An explicit interleaving point: under a model, hands the baton to the
/// scheduler; otherwise a plain `std::thread::yield_now`.
pub fn yield_now() {
    if let Some((exec, me)) = current_model() {
        exec.yield_point(me);
    } else {
        std::thread::yield_now();
    }
}

/// A mutual-exclusion primitive mirroring [`std::sync::Mutex`].
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new unlocked mutex.
    pub const fn new(t: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(t),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn id(&self) -> usize {
        self as *const Self as *const u8 as usize
    }

    /// Acquire the mutex, blocking (or, under a model, parking in the
    /// scheduler) until it is available.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some((exec, me)) = current_model() {
            exec.yield_point(me);
            loop {
                // Re-check for a mid-wait dissolve: fall through to the
                // plain blocking path so unwinding code never hangs.
                if exec.free_running() {
                    break;
                }
                match self.inner.try_lock() {
                    Ok(g) => {
                        crate::hb::on_acquire(self.id());
                        return Ok(MutexGuard {
                            inner: Some(g),
                            mx: self,
                            model: Some((exec, me)),
                        });
                    }
                    Err(TryLockError::Poisoned(p)) => {
                        crate::hb::on_acquire(self.id());
                        return Err(PoisonError::new(MutexGuard {
                            inner: Some(p.into_inner()),
                            mx: self,
                            model: Some((exec, me)),
                        }));
                    }
                    Err(TryLockError::WouldBlock) => {
                        exec.block(me, ThreadState::BlockedOnMutex(self.id()));
                    }
                }
            }
        }
        let result = match self.inner.lock() {
            Ok(g) => Ok(MutexGuard {
                inner: Some(g),
                mx: self,
                model: None,
            }),
            Err(p) => Err(PoisonError::new(MutexGuard {
                inner: Some(p.into_inner()),
                mx: self,
                model: None,
            })),
        };
        crate::hb::on_acquire(self.id());
        result
    }
}

/// RAII guard for [`Mutex`]; releasing it wakes model threads blocked on
/// the same mutex.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    mx: &'a Mutex<T>,
    model: Option<(Arc<ExecShared>, usize)>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Record the happens-before release edge while still exclusive,
        // release the real lock, then mark blocked threads runnable;
        // they re-contend when the scheduler picks them.
        if self.inner.is_some() {
            crate::hb::on_release(self.mx.id());
        }
        self.inner.take();
        if let Some((exec, _)) = self.model.take() {
            exec.wake_mutex_waiters(self.mx.id());
        }
    }
}

/// A condition variable mirroring [`std::sync::Condvar`].
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    fn id(&self) -> usize {
        self as *const Self as *const u8 as usize
    }

    /// Atomically release `guard` and wait for a notification, then
    /// re-acquire the lock.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if let Some((exec, me)) = current_model() {
            let mx = guard.mx;
            // The serialized schedule makes mark-waiting + unlock + park
            // atomic: no other thread runs in between, so a notification
            // cannot be lost.
            exec.prepare_condvar_wait(me, self.id());
            drop(guard);
            exec.commit_condvar_wait(me);
            return mx.lock();
        }
        // Plain path (no model, or the model dissolved): a dissolved
        // model's marooned guard simply waits on the real condvar.
        let mx = guard.mx;
        let mut guard = guard;
        let std_guard = guard.inner.take().expect("guard still holds the lock");
        let model = guard.model.take();
        drop(guard); // fields taken: releases nothing, wakes nobody
                     // The std wait releases and re-acquires the mutex outside our
                     // guard's Drop, so record the hb edges explicitly.
        crate::hb::on_release(mx.id());
        let waited = self.inner.wait(std_guard);
        crate::hb::on_acquire(mx.id());
        match waited {
            Ok(g) => Ok(MutexGuard {
                inner: Some(g),
                mx,
                model,
            }),
            Err(p) => Err(PoisonError::new(MutexGuard {
                inner: Some(p.into_inner()),
                mx,
                model,
            })),
        }
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        if let Some((exec, me)) = current_model() {
            exec.yield_point(me);
            exec.wake_condvar_waiters(self.id(), true);
        }
        self.inner.notify_all();
    }

    /// Wake one waiter (under a model: the lowest-index one).
    pub fn notify_one(&self) {
        if let Some((exec, me)) = current_model() {
            exec.yield_point(me);
            exec.wake_condvar_waiters(self.id(), false);
        }
        self.inner.notify_one();
    }
}

macro_rules! model_atomic {
    ($name:ident, $std:ty, $prim:ty) => {
        /// An atomic integer whose every access is a model interleaving
        /// point (delegating to the `std` atomic for the actual
        /// operation — the model is sequentially consistent, so the
        /// passed `Ordering` only matters outside a model run).
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Create a new atomic with the given initial value.
            pub const fn new(v: $prim) -> Self {
                Self {
                    inner: <$std>::new(v),
                }
            }

            fn yield_point(&self) {
                if let Some((exec, me)) = current_model() {
                    exec.yield_point(me);
                }
            }

            fn hb_id(&self) -> usize {
                self as *const Self as *const u8 as usize
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> $prim {
                self.yield_point();
                let v = self.inner.load(order);
                crate::hb::on_atomic_load(self.hb_id(), order);
                v
            }

            /// Atomic store.
            pub fn store(&self, v: $prim, order: Ordering) {
                self.yield_point();
                // Publish the hb clock *before* the value becomes
                // visible: a loader that observes `v` must also observe
                // the clock, or the edge is recorded too late and the
                // detector reports a spurious race. (Publishing early
                // can only hide a race, never invent one — same
                // direction as the guard's release hook.)
                crate::hb::on_atomic_store(self.hb_id(), order);
                self.inner.store(v, order);
            }

            /// Atomic swap.
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                self.yield_point();
                // RMW = release-publish before + acquire-join after
                // (see `store` for why the publish precedes the op).
                crate::hb::on_atomic_store(self.hb_id(), order);
                let prev = self.inner.swap(v, order);
                crate::hb::on_atomic_load(self.hb_id(), order);
                prev
            }

            /// Atomic read-modify-write via `f`, retried on contention.
            pub fn fetch_update<F>(
                &self,
                set_order: Ordering,
                fetch_order: Ordering,
                f: F,
            ) -> Result<$prim, $prim>
            where
                F: FnMut($prim) -> Option<$prim>,
            {
                self.yield_point();
                crate::hb::on_atomic_store(self.hb_id(), set_order);
                let r = self.inner.fetch_update(set_order, fetch_order, f);
                crate::hb::on_atomic_load(self.hb_id(), fetch_order);
                r
            }
        }
    };
}

model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
model_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);

impl AtomicUsize {
    /// Atomic add, returning the previous value.
    pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
        self.yield_point();
        crate::hb::on_atomic_store(self.hb_id(), order);
        let prev = self.inner.fetch_add(v, order);
        crate::hb::on_atomic_load(self.hb_id(), order);
        prev
    }

    /// Atomic subtract, returning the previous value.
    pub fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
        self.yield_point();
        crate::hb::on_atomic_store(self.hb_id(), order);
        let prev = self.inner.fetch_sub(v, order);
        crate::hb::on_atomic_load(self.hb_id(), order);
        prev
    }
}

/// Thread spawning/joining that registers threads with an active model.
pub mod thread {
    use super::{current_model, enter_model, exit_model};
    use crate::sched::ExecShared;
    use std::sync::Arc;

    /// A join handle mirroring [`std::thread::JoinHandle`].
    pub struct JoinHandle<T> {
        inner: Option<std::thread::JoinHandle<T>>,
        model: Option<(Arc<ExecShared>, usize)>,
        hb: crate::hb::ThreadLink,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish and return its result.
        pub fn join(mut self) -> std::thread::Result<T> {
            if let Some((exec, child)) = self.model.take() {
                if let Some((my_exec, me)) = current_model() {
                    debug_assert!(Arc::ptr_eq(&exec, &my_exec));
                    my_exec.join_wait(me, child);
                } else if exec.free_running() {
                    // Dissolved model: the child drains on its own; wait
                    // for it to finish so the real join below cannot
                    // block other draining threads.
                    exec.join_wait(usize::MAX, child);
                }
            }
            let result = self
                .inner
                .take()
                .expect("join handle not yet consumed")
                .join();
            self.hb.joined();
            result
        }
    }

    /// Spawn a named thread. Under a model the thread is registered with
    /// the scheduler and starts parked until first scheduled.
    pub fn spawn_named<F, T>(name: &str, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let builder = std::thread::Builder::new().name(name.to_string());
        let hb = crate::hb::ThreadLink::for_spawn();
        let child_hb = hb.clone();
        if let Some((exec, me)) = current_model() {
            let child = exec.register_thread();
            let texec = Arc::clone(&exec);
            let handle = builder.spawn(move || {
                enter_model(Arc::clone(&texec), child);
                texec.wait_first_schedule(child);
                child_hb.child_started();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                child_hb.child_finished();
                match result {
                    Ok(v) => {
                        texec.thread_finished(child);
                        exit_model();
                        v
                    }
                    Err(payload) => {
                        texec.record_panic(child, payload.as_ref());
                        texec.thread_finished(child);
                        exit_model();
                        std::panic::resume_unwind(payload)
                    }
                }
            })?;
            // The spawn itself is a visible event: the child may run
            // before or after the parent's next step.
            exec.yield_point(me);
            return Ok(JoinHandle {
                inner: Some(handle),
                model: Some((exec, child)),
                hb,
            });
        }
        let handle = builder.spawn(move || {
            child_hb.child_started();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            child_hb.child_finished();
            match result {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })?;
        Ok(JoinHandle {
            inner: Some(handle),
            model: None,
            hb,
        })
    }
}

//! Drop-in synchronization shim for the concurrency-checked crates.
//!
//! In a normal build this module is a zero-cost alias for `std`: every
//! name re-exports the `std::sync` / `std::thread` item of the same
//! name, so code written against `cosbt_testkit::sync` compiles to
//! exactly what it would with direct `std` imports.
//!
//! Under `--cfg cosbt_model` the same names resolve to model-aware
//! wrappers that route every operation through the deterministic
//! scheduler in `crate::model` (compiled only under that cfg, hence
//! no doc link), turning each lock, atomic access,
//! condvar wait and spawn into a schedule point of the
//! bounded-preemption DFS. Outside an active model run (plain unit
//! tests compiled with the cfg on) the wrappers transparently fall
//! back to `std` behaviour, so the full test suite passes under either
//! cfg.
//!
//! Known, deliberate divergences of the model wrappers from `std`:
//!
//! * Lock poisoning is invisible: `lock()`/`wait()` always return
//!   `Ok`. A panic under the checker fails the whole execution anyway,
//!   and surfacing poison mid-teardown would double-panic unwinding
//!   threads.
//! * `compare_exchange` applies its *success* ordering on failure too
//!   (at least as strong as `std`), and `compare_exchange_weak` never
//!   fails spuriously.
//! * Condvars never wake spuriously under the model and `notify_one`
//!   is FIFO.

#[cfg(not(cosbt_model))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Atomic types for the shimmed crates (`std::sync::atomic` alias).
#[cfg(not(cosbt_model))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Thread spawning for the shimmed crates (`std::thread` alias).
#[cfg(not(cosbt_model))]
pub mod thread {
    pub use std::thread::{spawn, yield_now, JoinHandle, Result};
}

#[cfg(cosbt_model)]
pub use model_impl::{Condvar, Mutex, MutexGuard};
#[cfg(cosbt_model)]
pub use std::sync::Arc;

/// Atomic types routed through the model checker.
#[cfg(cosbt_model)]
pub mod atomic {
    pub use super::model_impl::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    pub use std::sync::atomic::Ordering;
}

/// Thread spawning routed through the model checker.
#[cfg(cosbt_model)]
pub mod thread {
    pub use super::model_impl::thread::{spawn, yield_now, JoinHandle};
    pub use std::thread::Result;
}

#[cfg(cosbt_model)]
mod model_impl {
    use crate::model::{self, Controller};
    use std::sync::{Arc, LockResult};

    /// Lazily binds a shim object to a per-execution scheduler id.
    ///
    /// Model executions are created and torn down per explored
    /// schedule; objects constructed inside the checked closure are
    /// registered with the controller on first use, keyed by the run
    /// id so a stale binding from a previous execution is re-made.
    struct ModelReg(std::sync::Mutex<Option<(u64, usize)>>);

    impl ModelReg {
        const fn new() -> ModelReg {
            ModelReg(std::sync::Mutex::new(None))
        }

        fn resolve(&self, ctl: &Arc<Controller>, register: impl FnOnce() -> usize) -> usize {
            let mut g = self.0.lock().unwrap_or_else(|e| e.into_inner());
            match *g {
                Some((rid, id)) if rid == ctl.run_id => id,
                _ => {
                    let id = register();
                    *g = Some((ctl.run_id, id));
                    id
                }
            }
        }
    }

    /// Model-aware mutex: schedule point + happens-before edge per
    /// lock/unlock during a run, plain `std::sync::Mutex` otherwise.
    pub struct Mutex<T: ?Sized> {
        reg: ModelReg,
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates a new mutex.
        pub fn new(value: T) -> Mutex<T> {
            Mutex {
                reg: ModelReg::new(),
                inner: std::sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        fn model_id(&self, ctl: &Arc<Controller>) -> usize {
            self.reg.resolve(ctl, || ctl.register_mutex())
        }

        /// Acquires the mutex (always `Ok`; see the module docs on
        /// poisoning).
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let model = model::active().map(|(ctl, _)| {
                let mid = self.model_id(&ctl);
                ctl.mutex_lock(mid);
                (ctl, mid)
            });
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            Ok(MutexGuard {
                lock: self,
                inner: Some(inner),
                model,
            })
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Mutex<T> {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// Guard for [`Mutex`]; releases the model lock on drop.
    pub struct MutexGuard<'a, T: ?Sized> {
        lock: &'a Mutex<T>,
        inner: Option<std::sync::MutexGuard<'a, T>>,
        model: Option<(Arc<Controller>, usize)>,
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard disarmed")
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard disarmed")
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // The std guard must be released before the model token is
            // handed to another thread, or the next model-level locker
            // would block on the std mutex while holding the token.
            drop(self.inner.take());
            if let Some((ctl, mid)) = self.model.take() {
                ctl.mutex_unlock(mid);
            }
        }
    }

    /// Model-aware condition variable.
    pub struct Condvar {
        reg: ModelReg,
        inner: std::sync::Condvar,
    }

    impl Default for Condvar {
        fn default() -> Condvar {
            Condvar::new()
        }
    }

    impl std::fmt::Debug for Condvar {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.pad("Condvar { .. }")
        }
    }

    impl Condvar {
        /// Creates a new condition variable.
        pub fn new() -> Condvar {
            Condvar {
                reg: ModelReg::new(),
                inner: std::sync::Condvar::new(),
            }
        }

        fn model_id(&self, ctl: &Arc<Controller>) -> usize {
            self.reg.resolve(ctl, || ctl.register_condvar())
        }

        /// Waits for a notification (always `Ok`; see the module docs
        /// on poisoning).
        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let lock = guard.lock;
            if let Some((ctl, mid)) = guard.model.take() {
                let cvid = self.model_id(&ctl);
                // Disarm: drop the std guard without a model unlock —
                // the scheduler releases and re-acquires the model
                // mutex atomically inside `cv_wait`.
                drop(guard.inner.take());
                drop(guard);
                ctl.cv_wait(cvid, mid);
                let inner = lock.inner.lock().unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    lock,
                    inner: Some(inner),
                    model: Some((ctl, mid)),
                })
            } else {
                let std_guard = guard.inner.take().expect("guard disarmed");
                drop(guard);
                let inner = self
                    .inner
                    .wait(std_guard)
                    .unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    lock,
                    inner: Some(inner),
                    model: None,
                })
            }
        }

        /// Wakes one waiter (the longest-waiting one under the model).
        pub fn notify_one(&self) {
            if let Some((ctl, _)) = model::active() {
                let cvid = self.model_id(&ctl);
                ctl.cv_notify(cvid, false);
            }
            self.inner.notify_one();
        }

        /// Wakes all waiters.
        pub fn notify_all(&self) {
            if let Some((ctl, _)) = model::active() {
                let cvid = self.model_id(&ctl);
                ctl.cv_notify(cvid, true);
            }
            self.inner.notify_all();
        }
    }

    /// Model-aware atomics.
    pub mod atomic {
        use super::ModelReg;
        use crate::model;
        use std::sync::atomic::Ordering;

        macro_rules! model_atomic {
            ($(#[$doc:meta])* $name:ident, $std:ident, $ty:ty, to_raw = $to_raw:expr, from_raw = $from_raw:expr) => {
                $(#[$doc])*
                pub struct $name {
                    reg: ModelReg,
                    /// Backing value: authoritative outside a model
                    /// run, kept in sync with the newest modeled store
                    /// during one.
                    plain: std::sync::atomic::$std,
                }

                impl $name {
                    /// Creates a new atomic with the given value.
                    pub fn new(v: $ty) -> $name {
                        $name {
                            reg: ModelReg::new(),
                            plain: std::sync::atomic::$std::new(v),
                        }
                    }

                    fn model_id(
                        &self,
                        ctl: &std::sync::Arc<model::Controller>,
                    ) -> usize {
                        #[allow(clippy::redundant_closure_call)]
                        self.reg.resolve(ctl, || {
                            let init = ($to_raw)(self.plain.load(Ordering::SeqCst));
                            ctl.register_atomic(init)
                        })
                    }

                    /// Loads the value.
                    pub fn load(&self, order: Ordering) -> $ty {
                        #[allow(clippy::redundant_closure_call)]
                        match model::active() {
                            Some((ctl, _)) => {
                                let aid = self.model_id(&ctl);
                                ($from_raw)(ctl.atomic_load(aid, order))
                            }
                            None => self.plain.load(order),
                        }
                    }

                    /// Stores a value.
                    pub fn store(&self, val: $ty, order: Ordering) {
                        #[allow(clippy::redundant_closure_call)]
                        match model::active() {
                            Some((ctl, _)) => {
                                let aid = self.model_id(&ctl);
                                ctl.atomic_store(aid, ($to_raw)(val), order);
                                self.plain.store(val, Ordering::SeqCst);
                            }
                            None => self.plain.store(val, order),
                        }
                    }

                    /// Swaps in a new value, returning the old one.
                    pub fn swap(&self, val: $ty, order: Ordering) -> $ty {
                        #[allow(clippy::redundant_closure_call)]
                        match model::active() {
                            Some((ctl, _)) => {
                                let aid = self.model_id(&ctl);
                                let old =
                                    ctl.atomic_rmw(aid, order, |_| Some(($to_raw)(val)));
                                self.plain.store(val, Ordering::SeqCst);
                                ($from_raw)(old)
                            }
                            None => self.plain.swap(val, order),
                        }
                    }

                    /// Compare-and-exchange; under the model the
                    /// success ordering is applied on failure too.
                    pub fn compare_exchange(
                        &self,
                        current: $ty,
                        new: $ty,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        #[allow(clippy::redundant_closure_call)]
                        match model::active() {
                            Some((ctl, _)) => {
                                let aid = self.model_id(&ctl);
                                let cur_raw = ($to_raw)(current);
                                let old = ctl.atomic_rmw(aid, success, |o| {
                                    (o == cur_raw).then_some(($to_raw)(new))
                                });
                                if old == cur_raw {
                                    self.plain.store(new, Ordering::SeqCst);
                                    Ok(($from_raw)(old))
                                } else {
                                    Err(($from_raw)(old))
                                }
                            }
                            None => self
                                .plain
                                .compare_exchange(current, new, success, failure),
                        }
                    }

                    /// [`Self::compare_exchange`] that may spuriously
                    /// fail on real hardware; never spurious under the
                    /// model.
                    pub fn compare_exchange_weak(
                        &self,
                        current: $ty,
                        new: $ty,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        self.compare_exchange(current, new, success, failure)
                    }
                }

                impl Default for $name {
                    fn default() -> $name {
                        $name::new(<$ty>::default())
                    }
                }

                impl std::fmt::Debug for $name {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        std::fmt::Debug::fmt(&self.load(Ordering::SeqCst), f)
                    }
                }
            };
        }

        macro_rules! model_atomic_arith {
            ($name:ident, $ty:ty, to_raw = $to_raw:expr, from_raw = $from_raw:expr) => {
                impl $name {
                    /// Wrapping add; returns the previous value.
                    pub fn fetch_add(&self, val: $ty, order: Ordering) -> $ty {
                        #[allow(clippy::redundant_closure_call)]
                        match model::active() {
                            Some((ctl, _)) => {
                                let aid = self.model_id(&ctl);
                                let old = ctl.atomic_rmw(aid, order, |o| {
                                    Some(($to_raw)(($from_raw)(o).wrapping_add(val)))
                                });
                                let old = ($from_raw)(old);
                                self.plain.store(old.wrapping_add(val), Ordering::SeqCst);
                                old
                            }
                            None => self.plain.fetch_add(val, order),
                        }
                    }

                    /// Wrapping subtract; returns the previous value.
                    pub fn fetch_sub(&self, val: $ty, order: Ordering) -> $ty {
                        #[allow(clippy::redundant_closure_call)]
                        match model::active() {
                            Some((ctl, _)) => {
                                let aid = self.model_id(&ctl);
                                let old = ctl.atomic_rmw(aid, order, |o| {
                                    Some(($to_raw)(($from_raw)(o).wrapping_sub(val)))
                                });
                                let old = ($from_raw)(old);
                                self.plain.store(old.wrapping_sub(val), Ordering::SeqCst);
                                old
                            }
                            None => self.plain.fetch_sub(val, order),
                        }
                    }
                }
            };
        }

        model_atomic!(
            /// Model-aware `AtomicU64`.
            AtomicU64,
            AtomicU64,
            u64,
            to_raw = |v: u64| v,
            from_raw = |v: u64| v
        );
        model_atomic_arith!(AtomicU64, u64, to_raw = |v: u64| v, from_raw = |v: u64| v);

        model_atomic!(
            /// Model-aware `AtomicUsize`.
            AtomicUsize,
            AtomicUsize,
            usize,
            to_raw = |v: usize| v as u64,
            from_raw = |v: u64| v as usize
        );
        model_atomic_arith!(
            AtomicUsize,
            usize,
            to_raw = |v: usize| v as u64,
            from_raw = |v: u64| v as usize
        );

        model_atomic!(
            /// Model-aware `AtomicBool`.
            AtomicBool,
            AtomicBool,
            bool,
            to_raw = |v: bool| v as u64,
            from_raw = |v: u64| v != 0
        );

        impl AtomicBool {
            /// Logical-or; returns the previous value.
            pub fn fetch_or(&self, val: bool, order: Ordering) -> bool {
                match model::active() {
                    Some((ctl, _)) => {
                        let aid = self.model_id(&ctl);
                        let old = ctl.atomic_rmw(aid, order, |o| Some(u64::from(o != 0 || val)));
                        let old = old != 0;
                        self.plain.store(old || val, Ordering::SeqCst);
                        old
                    }
                    None => self.plain.fetch_or(val, order),
                }
            }
        }
    }

    /// Model-aware thread spawning.
    pub mod thread {
        use crate::model::{self, Controller};
        use std::sync::Arc;

        enum Inner<T> {
            Std(std::thread::JoinHandle<T>),
            Model {
                ctl: Arc<Controller>,
                tid: usize,
                slot: Arc<std::sync::Mutex<Option<T>>>,
            },
        }

        /// Handle to a spawned thread (model thread during a run, OS
        /// thread otherwise).
        pub struct JoinHandle<T>(Inner<T>);

        impl<T> JoinHandle<T> {
            /// Waits for the thread to finish and returns its result.
            pub fn join(self) -> std::thread::Result<T> {
                match self.0 {
                    Inner::Std(h) => h.join(),
                    Inner::Model { ctl, tid, slot } => {
                        ctl.join_thread(tid);
                        match slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                            Some(v) => Ok(v),
                            None => Err(Box::new("model thread finished without a result")),
                        }
                    }
                }
            }
        }

        impl<T> std::fmt::Debug for JoinHandle<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.pad("JoinHandle { .. }")
            }
        }

        /// Spawns a thread (see `std::thread::spawn`): a model thread
        /// during a run, an OS thread otherwise.
        pub fn spawn<F, T>(f: F) -> JoinHandle<T>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let Some((ctl, _)) = model::active() else {
                return JoinHandle(Inner::Std(std::thread::spawn(f)));
            };
            let slot = Arc::new(std::sync::Mutex::new(None));
            let slot2 = Arc::clone(&slot);
            let tid = Controller::spawn(
                &ctl,
                Box::new(move || {
                    let v = f();
                    *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                }),
            );
            JoinHandle(Inner::Model { ctl, tid, slot })
        }

        /// Yields the scheduler: a non-preemptive switch under the
        /// model, `std::thread::yield_now` otherwise.
        pub fn yield_now() {
            match model::active() {
                Some((ctl, _)) => ctl.yield_now(),
                None => std::thread::yield_now(),
            }
        }
    }
}

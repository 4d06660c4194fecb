//! Offline stand-in for `crossbeam`'s scoped threads, backed by
//! `std::thread::scope` (which did not exist when crossbeam introduced the
//! pattern, but does now).
//!
//! API surface covered: `crossbeam::scope(|s| …)` returning a `Result`,
//! `Scope::spawn(|_| …)`, and
//! `Scope::builder().name(…).spawn(|_| …)`.
//! The closure argument that crossbeam passes (a nested-spawn handle) is
//! replaced by a zero-sized [`ScopeHandle`](thread::ScopeHandle); every call site in this
//! workspace ignores it.
//!
//! Divergence from real crossbeam: a panicking child thread makes the
//! enclosing `scope` call panic on join (std behavior) instead of returning
//! `Err` — all call sites `.expect()` the result, so both surface the same
//! way.

use std::any::Any;

pub mod thread {
    use super::*;

    /// Token passed to spawned closures in place of crossbeam's nested
    /// spawn handle.
    pub struct ScopeHandle;

    /// A scope in which scoped threads can be spawned.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Handle to join a scoped thread (joined implicitly at scope end if
    /// dropped).
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    /// Named-thread builder mirroring `crossbeam::thread::ScopedThreadBuilder`.
    pub struct ScopedThreadBuilder<'scope, 'env: 'scope> {
        scope: &'scope std::thread::Scope<'scope, 'env>,
        builder: std::thread::Builder,
    }

    impl<'scope, 'env> ScopedThreadBuilder<'scope, 'env> {
        pub fn name(mut self, name: String) -> Self {
            self.builder = self.builder.name(name);
            self
        }

        pub fn spawn<F, T>(self, f: F) -> std::io::Result<ScopedJoinHandle<'scope, T>>
        where
            F: FnOnce(&ScopeHandle) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self
                .builder
                .spawn_scoped(self.scope, move || f(&ScopeHandle))?;
            Ok(ScopedJoinHandle { inner })
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&ScopeHandle) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            ScopedJoinHandle {
                inner: self.inner.spawn(move || f(&ScopeHandle)),
            }
        }

        pub fn builder(&self) -> ScopedThreadBuilder<'scope, 'env> {
            ScopedThreadBuilder {
                scope: self.inner,
                builder: std::thread::Builder::new(),
            }
        }
    }

    /// Create a scope for spawning threads that may borrow from the caller.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

pub use thread::scope;

#[cfg(test)]
mod tests {
    #[test]
    fn threads_share_borrowed_data_and_join() {
        let data = vec![1u64, 2, 3, 4];
        let mut out = vec![0u64; 4];
        super::scope(|s| {
            for (slot, &x) in out.iter_mut().zip(&data) {
                s.spawn(move |_| {
                    *slot = x * 10;
                });
            }
        })
        .expect("threads join");
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn builder_names_thread() {
        let name = super::scope(|s| {
            s.builder()
                .name("worker-7".to_string())
                .spawn(|_| std::thread::current().name().map(str::to_string))
                .expect("spawn")
                .join()
                .expect("join")
        })
        .expect("scope");
        assert_eq!(name.as_deref(), Some("worker-7"));
    }
}

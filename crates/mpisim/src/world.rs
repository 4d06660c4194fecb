//! World launcher: one OS thread per simulated rank.
//!
//! A rank is live from launch until its closure returns, fails or panics.
//! A world ends when every rank has left, or when every live rank is
//! blocked in a receive and returns the same [`SimError::Deadlock`]. There
//! is no timer: a closure that computes forever is the caller's to bound.

use crate::comm::Comm;
use crate::error::SimError;
use std::sync::Arc;

/// Stack reserved for every rank thread (pages are touched only as used).
///
/// The C interpreter runs an interpreted call as nested Rust calls and
/// stops a rank at `mpirical_interp::MAX_CALL_DEPTH` (1 000) calls in
/// progress, or once those calls hold `mpirical_interp::MAX_LEVELS`
/// (16 000) interpreter frames. An optimised build spends at most ≈ 0.3
/// KiB of stack per frame, so 8 MiB holds that budget with room to spare
/// — and stays small enough that a 4-rank world's stacks fit glibc's
/// 40 MiB cache of freed thread stacks, which verification's many short
/// worlds rely on (on a 2-core Xeon, 16 MiB
/// stacks cost ≈ 30 µs more per 1 + 2 + 4-rank round, 128 MiB ≈ 65 µs,
/// 8 MiB nothing measurable). A debug build spends up to ≈ 7 KiB per
/// frame (≈ 112 MiB at the budget), so it gets 128 MiB. The thread
/// default of 2 MiB let recursion in a submitted program overflow the
/// stack and abort the process.
pub const RANK_STACK_BYTES: usize = if cfg!(debug_assertions) {
    128 << 20
} else {
    8 << 20
};

/// Configuration for a simulated world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of ranks.
    pub nranks: usize,
}

impl WorldConfig {
    pub fn new(nranks: usize) -> WorldConfig {
        WorldConfig { nranks }
    }
}

/// Entry point of the simulated runtime.
pub struct World;

impl World {
    /// Run `f` on `nranks` ranks. Returns each rank's result in rank order,
    /// or the root-cause error: the lowest-rank error that is not an echo of
    /// a peer's failure ([`SimError::is_echo`]).
    pub fn run<T, F>(nranks: usize, f: F) -> Result<Vec<T>, SimError>
    where
        T: Send,
        F: Fn(&Comm) -> Result<T, SimError> + Send + Sync,
    {
        Self::run_with(WorldConfig::new(nranks), f)
    }

    /// Run with explicit configuration.
    pub fn run_with<T, F>(cfg: WorldConfig, f: F) -> Result<Vec<T>, SimError>
    where
        T: Send,
        F: Fn(&Comm) -> Result<T, SimError> + Send + Sync,
    {
        assert!(cfg.nranks > 0, "world needs at least one rank");
        let shared = crate::comm::Shared::new(cfg.nranks);
        let mut results: Vec<Option<Result<T, SimError>>> = (0..cfg.nranks).map(|_| None).collect();

        crossbeam::scope(|scope| {
            for (rank, slot) in results.iter_mut().enumerate() {
                let shared = Arc::clone(&shared);
                let f = &f;
                scope
                    .builder()
                    .name(format!("mpisim-rank-{rank}"))
                    .stack_size(RANK_STACK_BYTES)
                    .spawn(move |_| {
                        let comm = Comm::new(rank, cfg.nranks, Arc::clone(&shared));
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
                        let result = match outcome {
                            Ok(r) => r,
                            Err(payload) => {
                                let message = payload
                                    .downcast_ref::<&str>()
                                    .map(|s| s.to_string())
                                    .or_else(|| payload.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "unknown panic".to_string());
                                Err(SimError::RankPanicked { rank, message })
                            }
                        };
                        shared.leave(rank, result.is_err());
                        *slot = Some(result);
                    })
                    .expect("spawn rank thread");
            }
        })
        .expect("rank scope");

        let mut out = Vec::with_capacity(cfg.nranks);
        let mut errors = Vec::new();
        for (rank, r) in results.into_iter().flatten().enumerate() {
            match r {
                Ok(v) => out.push(v),
                Err(e) => errors.push((rank, e)),
            }
        }
        // `min_by_key` keeps the first of equals: lowest rank, echoes last.
        match errors.into_iter().min_by_key(|(rank, e)| e.is_echo(*rank)) {
            Some((_, e)) => Err(e),
            None => Ok(out),
        }
    }
}

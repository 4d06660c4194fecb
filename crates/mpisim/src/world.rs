//! World launcher: rank 0 on the calling thread, one OS thread per other
//! rank.
//!
//! A rank is live from launch until its closure returns, fails or panics.
//! A world ends when every rank has left, or when every live rank is
//! blocked in a receive and returns the same [`SimError::Deadlock`]. There
//! is no timer: a closure that computes forever is the caller's to bound.
//!
//! Rank 0 runs on the thread that calls [`World::run`] — a 1-rank world
//! spawns nothing — and ranks `1..n` on scoped threads with the default
//! stack. The C interpreter runs a program as a flat loop with heap-held
//! call frames, so a rank's stack does not grow with what it interprets.

use crate::comm::Comm;
use crate::error::SimError;
use std::sync::Arc;

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
        let run_rank = |rank: usize| {
            let comm = Comm::new(rank, cfg.nranks, Arc::clone(&shared));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
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
            result
        };
        let mut results: Vec<Option<Result<T, SimError>>> = (0..cfg.nranks).map(|_| None).collect();
        let (first, others) = results.split_first_mut().expect("at least one rank");

        crossbeam::scope(|scope| {
            for (slot, rank) in others.iter_mut().zip(1..) {
                let run_rank = &run_rank;
                scope
                    .builder()
                    .name(format!("mpisim-rank-{rank}"))
                    .spawn(move |_| *slot = Some(run_rank(rank)))
                    .expect("spawn rank thread");
            }
            *first = Some(run_rank(0));
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

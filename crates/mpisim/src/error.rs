//! Error types of the simulated runtime.

use std::fmt;

/// A rank that slept in a receive with no matching message at the instant
/// the world went quiescent — one entry of the snapshot a
/// [`SimError::Deadlock`] carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedOp {
    pub rank: usize,
    /// Human-readable description of the pending operation, e.g.
    /// `recv(source=Rank(1), tag=Value(7))`.
    pub op: String,
}

/// Everything that can go wrong inside a simulated MPI program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Every rank still in the world was blocked in a receive (or a
    /// collective built on one) that no delivered message matched — the
    /// stand-in for a hung MPI job. Declared the instant it becomes true;
    /// every blocked rank returns this same value.
    Deadlock {
        /// The lowest blocked rank.
        rank: usize,
        detail: String,
        /// Every live rank and what it waited for, rank order; never empty.
        blocked: Vec<BlockedOp>,
    },
    /// Receive datatype differs from the sent datatype.
    TypeMismatch {
        rank: usize,
        expected: &'static str,
        actual: &'static str,
    },
    /// Receive buffer smaller than the incoming message (MPI_ERR_TRUNCATE).
    Truncation {
        rank: usize,
        buffer: usize,
        incoming: usize,
    },
    /// Destination/source rank outside the communicator.
    RankOutOfBounds { rank: usize, requested: isize },
    /// A rank's closure panicked.
    RankPanicked { rank: usize, message: String },
    /// `rank` stopped the world: it called MPI_Abort, or its closure failed
    /// (code 1). Peers that would otherwise sleep return this same value.
    Aborted { rank: usize, code: i32 },
}

impl SimError {
    /// The rank that raised the error.
    pub fn rank(&self) -> usize {
        match self {
            SimError::Deadlock { rank, .. }
            | SimError::TypeMismatch { rank, .. }
            | SimError::Truncation { rank, .. }
            | SimError::RankOutOfBounds { rank, .. }
            | SimError::RankPanicked { rank, .. }
            | SimError::Aborted { rank, .. } => *rank,
        }
    }

    /// True when `reporter` merely relays a peer's failure: a rank that
    /// fails stops the world, and its sleeping peers return `Aborted`
    /// naming it. The root cause of a run is its first non-echo error.
    pub fn is_echo(&self, reporter: usize) -> bool {
        matches!(self, SimError::Aborted { rank, .. } if *rank != reporter)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock {
                rank,
                detail,
                blocked,
            } => {
                write!(f, "rank {rank}: deadlock — {detail}")?;
                if !blocked.is_empty() {
                    write!(f, "; blocked ranks:")?;
                    for b in blocked {
                        write!(f, " [rank {} in {}]", b.rank, b.op)?;
                    }
                }
                Ok(())
            }
            SimError::TypeMismatch {
                rank,
                expected,
                actual,
            } => write!(
                f,
                "rank {rank}: datatype mismatch (recv {expected}, sent {actual})"
            ),
            SimError::Truncation {
                rank,
                buffer,
                incoming,
            } => write!(
                f,
                "rank {rank}: message truncated (buffer {buffer} < incoming {incoming})"
            ),
            SimError::RankOutOfBounds { rank, requested } => {
                write!(f, "rank {rank}: peer rank {requested} out of bounds")
            }
            SimError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::Aborted { rank, code } => {
                write!(f, "rank {rank} aborted the world with code {code}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_rank() {
        let e = SimError::Deadlock {
            rank: 3,
            detail: "recv tag 7".into(),
            blocked: vec![
                BlockedOp {
                    rank: 1,
                    op: "recv(source=Rank(3), tag=Value(7))".into(),
                },
                BlockedOp {
                    rank: 3,
                    op: "recv(source=Rank(1), tag=Value(7))".into(),
                },
            ],
        };
        assert_eq!(e.rank(), 3);
        let text = e.to_string();
        assert!(text.contains("deadlock"));
        assert!(text.contains("rank 1 in recv(source=Rank(3)"), "{text}");

        let t = SimError::Truncation {
            rank: 1,
            buffer: 4,
            incoming: 8,
        };
        assert_eq!(t.rank(), 1);
        assert!(t.to_string().contains("truncated"));
    }
}

//! Interpreter errors.

use mpirical_sim::SimError;
use std::fmt;

/// A runtime fault in the interpreted program.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// Name lookup failed.
    Undefined { name: String, line: u32 },
    /// Operation applied to an incompatible value.
    TypeError { detail: String, line: u32 },
    /// Out-of-bounds memory access.
    OutOfBounds { detail: String, line: u32 },
    /// Integer division by zero.
    DivideByZero { line: u32 },
    /// The per-rank step budget was exhausted (runaway loop).
    StepLimit { limit: u64 },
    /// The per-rank memory budget was exhausted (unbounded allocation).
    MemoryLimit { limit: usize },
    /// A call would nest deeper than [`MAX_CALL_DEPTH`] user-function calls,
    /// or its static levels past [`MAX_LEVELS`] (unbounded recursion).
    /// `limit` is the calls in progress when the next was refused.
    ///
    /// [`MAX_CALL_DEPTH`]: crate::MAX_CALL_DEPTH
    /// [`MAX_LEVELS`]: crate::MAX_LEVELS
    CallDepth { limit: usize, line: u32 },
    /// An MPI element count that is negative or exceeds the cell budget, the
    /// most elements a rank's memory can hold.
    MessageCount { count: i64, limit: usize, line: u32 },
    /// Unsupported construct reached at runtime.
    Unsupported { detail: String, line: u32 },
    /// Error raised by the simulated MPI runtime.
    Mpi(SimError),
}

impl InterpError {
    pub fn line(&self) -> u32 {
        match self {
            InterpError::Undefined { line, .. }
            | InterpError::TypeError { line, .. }
            | InterpError::OutOfBounds { line, .. }
            | InterpError::DivideByZero { line }
            | InterpError::CallDepth { line, .. }
            | InterpError::MessageCount { line, .. }
            | InterpError::Unsupported { line, .. } => *line,
            InterpError::StepLimit { .. }
            | InterpError::MemoryLimit { .. }
            | InterpError::Mpi(_) => 0,
        }
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Undefined { name, line } => {
                write!(f, "line {line}: `{name}` is not defined")
            }
            InterpError::TypeError { detail, line } => {
                write!(f, "line {line}: type error: {detail}")
            }
            InterpError::OutOfBounds { detail, line } => {
                write!(f, "line {line}: out-of-bounds access: {detail}")
            }
            InterpError::DivideByZero { line } => {
                write!(f, "line {line}: division by zero")
            }
            InterpError::StepLimit { limit } => {
                write!(f, "step limit of {limit} exceeded (runaway loop?)")
            }
            InterpError::MemoryLimit { limit } => {
                write!(
                    f,
                    "memory limit of {limit} cells exceeded (runaway allocation?)"
                )
            }
            InterpError::CallDepth { limit, line } => {
                write!(
                    f,
                    "line {line}: call depth limit of {limit} exceeded (unbounded recursion?)"
                )
            }
            InterpError::MessageCount { count, limit, line } => {
                write!(f, "line {line}: MPI count {count} outside 0..={limit}")
            }
            InterpError::Unsupported { detail, line } => {
                write!(f, "line {line}: unsupported: {detail}")
            }
            InterpError::Mpi(e) => write!(f, "MPI: {e}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<SimError> for InterpError {
    fn from(e: SimError) -> InterpError {
        InterpError::Mpi(e)
    }
}

/// An [`InterpError`] on its way out of the interpreter. Every evaluation
/// step returns a `Result`, and almost all of them succeed: boxing the rare
/// error keeps `Result<Value, Fault>` at the size of a `Value` (16 bytes,
/// against 56 unboxed), so the common path moves two words per step.
pub type Fault = Box<InterpError>;

impl From<SimError> for Fault {
    fn from(e: SimError) -> Fault {
        Box::new(InterpError::Mpi(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = InterpError::Undefined {
            name: "foo".into(),
            line: 3,
        };
        assert!(e.to_string().contains("foo"));
        assert_eq!(e.line(), 3);
        let m: InterpError = SimError::Aborted { rank: 1, code: 2 }.into();
        assert!(m.to_string().contains("MPI"));
        assert_eq!(m.line(), 0);
    }
}

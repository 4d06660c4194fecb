//! # mpirical-interp
//!
//! An interpreter for the `mpirical-cparse` C subset with MPI calls bound
//! to the `mpirical-sim` runtime.
//!
//! Together with the simulator this substitutes the paper's §VI-C validity
//! check ("we evaluated the validity of generated programs by compiling and
//! running them"): [`run_source`] executes a program on N simulated ranks —
//! every rank with private memory, all of them taking turns on the calling
//! thread, where a rank runs until it finishes, fails or waits in an MPI
//! call — captures every rank's `printf` output, and reports deterministic
//! errors for deadlocks, type mismatches, out-of-bounds accesses and
//! runaway loops.
//!
//! Execution is **compile, then run**. [`compile()`] resolves the AST once —
//! every identifier becomes a slot index, every call site knows its callee,
//! every declaration knows its type ([`mod@compile`] says what is resolved
//! when, and why undefined names and short argument lists stay run-time
//! errors) — and lowers each function body to flat code: one instruction
//! stream with jump targets and explicit call frames (`code.rs`).
//! [`run_compiled`] then runs that one [`Compiled`] program on any number
//! of worlds, each rank stepping through it in a single dispatch loop over
//! its own [`Memory`], without allocating or hashing per step and without
//! growing the Rust stack. [`run_program`] is the two in a row.
//!
//! A world spawns no thread: `mpirical-sim`'s `World::run_stepped` resumes
//! the lowest-numbered rank that can run, so an `MPI_ANY_SOURCE` receive
//! always matches the same sender and a world's outcome is a function of
//! its program. Once a rank fails, ranks above it are not resumed again.
//!
//! ```
//! use mpirical_interp::run_source;
//!
//! let src = r#"
//! #include <mpi.h>
//! int main(int argc, char **argv) {
//!     int rank, size;
//!     MPI_Init(&argc, &argv);
//!     MPI_Comm_rank(MPI_COMM_WORLD, &rank);
//!     MPI_Comm_size(MPI_COMM_WORLD, &size);
//!     int local = rank + 1;
//!     int total = 0;
//!     MPI_Allreduce(&local, &total, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
//!     if (rank == 0) { printf("total = %d\n", total); }
//!     MPI_Finalize();
//!     return 0;
//! }
//! "#;
//! let out = run_source(src, 4).unwrap();
//! assert_eq!(out.rank_outputs[0], "total = 10\n");
//! ```

pub mod builtins;
mod code;
pub mod compile;
pub mod error;
pub mod interp;
pub mod machine;
#[cfg(test)]
mod shadow;

pub use compile::{compile, Compiled};
pub use error::InterpError;
pub use interp::{Limits, MAX_CALL_DEPTH, MAX_LEVELS};
pub use machine::{Binding, CType, Cell, Memory, Value};

use mpirical_cparse::{parse_strict, Program};
use mpirical_sim::World;
use std::time::{Duration, Instant};

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub nranks: usize,
    /// No longer read by the simulator, which declares deadlock at
    /// quiescence; kept until the perf ledger (`benchmark/`, which builds
    /// this struct literally) is re-based.
    pub timeout: Duration,
    pub limits: Limits,
}

impl RunConfig {
    pub fn new(nranks: usize) -> RunConfig {
        RunConfig {
            nranks,
            timeout: Duration::from_secs(5),
            limits: Limits::default(),
        }
    }
}

/// Result of a successful run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Captured stdout per rank, rank order.
    pub rank_outputs: Vec<String>,
    /// `main`'s return value per rank.
    pub exit_codes: Vec<i64>,
}

impl RunOutput {
    /// All rank outputs concatenated in rank order (a deterministic
    /// linearization of the interleaved stdout a real run would produce).
    pub fn combined(&self) -> String {
        self.rank_outputs.concat()
    }
}

/// Run a parsed program on `cfg.nranks` simulated ranks: [`compile()`], then
/// [`run_compiled`].
pub fn run_program(prog: &Program, cfg: &RunConfig) -> Result<RunOutput, InterpError> {
    run_compiled(&compile(prog), cfg)
}

/// Run a compiled program on `cfg.nranks` simulated ranks, stepped on the
/// calling thread (`World::run_stepped`): the lowest-numbered rank that
/// can run, runs until it finishes, fails or waits in an MPI call, so the
/// outcome depends only on the program. The program is only read, so one
/// [`Compiled`] serves every world a caller runs it on.
pub fn run_compiled(code: &Compiled, cfg: &RunConfig) -> Result<RunOutput, InterpError> {
    let start = Instant::now();
    let mut ranks: Vec<interp::Interp> = (0..cfg.nranks)
        .map(|rank| interp::Interp::new(code, rank, cfg.nranks, cfg.limits, start))
        .collect();
    let ends = World::run_stepped(cfg.nranks, |rank, world| ranks[rank].resume(world));
    let codes = World::outcome_by(ends, |e| match &**e {
        InterpError::Mpi(s) => Some(s),
        _ => None,
    })
    .map_err(|e| *e)?;
    Ok(RunOutput {
        rank_outputs: ranks.into_iter().map(interp::Interp::into_output).collect(),
        exit_codes: codes,
    })
}

/// Parse and run C source on `nranks` simulated ranks.
pub fn run_source(source: &str, nranks: usize) -> Result<RunOutput, InterpError> {
    let prog = parse_strict(source).map_err(|e| InterpError::Unsupported {
        detail: format!("parse failed: {e}"),
        line: 1,
    })?;
    run_program(&prog, &RunConfig::new(nranks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpirical_sim::SimError;

    fn run1(src: &str) -> RunOutput {
        run_source(src, 1).unwrap_or_else(|e| panic!("run failed: {e}\n{src}"))
    }

    #[test]
    fn arithmetic_and_printf() {
        let out = run1(
            r#"int main() {
                int a = 7, b = 3;
                printf("%d %d %d %d %d\n", a + b, a - b, a * b, a / b, a % b);
                double x = 1.0 / 4.0;
                printf("%.2f\n", x);
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "10 4 21 2 1\n0.25\n");
    }

    #[test]
    fn control_flow() {
        let out = run1(
            r#"int main() {
                int total = 0;
                for (int i = 0; i < 10; i++) {
                    if (i % 2 == 0) { continue; }
                    if (i == 9) { break; }
                    total += i;
                }
                int w = 0;
                while (w < 5) { w++; }
                int d = 0;
                do { d++; } while (d < 3);
                printf("%d %d %d\n", total, w, d);
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "16 5 3\n"); // 1+3+5+7 = 16, i=9 breaks
    }

    #[test]
    fn arrays_and_pointers() {
        let out = run1(
            r#"int main() {
                int a[5];
                for (int i = 0; i < 5; i++) { a[i] = i * i; }
                int *p = a;
                int sum = 0;
                for (int i = 0; i < 5; i++) { sum += p[i]; }
                int *q = &a[2];
                printf("%d %d %d\n", sum, *q, *(q + 1));
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "30 4 9\n");
    }

    #[test]
    fn two_dimensional_arrays() {
        let out = run1(
            r#"int main() {
                double m[3][4];
                for (int i = 0; i < 3; i++) {
                    for (int j = 0; j < 4; j++) { m[i][j] = i * 10 + j; }
                }
                printf("%.0f %.0f %.0f\n", m[0][0], m[1][2], m[2][3]);
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "0 12 23\n");
    }

    #[test]
    fn functions_and_recursion() {
        let out = run1(
            r#"long fact(int n) {
                if (n <= 1) { return 1; }
                return n * fact(n - 1);
            }
            double square(double x) { return x * x; }
            int main() {
                printf("%ld %.1f\n", fact(6), square(2.5));
                return 0;
            }"#,
        );
        // 6.25 is exactly representable; %.1f rounds half-to-even → 6.2.
        assert_eq!(out.rank_outputs[0], "720 6.2\n");
    }

    #[test]
    fn array_arguments_mutate_caller() {
        let out = run1(
            r#"void fill(int *a, int len) {
                for (int i = 0; i < len; i++) { a[i] = len - i; }
            }
            int main() {
                int buf[4];
                fill(buf, 4);
                printf("%d %d %d %d\n", buf[0], buf[1], buf[2], buf[3]);
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "4 3 2 1\n");
    }

    #[test]
    fn malloc_and_cast() {
        let out = run1(
            r#"int main() {
                int n = 6;
                double *data = (double *)malloc(n * sizeof(double));
                for (int i = 0; i < n; i++) { data[i] = i * 0.5; }
                double sum = 0.0;
                for (int i = 0; i < n; i++) { sum += data[i]; }
                free(data);
                printf("%.1f\n", sum);
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "7.5\n");
    }

    #[test]
    fn globals_and_helpers() {
        let out = run1(
            r#"int N = 4;
            double table[8];
            int main() {
                for (int i = 0; i < N; i++) { table[i] = i + 0.5; }
                printf("%.1f %.1f\n", table[0], table[N - 1]);
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "0.5 3.5\n");
    }

    #[test]
    fn math_builtins_work() {
        let out = run1(
            r#"#include <math.h>
            int main() {
                printf("%.1f %.1f %.1f\n", sqrt(16.0), fabs(-2.5), pow(2.0, 8.0));
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "4.0 2.5 256.0\n");
    }

    #[test]
    fn ternary_and_logicals() {
        let out = run1(
            r#"int main() {
                int a = 5;
                int b = a > 3 ? 100 : 200;
                int c = (a > 0) && (a < 10);
                int d = (a < 0) || (a == 5);
                int e = !a;
                printf("%d %d %d %d\n", b, c, d, e);
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "100 1 1 0\n");
    }

    #[test]
    fn divide_by_zero_detected() {
        let err = run_source(
            "int main() { int a = 1; int b = 0; int c = a / b; return c; }",
            1,
        )
        .unwrap_err();
        assert!(matches!(err, InterpError::DivideByZero { .. }), "{err}");
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let src = "int main() { while (1) { } return 0; }";
        let prog = mpirical_cparse::parse_strict(src).unwrap();
        let mut cfg = RunConfig::new(1);
        cfg.limits.step_limit = 10_000;
        let err = run_program(&prog, &cfg).unwrap_err();
        assert!(matches!(err, InterpError::StepLimit { .. }), "{err}");

        // On 2 ranks the world ends with rank 0's budget.
        let runaway = mpirical_cparse::parse_strict(
            "int main() { int x = 0; while (1) { x = x + 1; } return 0; }",
        )
        .unwrap();
        let mut cfg = RunConfig::new(2);
        cfg.limits.step_limit = 2_000_000;
        assert_eq!(
            run_program(&runaway, &cfg),
            Err(InterpError::StepLimit { limit: 2_000_000 })
        );
    }

    #[test]
    fn a_hundred_thousand_calls_sum_to_pi() {
        let out = run1(
            r#"double f(double x) { return 4.0 / (1.0 + x * x); }
int main() {
    int i;
    int n = 100000;
    double sum = 0.0, x, step;
    step = 1.0 / (double)n;
    for (i = 0; i < n; i++) {
        x = (i + 0.5) * step;
        sum += f(x);
    }
    printf("%.6f\n", sum * step);
    return 0;
}"#,
        );
        assert_eq!(out.combined(), "3.141593\n");
    }

    #[test]
    fn call_depth_bound_is_exact_and_fits_the_rank_stack() {
        // `depth(n)` puts n + 1 calls in progress, each with its recursive
        // call eight operators deep: the most stack per call a plain
        // expression spends. The deepest allowed chain must run, in a
        // debug build too; one call more is a typed error.
        let src = |n: usize| {
            format!(
                "int depth(int n) {{ if (n == 0) {{ return 0; }} \
                 return 1 + (1 + (1 + (1 + (1 + (1 + (1 + (1 + depth(n - 1)))))))) - 7; }}\n\
                 int main() {{ return depth({n}); }}"
            )
        };
        let out = run_source(&src(MAX_CALL_DEPTH - 1), 2).unwrap();
        assert_eq!(out.exit_codes, [MAX_CALL_DEPTH as i64 - 1; 2]);
        let err = run_source(&src(MAX_CALL_DEPTH), 2).unwrap_err();
        assert_eq!(
            err,
            InterpError::CallDepth {
                limit: MAX_CALL_DEPTH,
                line: 1
            }
        );
    }

    #[test]
    fn mpi_counts_are_bounded_by_the_cell_budget() {
        // A gather's count is checked, and so is its total over the world.
        let program = |count: &str| {
            format!(
                r#"#include <mpi.h>
                int main(int argc, char **argv) {{
                    int rank;
                    int buf[8];
                    MPI_Init(&argc, &argv);
                    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
                    MPI_Gather(buf, {count}, MPI_INT, buf, {count}, MPI_INT, 0, MPI_COMM_WORLD);
                    MPI_Finalize();
                    return 0;
                }}"#
            )
        };
        let mut cfg = RunConfig::new(2);
        cfg.limits.cell_limit = 1_000;
        let run = |count: &str| {
            let prog = mpirical_cparse::parse_strict(&program(count)).unwrap();
            run_program(&prog, &cfg)
        };
        assert!(run("4").is_ok());
        for (count, reported) in [("-1", -1), ("1001", 1001), ("501", 1002)] {
            let err = run(count).unwrap_err();
            assert!(
                matches!(
                    err,
                    InterpError::MessageCount { count, limit: 1_000, .. } if count == reported
                ),
                "count {count}: {err}"
            );
        }
    }

    #[test]
    fn memory_limit_stops_unbounded_allocation() {
        // An allocation loop must trip the cell budget with a classifiable
        // error instead of hanging (or OOM-ing) the verifier.
        let src = "int main() { while (1) { malloc(1000000 * sizeof(int)); } return 0; }";
        let prog = mpirical_cparse::parse_strict(src).unwrap();
        let mut cfg = RunConfig::new(1);
        cfg.limits.cell_limit = 100_000;
        let err = run_program(&prog, &cfg).unwrap_err();
        assert!(matches!(err, InterpError::MemoryLimit { .. }), "{err}");
    }

    #[test]
    fn memory_limit_stops_single_oversized_allocation() {
        let src = "int main() { double *p = (double *)malloc(800000000); return 0; }";
        let prog = mpirical_cparse::parse_strict(src).unwrap();
        let err = run_program(&prog, &RunConfig::new(1)).unwrap_err();
        assert!(matches!(err, InterpError::MemoryLimit { .. }), "{err}");
    }

    #[test]
    fn memory_limit_aborts_peer_ranks_promptly() {
        // Rank 1 blows the budget while rank 0 is blocked in a receive: the
        // world must end with the root cause, not a deadlock report.
        let src = r#"#include <mpi.h>
        int main(int argc, char **argv) {
            int rank;
            int buf = 0;
            MPI_Status st;
            MPI_Init(&argc, &argv);
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
            if (rank == 0) {
                MPI_Recv(&buf, 1, MPI_INT, 1, 5, MPI_COMM_WORLD, &st);
            } else {
                while (1) { malloc(1000000 * sizeof(int)); }
            }
            MPI_Finalize();
            return 0;
        }"#;
        let prog = mpirical_cparse::parse_strict(src).unwrap();
        let mut cfg = RunConfig::new(2);
        cfg.limits.cell_limit = 100_000;
        let err = run_program(&prog, &cfg).unwrap_err();
        assert!(matches!(err, InterpError::MemoryLimit { .. }), "{err}");
    }

    #[test]
    fn failing_rank_is_the_root_cause_not_its_blocked_peer() {
        // Rank 0 sits in MPI_Recv while rank 1 fails three different ways.
        // The abort wake-up used to be lost now and then
        // (benchmark/README.md finding 8) and the lower rank's deadlock
        // report then won; now no run may report one.
        let program = |failure: &str| {
            let src = format!(
                r#"#include <mpi.h>
                int main(int argc, char **argv) {{
                    int rank;
                    int buf = 0;
                    double wide = 1.5;
                    MPI_Status st;
                    MPI_Init(&argc, &argv);
                    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
                    if (rank == 0) {{
                        MPI_Send(&wide, 1, MPI_DOUBLE, 1, 4, MPI_COMM_WORLD);
                        MPI_Recv(&buf, 1, MPI_INT, 1, 5, MPI_COMM_WORLD, &st);
                    }} else {{
                        {failure}
                    }}
                    MPI_Finalize();
                    return 0;
                }}"#
            );
            mpirical_cparse::parse_strict(&src).unwrap()
        };
        let mismatch = program("MPI_Recv(&buf, 1, MPI_INT, 0, 4, MPI_COMM_WORLD, &st);");
        let memory = program("while (1) { malloc(1000000 * sizeof(int)); }");
        let abort = program("MPI_Abort(MPI_COMM_WORLD, 3);");
        let mut cfg = RunConfig::new(2);
        cfg.limits.cell_limit = 100_000;
        for i in 0..7_000 {
            let err = run_program(&mismatch, &cfg).unwrap_err();
            assert!(
                matches!(
                    err,
                    InterpError::Mpi(SimError::TypeMismatch { rank: 1, .. })
                ),
                "run {i}: {err}"
            );
            let err = run_program(&memory, &cfg).unwrap_err();
            assert!(
                matches!(err, InterpError::MemoryLimit { .. }),
                "run {i}: {err}"
            );
            let err = run_program(&abort, &cfg).unwrap_err();
            assert!(
                matches!(
                    err,
                    InterpError::Mpi(SimError::Aborted { rank: 1, code: 3 })
                ),
                "run {i}: {err}"
            );
        }
    }

    #[test]
    fn undefined_variable_reported() {
        let err = run_source("int main() { return nope; }", 1).unwrap_err();
        assert!(matches!(err, InterpError::Undefined { .. }), "{err}");
    }

    #[test]
    fn user_function_arguments_are_evaluated_once() {
        // Every call with at most two arguments used to be probed as a math
        // builtin first, which evaluated the arguments a first time.
        let out = run1(
            r#"int g = 0;
            int bump() { g = g + 1; return g; }
            int id(int v) { return v; }
            int main() {
                int r = id(bump());
                printf("%d %d", r, g);
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "1 1");
    }

    #[test]
    fn user_definition_wins_over_a_builtin_of_the_same_name() {
        let out = run1(
            r#"double sqrt(double x) { return 42.0; }
            int abs(int v) { return 7; }
            int main() {
                printf("%f %d", sqrt(4.0), abs(-3));
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "42.000000 7");
    }

    #[test]
    fn calls_with_missing_arguments_fail_with_a_typed_error() {
        // Every builtin and every MPI binding, called with no arguments at
        // all on two ranks: those that read an argument must say so with a
        // `TypeError` — indexing `args[0]` used to panic the rank thread —
        // and those that read none must simply run.
        let reads_an_argument = [
            "fprintf",
            "malloc",
            "srand",
            "abs",
            "labs",
            "exit",
            "sqrt",
            "fabs",
            "pow",
            "exp",
            "log",
            "log2",
            "log10",
            "sin",
            "cos",
            "tan",
            "floor",
            "ceil",
            "fmax",
            "fmin",
            "fmod",
            "MPI_Comm_rank",
            "MPI_Comm_size",
            "MPI_Abort",
            "MPI_Send",
            "MPI_Ssend",
            "MPI_Rsend",
            "MPI_Bsend",
            "MPI_Isend",
            "MPI_Recv",
            "MPI_Irecv",
            "MPI_Sendrecv",
            "MPI_Bcast",
            "MPI_Reduce",
            "MPI_Allreduce",
            "MPI_Gather",
            "MPI_Allgather",
            "MPI_Scatter",
        ];
        let reads_none = [
            "rand",
            "free",
            "MPI_Init",
            "MPI_Finalize",
            "MPI_Wtime",
            "MPI_Barrier",
            "MPI_Wait",
            "MPI_Get_processor_name",
            "MPI_Initialized",
            "MPI_Finalized",
        ];
        let call = |name: &str| run_source(&format!("int main() {{ {name}(); return 0; }}"), 2);
        for name in reads_an_argument {
            let err = call(name).unwrap_err();
            assert!(
                matches!(err, InterpError::TypeError { line: 1, .. }),
                "{name}(): {err}"
            );
        }
        for name in reads_none {
            assert_eq!(
                call(name).map(|out| out.exit_codes),
                Ok(vec![0, 0]),
                "{name}()"
            );
        }
        // `printf` reads a format, and says which kind it wants.
        assert!(matches!(
            call("printf").unwrap_err(),
            InterpError::Unsupported { .. }
        ));
        // A short call is only an error where it runs.
        let out = run1("int main() { if (0) { exit(); abs(); MPI_Send(); } return 3; }");
        assert_eq!(out.exit_codes, [3]);
    }

    #[test]
    fn blocks_and_calls_release_their_locals() {
        // 2000 iterations of a 1024-cell local is 1024 live cells, not two
        // million: the verifier's budget of a million must not notice.
        let src = r#"int twice(int v) { return v + v; }
        int main() {
            int k;
            long sum = 0;
            for (k = 0; k < 2000; k++) {
                int buf[1024];
                buf[0] = k;
                sum += buf[0];
            }
            for (k = 0; k < 100000; k++) { sum += twice(k); }
            printf("%ld\n", sum);
            return 0;
        }"#;
        let prog = mpirical_cparse::parse_strict(src).unwrap();
        let mut cfg = RunConfig::new(1);
        cfg.limits.cell_limit = 1_100;
        let out = run_program(&prog, &cfg).unwrap();
        assert_eq!(out.rank_outputs[0], "10001899000\n");
        // The budget still bounds what is live at one time.
        cfg.limits.cell_limit = 1_000;
        let err = run_program(&prog, &cfg).unwrap_err();
        assert!(
            matches!(err, InterpError::MemoryLimit { limit: 1_000 }),
            "{err}"
        );
    }

    #[test]
    fn malloc_blocks_outlive_the_block_that_allocated_them() {
        let out = run1(
            r#"int main() {
                int *p;
                {
                    int scratch[8];
                    p = (int *)malloc(4 * sizeof(int));
                    p[2] = 7;
                    scratch[0] = 1;
                }
                {
                    int other[64];
                    other[3] = 9;
                }
                printf("%d\n", p[2]);
                return 0;
            }"#,
        );
        assert_eq!(out.rank_outputs[0], "7\n");
    }

    #[test]
    fn a_global_is_undefined_until_its_declaration_has_run() {
        // `late` has a slot from the start, but no storage while `early`'s
        // initialiser runs — the same error the name lookup used to give.
        let err = run_source(
            "int peek() { return late; } int early = peek(); int late = 3; int main() { return 0; }",
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            InterpError::Undefined {
                name: "late".into(),
                line: 0
            }
        );
        let out = run1(
            "int peek() { return late; } int late = 3; int main() { printf(\"%d\", peek()); return 0; }",
        );
        assert_eq!(out.rank_outputs[0], "3");
    }

    #[test]
    fn rank_size_and_reduce() {
        let src = r#"#include <mpi.h>
        int main(int argc, char **argv) {
            int rank, size;
            MPI_Init(&argc, &argv);
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
            MPI_Comm_size(MPI_COMM_WORLD, &size);
            long local = rank;
            long total = 0;
            MPI_Reduce(&local, &total, 1, MPI_LONG, MPI_SUM, 0, MPI_COMM_WORLD);
            if (rank == 0) { printf("sum=%ld size=%d\n", total, size); }
            MPI_Finalize();
            return 0;
        }"#;
        let out = run_source(src, 4).unwrap();
        assert_eq!(out.rank_outputs[0], "sum=6 size=4\n");
        assert_eq!(out.rank_outputs[1], "");
    }

    #[test]
    fn send_recv_with_status() {
        let src = r#"#include <mpi.h>
        int main(int argc, char **argv) {
            int rank;
            MPI_Status st;
            MPI_Init(&argc, &argv);
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
            if (rank == 0) {
                double v = 2.5;
                MPI_Send(&v, 1, MPI_DOUBLE, 1, 42, MPI_COMM_WORLD);
            } else {
                double got = 0.0;
                MPI_Recv(&got, 1, MPI_DOUBLE, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, &st);
                printf("got %.1f from %d tag %d\n", got, st.MPI_SOURCE, st.MPI_TAG);
            }
            MPI_Finalize();
            return 0;
        }"#;
        let out = run_source(src, 2).unwrap();
        assert_eq!(out.rank_outputs[1], "got 2.5 from 0 tag 42\n");
    }

    #[test]
    fn bcast_scatter_gather_pipeline() {
        let src = r#"#include <mpi.h>
        int main(int argc, char **argv) {
            int rank, size;
            MPI_Init(&argc, &argv);
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
            MPI_Comm_size(MPI_COMM_WORLD, &size);
            int scale = 0;
            if (rank == 0) { scale = 3; }
            MPI_Bcast(&scale, 1, MPI_INT, 0, MPI_COMM_WORLD);
            int all[8];
            if (rank == 0) {
                for (int i = 0; i < 8; i++) { all[i] = i; }
            }
            int mine[2];
            MPI_Scatter(all, 2, MPI_INT, mine, 2, MPI_INT, 0, MPI_COMM_WORLD);
            mine[0] = mine[0] * scale;
            mine[1] = mine[1] * scale;
            MPI_Gather(mine, 2, MPI_INT, all, 2, MPI_INT, 0, MPI_COMM_WORLD);
            if (rank == 0) {
                printf("%d %d %d %d\n", all[0], all[3], all[5], all[7]);
            }
            MPI_Finalize();
            return 0;
        }"#;
        let out = run_source(src, 4).unwrap();
        assert_eq!(out.rank_outputs[0], "0 9 15 21\n");
    }

    #[test]
    fn pi_riemann_matches_math() {
        let src = r#"#include <mpi.h>
        #include <stdio.h>
        int main(int argc, char **argv) {
            int rank, size, i;
            int n = 20000;
            double local = 0.0, pi, x, step;
            MPI_Init(&argc, &argv);
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
            MPI_Comm_size(MPI_COMM_WORLD, &size);
            step = 1.0 / (double)n;
            for (i = rank; i < n; i += size) {
                x = (i + 0.5) * step;
                local += 4.0 / (1.0 + x * x);
            }
            local = local * step;
            MPI_Reduce(&local, &pi, 1, MPI_DOUBLE, MPI_SUM, 0, MPI_COMM_WORLD);
            if (rank == 0) { printf("%.6f\n", pi); }
            MPI_Finalize();
            return 0;
        }"#;
        let out = run_source(src, 4).unwrap();
        let pi: f64 = out.rank_outputs[0].trim().parse().unwrap();
        assert!((pi - std::f64::consts::PI).abs() < 1e-5, "pi = {pi}");
    }

    #[test]
    fn results_independent_of_nranks() {
        // Domain decomposition must not change the answer.
        let src = r#"#include <mpi.h>
        int main(int argc, char **argv) {
            int rank, size, i;
            int n = 1000;
            long local = 0, total = 0;
            MPI_Init(&argc, &argv);
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
            MPI_Comm_size(MPI_COMM_WORLD, &size);
            for (i = rank; i < n; i += size) { local += i; }
            MPI_Reduce(&local, &total, 1, MPI_LONG, MPI_SUM, 0, MPI_COMM_WORLD);
            if (rank == 0) { printf("%ld\n", total); }
            MPI_Finalize();
            return 0;
        }"#;
        let serial = run_source(src, 1).unwrap().rank_outputs[0].clone();
        let par = run_source(src, 5).unwrap().rank_outputs[0].clone();
        assert_eq!(serial, par);
        assert_eq!(serial, "499500\n");
    }

    #[test]
    fn ring_pass_terminates() {
        let src = r#"#include <mpi.h>
        int main(int argc, char **argv) {
            int rank, size;
            int token = 0;
            MPI_Status st;
            MPI_Init(&argc, &argv);
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
            MPI_Comm_size(MPI_COMM_WORLD, &size);
            int next = (rank + 1) % size;
            int prev = (rank + size - 1) % size;
            if (rank == 0) {
                token = 1;
                MPI_Send(&token, 1, MPI_INT, next, 9, MPI_COMM_WORLD);
                MPI_Recv(&token, 1, MPI_INT, prev, 9, MPI_COMM_WORLD, &st);
                printf("token=%d\n", token);
            } else {
                MPI_Recv(&token, 1, MPI_INT, prev, 9, MPI_COMM_WORLD, &st);
                token = token + 1;
                MPI_Send(&token, 1, MPI_INT, next, 9, MPI_COMM_WORLD);
            }
            MPI_Finalize();
            return 0;
        }"#;
        let out = run_source(src, 4).unwrap();
        assert_eq!(out.rank_outputs[0], "token=4\n");
    }

    #[test]
    fn deadlock_program_fails_cleanly() {
        let src = r#"#include <mpi.h>
        int main(int argc, char **argv) {
            int rank;
            int buf = 0;
            MPI_Status st;
            MPI_Init(&argc, &argv);
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
            MPI_Recv(&buf, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, &st);
            MPI_Finalize();
            return 0;
        }"#;
        let prog = mpirical_cparse::parse_strict(src).unwrap();
        let err = run_program(&prog, &RunConfig::new(2)).unwrap_err();
        assert!(
            matches!(err, InterpError::Mpi(SimError::Deadlock { .. })),
            "{err}"
        );
    }

    #[test]
    fn wtime_and_barrier() {
        let src = r#"#include <mpi.h>
        int main(int argc, char **argv) {
            int rank;
            MPI_Init(&argc, &argv);
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
            double t0 = MPI_Wtime();
            MPI_Barrier(MPI_COMM_WORLD);
            double t1 = MPI_Wtime();
            if (t1 >= t0) { printf("ok\n"); }
            MPI_Finalize();
            return 0;
        }"#;
        let out = run_source(src, 3).unwrap();
        for r in &out.rank_outputs {
            assert_eq!(r, "ok\n");
        }
    }

    #[test]
    fn isend_wait_roundtrip() {
        let src = r#"#include <mpi.h>
        int main(int argc, char **argv) {
            int rank;
            MPI_Status st;
            MPI_Request req;
            MPI_Init(&argc, &argv);
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
            if (rank == 0) {
                double v = 9.25;
                MPI_Isend(&v, 1, MPI_DOUBLE, 1, 3, MPI_COMM_WORLD, &req);
                MPI_Wait(&req, &st);
            } else {
                double got = 0.0;
                MPI_Recv(&got, 1, MPI_DOUBLE, 0, 3, MPI_COMM_WORLD, &st);
                printf("%.2f\n", got);
            }
            MPI_Finalize();
            return 0;
        }"#;
        let out = run_source(src, 2).unwrap();
        assert_eq!(out.rank_outputs[1], "9.25\n");
    }

    #[test]
    fn sendrecv_exchange() {
        let src = r#"#include <mpi.h>
        int main(int argc, char **argv) {
            int rank, size;
            MPI_Status st;
            MPI_Init(&argc, &argv);
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
            MPI_Comm_size(MPI_COMM_WORLD, &size);
            int mine = rank * 100;
            int theirs = -1;
            int partner = (rank + 1) % size;
            MPI_Sendrecv(&mine, 1, MPI_INT, partner, 7, &theirs, 1, MPI_INT, MPI_ANY_SOURCE, 7, MPI_COMM_WORLD, &st);
            printf("rank %d got %d\n", rank, theirs);
            MPI_Finalize();
            return 0;
        }"#;
        let out = run_source(src, 2).unwrap();
        assert_eq!(out.rank_outputs[0], "rank 0 got 100\n");
        assert_eq!(out.rank_outputs[1], "rank 1 got 0\n");
    }

    #[test]
    fn generated_corpus_programs_run() {
        // Every interpretable corpus schema must execute on 1, 2 and 4 ranks
        // without faults — this is the §VI-C validity substitute applied to
        // the training distribution itself.
        use mpirical_corpus_test_support::sample_programs;
        for (name, src) in sample_programs() {
            for nranks in [1usize, 2, 4] {
                let prog = mpirical_cparse::parse_strict(&src)
                    .unwrap_or_else(|e| panic!("{name}: parse failed {e}"));
                run_program(&prog, &RunConfig::new(nranks))
                    .unwrap_or_else(|e| panic!("{name} on {nranks} ranks failed: {e}\n{src}"));
            }
        }
    }

    /// Hand-rolled representative programs covering the schema families (we
    /// avoid a dev-dependency cycle on mpirical-corpus by inlining these).
    mod mpirical_corpus_test_support {
        pub fn sample_programs() -> Vec<(&'static str, String)> {
            let dot = r#"#include <mpi.h>
            int main(int argc, char **argv) {
                int rank, size, i;
                int n = 64;
                double a[64], b[64];
                double local = 0.0, dot = 0.0;
                MPI_Init(&argc, &argv);
                MPI_Comm_rank(MPI_COMM_WORLD, &rank);
                MPI_Comm_size(MPI_COMM_WORLD, &size);
                for (i = 0; i < n; i++) { a[i] = i * 0.5; b[i] = n - i; }
                for (i = rank; i < n; i += size) { local += a[i] * b[i]; }
                MPI_Reduce(&local, &dot, 1, MPI_DOUBLE, MPI_SUM, 0, MPI_COMM_WORLD);
                if (rank == 0) { printf("dot = %f\n", dot); }
                MPI_Finalize();
                return 0;
            }"#;
            let minmax = r#"#include <mpi.h>
            int main(int argc, char **argv) {
                int rank, size, i;
                int n = 32;
                double data[32];
                double lmin, lmax, gmin, gmax;
                MPI_Init(&argc, &argv);
                MPI_Comm_rank(MPI_COMM_WORLD, &rank);
                MPI_Comm_size(MPI_COMM_WORLD, &size);
                for (i = 0; i < n; i++) { data[i] = (i * 37) % 101; }
                lmin = data[0];
                lmax = data[0];
                for (i = 1; i < n; i++) {
                    if (data[i] < lmin) { lmin = data[i]; }
                    if (data[i] > lmax) { lmax = data[i]; }
                }
                MPI_Reduce(&lmin, &gmin, 1, MPI_DOUBLE, MPI_MIN, 0, MPI_COMM_WORLD);
                MPI_Reduce(&lmax, &gmax, 1, MPI_DOUBLE, MPI_MAX, 0, MPI_COMM_WORLD);
                if (rank == 0) { printf("min %f max %f\n", gmin, gmax); }
                MPI_Finalize();
                return 0;
            }"#;
            let prefix = r#"#include <mpi.h>
            int main(int argc, char **argv) {
                int rank, size;
                long running = 0, mine = 0;
                MPI_Status st;
                MPI_Init(&argc, &argv);
                MPI_Comm_rank(MPI_COMM_WORLD, &rank);
                MPI_Comm_size(MPI_COMM_WORLD, &size);
                mine = (rank + 1) * 10;
                if (rank > 0) {
                    MPI_Recv(&running, 1, MPI_LONG, rank - 1, 7, MPI_COMM_WORLD, &st);
                }
                running = running + mine;
                if (rank < size - 1) {
                    MPI_Send(&running, 1, MPI_LONG, rank + 1, 7, MPI_COMM_WORLD);
                }
                printf("rank %d prefix %ld\n", rank, running);
                MPI_Finalize();
                return 0;
            }"#;
            vec![
                ("dot_product", dot.to_string()),
                ("min_max", minmax.to_string()),
                ("prefix_sum", prefix.to_string()),
            ]
        }
    }
}

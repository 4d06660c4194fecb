//! Closed-loop suggestion verification: execute every candidate under the
//! simulated MPI runtime and classify what actually happens.
//!
//! The paper scores suggestions by *textual* agreement (function name,
//! ±1-line window). This module adds the missing semantic check, in the
//! spirit of compile-and-run validation: each beam hypothesis is a complete
//! predicted program; its MPI calls are spliced into the user's serial
//! source via [`splice_stmt`], the patched program is printed, strictly
//! reparsed, and executed under [`mpirical_interp`] on a multi-rank
//! [`mpirical_sim`] world — which reports a deadlock the instant every
//! live rank is blocked, while [`Limits`] bound runaway loops and
//! allocations — and the observed behaviour becomes a typed [`Verdict`].
//! No clock is involved: every world runs on one thread, resuming its
//! lowest-numbered runnable rank, so a verdict is a function of the patched
//! program, the rank counts and the limits — an `MPI_ANY_SOURCE` receive
//! included, which always matches what that schedule sent first
//! (`MPI_Wtime`-dependent programs excepted).
//!
//! The verdict feeds back into ranking (see
//! [`MpiRical::suggest_report`](crate::MpiRical::suggest_report)):
//! hypotheses are stably re-ordered by verdict class — `Verified` first,
//! unverified (past the [`VerifyOptions::max_hypotheses`] budget) next,
//! observed failures last — so a deadlocking suggestion loses to a clean
//! one even when the model scored it higher, while two `Verified`
//! candidates keep their pure model-score order.
//!
//! [`Limits`]: mpirical_interp::Limits
//! [`splice_stmt`]: mpirical_cparse::splice_stmt

use mpirical_cparse::{
    is_mpi_name, parse_strict, parse_tolerant, print_program, splice_stmt, Block, Expr, Item,
    Program, Stmt,
};
use mpirical_interp::{compile, run_compiled, InterpError, Limits, RunConfig};
use mpirical_sim::SimError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What the simulator observed when a candidate suggestion was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// Every configured rank count ran to completion and the root rank's
    /// output matched the serial (1-rank) baseline of the same patched
    /// program within numeric tolerance.
    Verified,
    /// Every rank still running was blocked inside an MPI operation that
    /// nothing already sent could complete ([`SimError::Deadlock`]).
    Deadlock,
    /// A rank crashed: runtime error, out-of-bounds root, memory-budget
    /// blowout, recursion past the call-depth bound, an MPI count no
    /// buffer can hold, or an abort.
    RankCrash,
    /// Sender and receiver disagreed on the datatype (or the receive
    /// buffer was too small for the incoming message).
    TypeMismatch,
    /// The program ran cleanly on every rank count but the root rank's
    /// output diverged from the serial baseline beyond tolerance.
    DivergedFromSerial,
    /// The step budget was exhausted (runaway loop). A count of
    /// interpreter steps, not of seconds.
    Timeout,
    /// The patched program did not survive print → strict reparse, or hit
    /// an unsupported construct at runtime — nothing could be executed.
    NotExecutable,
}

impl Verdict {
    /// True for the one passing verdict.
    pub fn is_verified(self) -> bool {
        matches!(self, Verdict::Verified)
    }

    /// Re-ranking class for a hypothesis: `Verified` sorts first (0),
    /// unverified — never executed, e.g. past the verification budget —
    /// in the middle (1), observed failures last (2). The sort using this
    /// key is stable, so within a class pure model-score order survives.
    pub fn rank_class(v: Option<Verdict>) -> u8 {
        match v {
            Some(Verdict::Verified) => 0,
            None => 1,
            Some(_) => 2,
        }
    }
}

/// Stable re-rank of scored candidates by verdict class: `Verified` first,
/// unverified next, observed failures last. The sort is stable, so within a
/// class the input (model-score) order is preserved — two `Verified`
/// candidates are never reordered relative to pure model score.
pub fn rerank<T>(mut ranked: Vec<(T, Option<Verdict>)>) -> Vec<(T, Option<Verdict>)> {
    ranked.sort_by_key(|&(_, v)| Verdict::rank_class(v));
    ranked
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Verified => "verified",
            Verdict::Deadlock => "deadlock",
            Verdict::RankCrash => "rank-crash",
            Verdict::TypeMismatch => "type-mismatch",
            Verdict::DivergedFromSerial => "diverged-from-serial",
            Verdict::Timeout => "timeout",
            Verdict::NotExecutable => "not-executable",
        })
    }
}

/// Knobs for the closed verification loop.
///
/// Every field falls back to its documented default on deserialize, so a
/// config file can enable verification with just `"verify": {}`.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyOptions {
    /// Multi-rank world sizes to execute (each is one simulator run); a
    /// serial 1-rank baseline run is always added for the divergence check.
    pub rank_counts: Vec<usize>,
    /// No longer read by the simulator, which declares deadlock at
    /// quiescence; kept (and still accepted in config files) until the perf
    /// ledger under `benchmark/`, which reads it, is re-based.
    pub timeout_ms: u64,
    /// Per-rank interpreter step budget (bounds runaway loops).
    pub step_limit: u64,
    /// Per-rank heap budget in cells (bounds runaway allocation).
    pub cell_limit: usize,
    /// How many beam hypotheses to execute, best-scored first; the rest
    /// stay unverified (`verdict == None`) and rank between `Verified`
    /// and failed candidates.
    pub max_hypotheses: usize,
    /// Relative tolerance for numeric output tokens in the serial-vs-
    /// multi-rank comparison (floating-point reduction order and
    /// per-rank sampling legitimately perturb numeric output).
    pub rel_tol: f64,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            rank_counts: vec![2, 4],
            timeout_ms: 2_000,
            step_limit: 2_000_000,
            cell_limit: 1_000_000,
            max_hypotheses: 4,
            rel_tol: 0.15,
        }
    }
}

impl Serialize for VerifyOptions {
    fn ser(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("rank_counts".to_string(), self.rank_counts.ser()),
            ("timeout_ms".to_string(), self.timeout_ms.ser()),
            ("step_limit".to_string(), self.step_limit.ser()),
            ("cell_limit".to_string(), self.cell_limit.ser()),
            ("max_hypotheses".to_string(), self.max_hypotheses.ser()),
            ("rel_tol".to_string(), self.rel_tol.ser()),
        ])
    }
}

impl Deserialize for VerifyOptions {
    fn de(v: &serde::Value) -> Result<Self, serde::DeError> {
        fn field<T: Deserialize>(
            entries: &[(String, serde::Value)],
            name: &str,
            default: T,
        ) -> Result<T, serde::DeError> {
            match entries.iter().find(|(k, _)| k == name) {
                Some((_, val)) => T::de(val).map_err(|e| serde::DeError {
                    msg: format!("field `{name}`: {}", e.msg),
                }),
                None => Ok(default),
            }
        }
        let serde::Value::Map(entries) = v else {
            return Err(serde::DeError {
                msg: "expected map for VerifyOptions".to_string(),
            });
        };
        let d = VerifyOptions::default();
        Ok(VerifyOptions {
            rank_counts: field(entries, "rank_counts", d.rank_counts)?,
            timeout_ms: field(entries, "timeout_ms", d.timeout_ms)?,
            step_limit: field(entries, "step_limit", d.step_limit)?,
            cell_limit: field(entries, "cell_limit", d.cell_limit)?,
            max_hypotheses: field(entries, "max_hypotheses", d.max_hypotheses)?,
            rel_tol: field(entries, "rel_tol", d.rel_tol)?,
        })
    }
}

impl VerifyOptions {
    fn run_config(&self, nranks: usize) -> RunConfig {
        RunConfig {
            limits: Limits {
                step_limit: self.step_limit,
                cell_limit: self.cell_limit,
            },
            ..RunConfig::new(nranks)
        }
    }
}

/// Aggregate verification telemetry for one suggestion request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifyStats {
    /// Hypotheses actually executed.
    pub hypotheses: usize,
    /// Hypotheses left unverified (past the `max_hypotheses` budget).
    pub unverified: usize,
    /// Simulator runs performed (each rank count and the serial baseline
    /// count separately).
    pub sim_runs: usize,
    pub verified: usize,
    pub deadlock: usize,
    pub rank_crash: usize,
    pub type_mismatch: usize,
    pub diverged: usize,
    pub timeout: usize,
    pub not_executable: usize,
}

impl VerifyStats {
    /// Record one executed hypothesis' verdict and its simulator-run cost.
    pub fn record(&mut self, v: Verdict, sim_runs: usize) {
        self.hypotheses += 1;
        self.sim_runs += sim_runs;
        match v {
            Verdict::Verified => self.verified += 1,
            Verdict::Deadlock => self.deadlock += 1,
            Verdict::RankCrash => self.rank_crash += 1,
            Verdict::TypeMismatch => self.type_mismatch += 1,
            Verdict::DivergedFromSerial => self.diverged += 1,
            Verdict::Timeout => self.timeout += 1,
            Verdict::NotExecutable => self.not_executable += 1,
        }
    }

    /// Field-wise sum (batch paths aggregate per-source stats).
    pub fn merge(&mut self, other: &VerifyStats) {
        self.hypotheses += other.hypotheses;
        self.unverified += other.unverified;
        self.sim_runs += other.sim_runs;
        self.verified += other.verified;
        self.deadlock += other.deadlock;
        self.rank_crash += other.rank_crash;
        self.type_mismatch += other.type_mismatch;
        self.diverged += other.diverged;
        self.timeout += other.timeout;
        self.not_executable += other.not_executable;
    }
}

/// Map an execution error to its verdict class.
pub fn classify_error(e: &InterpError) -> Verdict {
    match e {
        InterpError::Mpi(SimError::Deadlock { .. }) => Verdict::Deadlock,
        InterpError::Mpi(SimError::TypeMismatch { .. } | SimError::Truncation { .. }) => {
            Verdict::TypeMismatch
        }
        InterpError::Mpi(_) => Verdict::RankCrash,
        InterpError::StepLimit { .. } => Verdict::Timeout,
        InterpError::Unsupported { .. } => Verdict::NotExecutable,
        InterpError::MemoryLimit { .. }
        | InterpError::CallDepth { .. }
        | InterpError::MessageCount { .. }
        | InterpError::Undefined { .. }
        | InterpError::TypeError { .. }
        | InterpError::OutOfBounds { .. }
        | InterpError::DivideByZero { .. } => Verdict::RankCrash,
    }
}

fn collect_stmt(s: &Stmt, out: &mut Vec<(Stmt, u32)>) {
    match s {
        Stmt::Expr {
            expr: Some(Expr::Call { callee, args, .. }),
            line,
        } if is_mpi_name(callee) => {
            // Re-home the call at line 0 so the splice's position scan
            // never matches the inserted statement itself.
            out.push((
                Stmt::Expr {
                    expr: Some(Expr::Call {
                        callee: callee.clone(),
                        args: args.clone(),
                        line: 0,
                    }),
                    line: 0,
                },
                *line,
            ));
        }
        Stmt::Block(b) => collect_block(b, out),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_stmt(then_branch, out);
            if let Some(e) = else_branch {
                collect_stmt(e, out);
            }
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
            collect_stmt(body, out)
        }
        _ => {}
    }
}

fn collect_block(b: &Block, out: &mut Vec<(Stmt, u32)>) {
    for s in &b.stmts {
        collect_stmt(s, out);
    }
}

/// Statement-level MPI calls of a predicted program, with their predicted
/// source lines, in ascending line order. Calls in expression position
/// (`t = MPI_Wtime()`) are not statements and are left alone.
pub fn mpi_call_stmts(prog: &Program) -> Vec<(Stmt, u32)> {
    let mut out = Vec::new();
    for item in &prog.items {
        if let Item::Function(f) = item {
            collect_block(&f.body, &mut out);
        }
    }
    out.sort_by_key(|&(_, line)| line);
    out
}

/// Splice the MPI calls of `predicted_source` (a full predicted program,
/// parsed tolerantly — predictions need not be well formed) into `base`
/// (the user's serial program in canonical standardized line space).
///
/// Predicted lines count the inserted MPI lines themselves, so the k-th
/// call's target is shifted back by the k insertions before it — exactly
/// inverting canonical renumbering for a faithful prediction.
pub fn splice_prediction(base: &Program, predicted_source: &str) -> Program {
    let predicted = parse_tolerant(predicted_source).program;
    let mut patched = base.clone();
    for (k, (stmt, line)) in mpi_call_stmts(&predicted).into_iter().enumerate() {
        let target = line.saturating_sub(k as u32).max(1);
        patched = splice_stmt(&patched, stmt, target);
    }
    patched
}

/// Execute a patched program and classify the outcome. Returns the verdict
/// and the number of simulator runs spent.
///
/// The program is printed and strictly reparsed first — the verifier only
/// trusts the exact text an IDE would insert ([`Verdict::NotExecutable`]
/// if that fails) — and compiled once; every world below runs that one
/// compiled program, each on the calling thread. Each configured
/// multi-rank world runs next (first failure wins), then the serial 1-rank
/// baseline, and finally the root rank's multi-rank output is compared
/// against the serial baseline with numeric tolerance.
pub fn verify_program(patched: &Program, opts: &VerifyOptions) -> (Verdict, usize) {
    let text = print_program(patched);
    let Ok(prog) = parse_strict(&text) else {
        return (Verdict::NotExecutable, 0);
    };
    let code = compile(&prog);
    let mut runs = 0usize;
    let mut multi = Vec::new();
    for &n in &opts.rank_counts {
        if n <= 1 {
            continue;
        }
        runs += 1;
        match run_compiled(&code, &opts.run_config(n)) {
            Ok(out) => multi.push(out),
            Err(e) => return (classify_error(&e), runs),
        }
    }
    runs += 1;
    let serial = match run_compiled(&code, &opts.run_config(1)) {
        Ok(out) => out,
        Err(e) => return (classify_error(&e), runs),
    };
    for out in &multi {
        if !outputs_match(&serial.rank_outputs[0], &out.rank_outputs[0], opts.rel_tol) {
            return (Verdict::DivergedFromSerial, runs);
        }
    }
    (Verdict::Verified, runs)
}

/// Splice a predicted program into a serial base and execute the result:
/// [`splice_prediction`] then [`verify_program`].
pub fn verify_prediction(
    base: &Program,
    predicted_source: &str,
    opts: &VerifyOptions,
) -> (Verdict, usize) {
    let patched = splice_prediction(base, predicted_source);
    verify_program(&patched, opts)
}

/// Whitespace-tokenized output comparison: numeric tokens match within
/// relative tolerance, everything else must be exactly equal.
fn outputs_match(serial: &str, multi: &str, rel_tol: f64) -> bool {
    let a: Vec<&str> = serial.split_whitespace().collect();
    let b: Vec<&str> = multi.split_whitespace().collect();
    a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| token_match(x, y, rel_tol))
}

fn token_match(x: &str, y: &str, rel_tol: f64) -> bool {
    if x == y {
        return true;
    }
    match (x.parse::<f64>(), y.parse::<f64>()) {
        (Ok(u), Ok(v)) => {
            let scale = u.abs().max(v.abs()).max(1.0);
            (u - v).abs() <= rel_tol * scale
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> VerifyOptions {
        VerifyOptions {
            rank_counts: vec![2],
            step_limit: 200_000,
            ..VerifyOptions::default()
        }
    }

    #[test]
    fn rank_class_orders_verified_unverified_failed() {
        assert_eq!(Verdict::rank_class(Some(Verdict::Verified)), 0);
        assert_eq!(Verdict::rank_class(None), 1);
        for v in [
            Verdict::Deadlock,
            Verdict::RankCrash,
            Verdict::TypeMismatch,
            Verdict::DivergedFromSerial,
            Verdict::Timeout,
            Verdict::NotExecutable,
        ] {
            assert_eq!(Verdict::rank_class(Some(v)), 2, "{v}");
        }
    }

    #[test]
    fn output_comparison_tolerates_numeric_noise() {
        assert!(outputs_match("pi = 3.1416\n", "pi = 3.1405\n", 0.15));
        assert!(!outputs_match("pi = 3.1416\n", "pi = 6.28\n", 0.15));
        assert!(!outputs_match("sum 10\n", "sum 10 extra\n", 0.15));
        assert!(!outputs_match("done\n", "gone\n", 0.15));
    }

    #[test]
    fn extracts_guarded_and_top_level_calls_in_line_order() {
        let src = "int main(int argc, char **argv) {\n\
                   int rank;\n\
                   MPI_Init(&argc, &argv);\n\
                   MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
                   if (rank == 0) {\n\
                   MPI_Barrier(MPI_COMM_WORLD);\n\
                   }\n\
                   MPI_Finalize();\n\
                   return 0;\n\
                   }";
        let prog = parse_strict(src).unwrap();
        let calls = mpi_call_stmts(&prog);
        let names: Vec<String> = calls
            .iter()
            .map(|(s, _)| match s {
                Stmt::Expr {
                    expr: Some(Expr::Call { callee, .. }),
                    ..
                } => callee.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            names,
            ["MPI_Init", "MPI_Comm_rank", "MPI_Barrier", "MPI_Finalize"]
        );
        let lines: Vec<u32> = calls.iter().map(|&(_, l)| l).collect();
        assert_eq!(lines, [3, 4, 6, 8]);
    }

    #[test]
    fn clean_splice_verifies() {
        // Serial base in canonical line space.
        let base_src = "int main(int argc, char **argv) {\n\
                        int rank, size;\n\
                        printf(\"%d\\n\", 42);\n\
                        return 0;\n\
                        }";
        let (_, base) = mpirical_cparse::standardize(&parse_strict(base_src).unwrap());
        let predicted = "int main(int argc, char **argv) {\n\
                         int rank, size;\n\
                         MPI_Init(&argc, &argv);\n\
                         MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
                         MPI_Comm_size(MPI_COMM_WORLD, &size);\n\
                         printf(\"%d\\n\", 42);\n\
                         MPI_Finalize();\n\
                         return 0;\n\
                         }";
        let (verdict, runs) = verify_prediction(&base, predicted, &fast());
        assert_eq!(verdict, Verdict::Verified);
        assert_eq!(runs, 2, "one multi-rank world plus the serial baseline");
    }

    #[test]
    fn unparseable_patch_is_not_executable() {
        let broken = parse_tolerant("int main() { int x = ; return 0; }").program;
        let (verdict, runs) = verify_program(&broken, &fast());
        assert_eq!(verdict, Verdict::NotExecutable);
        assert_eq!(runs, 0, "nothing should execute");
    }

    #[test]
    fn stats_record_counts_by_class() {
        let mut stats = VerifyStats::default();
        stats.record(Verdict::Verified, 3);
        stats.record(Verdict::Deadlock, 1);
        stats.record(Verdict::Deadlock, 1);
        stats.unverified = 2;
        assert_eq!(stats.hypotheses, 3);
        assert_eq!(stats.sim_runs, 5);
        assert_eq!(stats.verified, 1);
        assert_eq!(stats.deadlock, 2);
        let mut total = VerifyStats::default();
        total.merge(&stats);
        total.merge(&stats);
        assert_eq!(total.deadlock, 4);
        assert_eq!(total.unverified, 4);
    }

    #[test]
    fn options_deserialize_from_empty_object() {
        let opts: VerifyOptions = serde_json::from_str("{}").unwrap();
        assert_eq!(opts, VerifyOptions::default());
    }

    #[test]
    fn config_files_carrying_the_inert_timeout_still_deserialize() {
        let opts: VerifyOptions =
            serde_json::from_str(r#"{"timeout_ms": 123, "max_hypotheses": 2}"#).unwrap();
        assert_eq!(opts.timeout_ms, 123);
        assert_eq!(opts.max_hypotheses, 2);
        let back: VerifyOptions =
            serde_json::from_str(&serde_json::to_string(&opts).unwrap()).unwrap();
        assert_eq!(back, opts);
    }
}

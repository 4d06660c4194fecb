//! Closed-loop suggestion verification: the confusion matrix of the
//! execute-and-classify oracle (`mpirical::verify`), pinned end to end.
//!
//! Three layers of proof:
//!
//! 1. **Fault corpus** — hand-curated programs with known MPI bugs
//!    (recv/recv deadlock cycles, datatype mismatches, wrong-root
//!    collectives, a missing reduction, a runaway loop) must each land in
//!    their exact verdict class, and every correct reference splice for
//!    the benchmark11 set must come back `Verified`.
//! 2. **Re-ranking** — demotion is total across classes but never
//!    reorders two `Verified` candidates relative to pure model score
//!    (stability, property-tested).
//! 3. **Read-only** — enabling verification changes nothing about what
//!    the model produces: suggestion ids are bitwise-identical with
//!    verification on vs off (property-tested through a trained
//!    artifact).

use mpirical::cparse::{parse_strict, parse_tolerant, standardize, MAX_NESTING};
use mpirical::interp::{
    compile, run_compiled, run_program, InterpError, RunConfig, MAX_CALL_DEPTH,
};
use mpirical::sim::{BlockedOp, SimError};
use mpirical::verify::{rerank, verify_prediction, verify_program};
use mpirical::{
    benchmark_programs, MpiRical, MpiRicalConfig, SubmitOptions, SuggestPoll, SuggestService,
    Verdict, VerifyOptions,
};
use mpirical_corpus::{generate_dataset, remove_mpi_calls, CorpusConfig};
use mpirical_model::ModelConfig;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

// ---------------------------------------------------------------------------
// 1. Fault corpus: every seeded fault caught, every correct splice verified.
// ---------------------------------------------------------------------------

/// Options for the hand-written fault programs: one 2-rank world and a
/// step budget just large enough that only the runaway loop exhausts it.
fn fault_opts() -> VerifyOptions {
    VerifyOptions {
        rank_counts: vec![2],
        step_limit: 20_000,
        ..VerifyOptions::default()
    }
}

/// Both ranks block in MPI_Recv waiting on the other: the classic cycle.
const RECV_RECV_CYCLE: &str = "int main(int argc, char **argv) {\n\
     int rank;\n\
     int x = 0;\n\
     MPI_Init(&argc, &argv);\n\
     MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
     if (rank == 0) {\n\
     MPI_Recv(&x, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);\n\
     }\n\
     if (rank == 1) {\n\
     MPI_Recv(&x, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);\n\
     }\n\
     MPI_Finalize();\n\
     return 0;\n\
     }";

/// Sender posts MPI_INT, receiver asks for MPI_DOUBLE.
const DATATYPE_DISAGREEMENT: &str = "int main(int argc, char **argv) {\n\
     int rank;\n\
     int ival = 7;\n\
     double dval = 0.0;\n\
     MPI_Init(&argc, &argv);\n\
     MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
     if (rank == 0) {\n\
     MPI_Send(&ival, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);\n\
     }\n\
     if (rank == 1) {\n\
     MPI_Recv(&dval, 1, MPI_DOUBLE, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);\n\
     }\n\
     MPI_Finalize();\n\
     return 0;\n\
     }";

/// Bcast root 9 does not exist in a 2-rank world.
const WRONG_ROOT_COLLECTIVE: &str = "int main(int argc, char **argv) {\n\
     int rank;\n\
     double v = 1.0;\n\
     MPI_Init(&argc, &argv);\n\
     MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
     MPI_Bcast(&v, 1, MPI_DOUBLE, 9, MPI_COMM_WORLD);\n\
     MPI_Finalize();\n\
     return 0;\n\
     }";

/// Each rank sums its stride of the domain but nobody reduces: root prints
/// its partial. Serially that partial IS the full sum, so the 2-rank output
/// is off by ~2x — exactly what the serial-baseline comparison exists to
/// catch.
const MISSING_REDUCTION: &str = "int main(int argc, char **argv) {\n\
     int rank, size, i;\n\
     double local = 0.0;\n\
     MPI_Init(&argc, &argv);\n\
     MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
     MPI_Comm_size(MPI_COMM_WORLD, &size);\n\
     for (i = rank; i < 64; i += size) {\n\
     local += i + 1.0;\n\
     }\n\
     if (rank == 0) {\n\
     printf(\"sum = %.2f\\n\", local);\n\
     }\n\
     MPI_Finalize();\n\
     return 0;\n\
     }";

const RUNAWAY_LOOP: &str = "int main(int argc, char **argv) {\n\
     int rank;\n\
     int x = 0;\n\
     MPI_Init(&argc, &argv);\n\
     MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
     while (1) {\n\
     x = x + 1;\n\
     }\n\
     MPI_Finalize();\n\
     return 0;\n\
     }";

/// Does not survive print → strict reparse: nothing may execute.
const BROKEN_PATCH: &str = "int main() { int x = ; return 0; }";

/// The confusion matrix: every fault program (the shape a patched suggestion
/// has after splicing) with its exact verdict class and simulator-run count
/// (the first failing world ends the verification; only the divergence check
/// needs the serial baseline too).
const FAULT_CORPUS: [(&str, &str, (Verdict, usize)); 6] = [
    ("recv-recv-cycle", RECV_RECV_CYCLE, (Verdict::Deadlock, 1)),
    (
        "datatype-disagreement",
        DATATYPE_DISAGREEMENT,
        (Verdict::TypeMismatch, 1),
    ),
    (
        "wrong-root-collective",
        WRONG_ROOT_COLLECTIVE,
        (Verdict::RankCrash, 1),
    ),
    (
        "missing-reduction",
        MISSING_REDUCTION,
        (Verdict::DivergedFromSerial, 2),
    ),
    ("runaway-loop", RUNAWAY_LOOP, (Verdict::Timeout, 1)),
    ("broken-patch", BROKEN_PATCH, (Verdict::NotExecutable, 0)),
];

/// `(verdict, sim_runs)` of every fault program, corpus order.
fn classify_corpus(opts: &VerifyOptions) -> Vec<(Verdict, usize)> {
    FAULT_CORPUS
        .iter()
        .map(|(_, src, _)| verify_program(&parse_tolerant(src).program, opts))
        .collect()
}

/// Run `f` while one busy-looping thread per core competes with the rank
/// threads for the CPU — the contention under which a wall-clock deadlock
/// rule used to flip verdicts.
fn under_contention<T>(f: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

#[test]
fn fault_corpus_lands_in_its_exact_confusion_matrix_cells() {
    let got = classify_corpus(&fault_opts());
    for ((name, _, want), got) in FAULT_CORPUS.iter().zip(&got) {
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn confusion_matrix_is_identical_across_200_contended_repeats() {
    let want: Vec<_> = FAULT_CORPUS.iter().map(|&(_, _, cell)| cell).collect();
    under_contention(|| {
        for repeat in 0..200 {
            assert_eq!(classify_corpus(&fault_opts()), want, "repeat {repeat}");
        }
    });
}

/// Rank 0 posts two `MPI_ANY_SOURCE` receives, then a receive from rank 1;
/// ranks 1–3 send once each. On 4 ranks the outcome hangs on what the
/// wildcards match: if rank 1's message is among it, the last receive waits
/// for a second one that never comes. 2 ranks post no wildcard receive, and
/// 1 rank receives nothing.
const ANY_SOURCE_RACE: &str = "int main(int argc, char **argv) {\n\
     int rank, size, i, v = 0;\n\
     MPI_Init(&argc, &argv);\n\
     MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
     MPI_Comm_size(MPI_COMM_WORLD, &size);\n\
     if (rank == 0) {\n\
     for (i = 0; i < size - 2; i++) {\n\
     MPI_Recv(&v, 1, MPI_INT, MPI_ANY_SOURCE, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);\n\
     }\n\
     if (size > 1) {\n\
     MPI_Recv(&v, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);\n\
     }\n\
     printf(\"done\\n\");\n\
     } else {\n\
     MPI_Send(&rank, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);\n\
     }\n\
     MPI_Finalize();\n\
     return 0;\n\
     }";

#[test]
fn any_source_race_has_one_verdict_and_one_snapshot() {
    // A world runs on one thread, lowest runnable rank first: rank 0's
    // wildcards always match ranks 1 and 2, so its receive from rank 1
    // always waits alone once rank 3 has left.
    let prog = parse_strict(ANY_SOURCE_RACE).expect("well-formed");
    for run in 0..100 {
        let got = verify_program(&prog, &VerifyOptions::default());
        assert_eq!(got, (Verdict::Deadlock, 2), "run {run}");
    }
    let snapshot = SimError::Deadlock {
        rank: 0,
        detail: "every live rank is blocked (1 of 4 still in the world)".to_string(),
        blocked: vec![BlockedOp {
            rank: 0,
            op: "recv(source=Rank(1), tag=Value(0))".to_string(),
        }],
    };
    let code = compile(&prog);
    for run in 0..100 {
        let got = run_compiled(&code, &RunConfig::new(4));
        assert_eq!(got, Err(InterpError::Mpi(snapshot.clone())), "run {run}");
    }
}

#[test]
fn timeout_fields_are_inert() {
    // `VerifyOptions::timeout_ms` and `RunConfig::timeout` survive only for
    // source compatibility with the perf ledger: no verdict, run count or
    // blocked-rank snapshot may depend on them.
    let timeout_of = |timeout_ms| VerifyOptions {
        timeout_ms,
        ..fault_opts()
    };
    assert_eq!(
        classify_corpus(&timeout_of(1)),
        classify_corpus(&timeout_of(3_600_000))
    );
    for (name, src, _) in &FAULT_CORPUS[..5] {
        let prog = parse_strict(src).expect("fault corpus programs are well-formed C");
        let run = |timeout| {
            let mut cfg = RunConfig::new(2);
            cfg.limits.step_limit = fault_opts().step_limit;
            cfg.timeout = timeout;
            run_program(&prog, &cfg)
        };
        assert_eq!(
            run(Duration::from_millis(1)),
            run(Duration::from_secs(3_600)),
            "{name}"
        );
    }
    let cycle = parse_strict(RECV_RECV_CYCLE).unwrap();
    let Err(InterpError::Mpi(SimError::Deadlock { blocked, .. })) =
        run_program(&cycle, &RunConfig::new(2))
    else {
        panic!("the cycle deadlocks");
    };
    let ranks: Vec<usize> = blocked.iter().map(|b| b.rank).collect();
    assert_eq!(ranks, [0, 1], "both ranks of the cycle are in the snapshot");
}

#[test]
fn a_loop_local_buffer_is_not_a_memory_blowup() {
    // 2000 iterations of a 1024-cell local: a live footprint of 1024 cells
    // under a budget of a million. While locals were never released the
    // interpreter counted two million and the verdict was `RankCrash`.
    let src = "int main(int argc, char **argv) {\n\
         int rank, k;\n\
         long sum = 0;\n\
         MPI_Init(&argc, &argv);\n\
         MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
         for (k = 0; k < 2000; k++) {\n\
         int buf[1024];\n\
         buf[0] = k;\n\
         sum += buf[0];\n\
         }\n\
         if (rank == 0) {\n\
         printf(\"sum = %ld\\n\", sum);\n\
         }\n\
         MPI_Finalize();\n\
         return 0;\n\
         }";
    let prog = parse_strict(src).unwrap();
    let out = run_program(&prog, &RunConfig::new(1)).unwrap();
    assert_eq!(out.rank_outputs[0], "sum = 1999000\n");
    assert_eq!(
        verify_program(&prog, &VerifyOptions::default()),
        (Verdict::Verified, 3)
    );
}

/// A program whose `main` runs MPI set-up, then `body`, then tears down;
/// `defs` go before it.
fn hostile(defs: &str, body: &str) -> String {
    format!(
        "{defs}\nint main(int argc, char **argv) {{\n\
         int rank;\n\
         int buf[4];\n\
         MPI_Init(&argc, &argv);\n\
         MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
         {body}\n\
         MPI_Finalize();\n\
         return 0;\n\
         }}"
    )
}

/// A point-to-point exchange of `buf` from rank 0 to rank 1 with the given
/// element counts.
fn exchange(send_count: &str, recv_count: &str) -> String {
    hostile(
        "",
        &format!(
            "if (rank == 0) {{\n\
             MPI_Send(buf, {send_count}, MPI_INT, 1, 0, MPI_COMM_WORLD);\n\
             }}\n\
             if (rank == 1) {{\n\
             MPI_Recv(buf, {recv_count}, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);\n\
             }}"
        ),
    )
}

#[test]
fn hostile_buffers_get_a_typed_verdict_and_the_process_lives() {
    // Each of these once ended the process, not the rank: recursion
    // overflowed the rank thread's stack, and an MPI count sized a `Vec`
    // unchecked (`-1` panicked, 2e12 aborted on allocation). Each now stops
    // its rank with a typed error that verification reports as a crash.
    let direct = hostile("void down(int n) {\ndown(n + 1);\n}", "down(rank);");
    let mutual = hostile(
        "int ping(int n);\nint pong(int n) {\nreturn ping(n + 1) + 1;\n}\n\
         int ping(int n) {\nreturn pong(n + 1) + 1;\n}",
        "buf[0] = ping(rank);",
    );
    let large_locals = hostile(
        "double sink(int n) {\ndouble big[4096];\nbig[0] = n;\nreturn sink(n + 1) + big[0];\n}",
        "sink(rank);",
    );
    // 998 calls stay under the call bound, but each holds its self-call
    // 118 blocks deep: together they overflowed a release rank stack.
    let nested = hostile(
        &format!(
            "int nest(int n) {{\nif (n == 0) {{\nreturn 0;\n}}\n{}\nreturn nest(n - 1);\n{}\n}}",
            "{".repeat(118),
            "}".repeat(118)
        ),
        "buf[0] = nest(997);",
    );
    let budget = VerifyOptions::default().cell_limit;
    type Expected = fn(&InterpError) -> bool;
    let cases: [(&str, String, Expected); 8] = [
        (
            "direct recursion",
            direct,
            |e| matches!(e, InterpError::CallDepth { limit, .. } if *limit == MAX_CALL_DEPTH),
        ),
        ("mutual recursion", mutual, |e| {
            matches!(e, InterpError::CallDepth { .. })
        }),
        (
            "recursion 118 blocks deep",
            nested,
            |e| matches!(e, InterpError::CallDepth { limit, .. } if *limit < MAX_CALL_DEPTH),
        ),
        // 4096 cells a call exhaust the cell budget long before the depth
        // bound: whichever bound is met first, the rank stops typed.
        ("recursion with large locals", large_locals, |e| {
            matches!(e, InterpError::MemoryLimit { .. })
        }),
        ("send count -1", exchange("-1", "1"), |e| {
            matches!(e, InterpError::MessageCount { count: -1, .. })
        }),
        ("send count 2e12", exchange("2000000000000", "1"), |e| {
            matches!(
                e,
                InterpError::MessageCount {
                    count: 2_000_000_000_000,
                    ..
                }
            )
        }),
        ("recv count -1", exchange("1", "-1"), |e| {
            matches!(e, InterpError::MessageCount { count: -1, .. })
        }),
        ("recv count 2e12", exchange("1", "2000000000000"), |e| {
            matches!(
                e,
                InterpError::MessageCount {
                    count: 2_000_000_000_000,
                    ..
                }
            )
        }),
    ];
    for (name, src, is_expected) in &cases {
        let prog = parse_strict(src).unwrap_or_else(|e| panic!("{name}: {e}\n{src}"));
        let mut cfg = RunConfig::new(2);
        cfg.limits.cell_limit = budget;
        match run_program(&prog, &cfg) {
            Err(e) => assert!(is_expected(&e), "{name}: {e}"),
            Ok(out) => panic!("{name} ran to completion: {out:?}"),
        }
        // The same program as a suggestion spliced into its MPI-free base,
        // through the whole verification path.
        let (text, canon) = standardize(&prog);
        let (_, base) = standardize(&remove_mpi_calls(&canon).stripped);
        assert_eq!(
            verify_prediction(&base, &text, &VerifyOptions::default()),
            (Verdict::RankCrash, 1),
            "{name}"
        );
    }
    // Nesting past the parser's bound once overflowed the stack of the
    // thread parsing it. The over-deep region is now an error node: strict
    // parsing refuses the buffer and its verdict is typed. A flat operator
    // chain nests too: 20 000 terms fold into a left spine 20 000 deep.
    let chain = ("operators", format!("buf[0] = 1{};", " + 1".repeat(20_000)));
    for (name, body) in nesting_shapes(2_000).into_iter().chain([chain]) {
        let src = hostile("", &body);
        assert!(parse_strict(&src).is_err(), "{name}");
        let tolerant = parse_tolerant(&src);
        assert!(!tolerant.health().is_clean(), "{name}");
        assert_eq!(
            verify_program(&tolerant.program, &VerifyOptions::default()),
            (Verdict::NotExecutable, 0),
            "{name}"
        );
    }
}

/// Recursion as deep as the frame budget admits runs to completion on the
/// thread that runs the world, in a debug and a release build: for a
/// self-call under 110 blocks, at the end of a 120-operator expression and
/// inside 12 nested MPI calls, a runaway recursion stops at
/// `k < MAX_CALL_DEPTH` calls, and the same function recursing exactly `k`
/// calls deep returns.
#[test]
fn nesting_times_recursion_at_the_frame_budget_fits_a_rank_stack() {
    let shapes = [
        (
            "blocks",
            format!(
                "int f(int n) {{\nif (n == 0) {{\nreturn 0;\n}}\n{}\nreturn f(n - 1);\n{}\n}}",
                "{".repeat(110),
                "}".repeat(110)
            ),
        ),
        (
            "operators",
            format!(
                "int f(int n) {{\nif (n == 0) {{\nreturn 0;\n}}\nreturn f(n - 1){};\n}}",
                " + 0".repeat(120)
            ),
        ),
        (
            "mpi calls",
            format!(
                "int cells[4];\nint f(int n) {{\nif (n == 0) {{\nreturn 0;\n}}\n{}f(n - 1){};\nreturn 0;\n}}",
                "MPI_Comm_rank(MPI_COMM_WORLD, &cells[".repeat(12),
                "])".repeat(12)
            ),
        ),
    ];
    let run = |defs: &str, n: usize| {
        let src = hostile(defs, &format!("buf[0] = f({n});"));
        let prog = parse_strict(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        run_program(&prog, &RunConfig::new(1))
    };
    for (name, defs) in &shapes {
        let calls = match run(defs, 100_000) {
            Err(InterpError::CallDepth { limit, .. }) => limit,
            other => panic!("{name}: {other:?}"),
        };
        assert!(calls < MAX_CALL_DEPTH, "{name}: the call bound stopped it");
        // `f(calls - 1)` puts exactly `calls` calls in progress.
        let out = run(defs, calls - 1).unwrap_or_else(|e| panic!("{name} at {calls}: {e}"));
        assert_eq!(out.exit_codes, [0], "{name}");
    }
}

/// A 1-rank world runs its rank on the calling thread, and interpretation
/// does not grow the Rust stack: run on a thread with 512 KiB of stack, a
/// quarter of Rust's default, recursion to [`MAX_CALL_DEPTH`] and recursion
/// 118 blocks deep, which the frame budget stops first, each end with the
/// typed `CallDepth` limit they always had, and the process lives.
#[test]
fn recursion_to_the_bounds_on_a_small_stack_stops_typed() {
    let direct = hostile("void down(int n) {\ndown(n + 1);\n}", "down(rank);");
    let nested = hostile(
        &format!(
            "int nest(int n) {{\nif (n == 0) {{\nreturn 0;\n}}\n{}\nreturn nest(n - 1);\n{}\n}}",
            "{".repeat(118),
            "}".repeat(118)
        ),
        "buf[0] = nest(997);",
    );
    let cases = [
        (
            "direct recursion",
            direct,
            InterpError::CallDepth {
                limit: MAX_CALL_DEPTH,
                line: 2,
            },
        ),
        (
            "recursion 118 blocks deep",
            nested,
            InterpError::CallDepth {
                limit: 128,
                line: 6,
            },
        ),
    ];
    for (name, src, expected) in cases {
        // Parsing and compiling recurse with the nesting (bounded by
        // `MAX_NESTING`); running does not.
        let code = compile(&parse_strict(&src).unwrap_or_else(|e| panic!("{name}: {e}")));
        let run = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(512 << 10)
                .spawn_scoped(scope, || run_compiled(&code, &RunConfig::new(1)))
                .unwrap()
                .join()
                .unwrap()
        });
        assert_eq!(run, Err(expected), "{name}");
    }
}

/// A block, a parenthesized expression and a unary chain, each nested `n`
/// levels deep, and a chain of `n` binary operators, as statements for
/// [`hostile`]'s `main`.
fn nesting_shapes(n: usize) -> [(&'static str, String); 4] {
    [
        ("blocks", "{".repeat(n) + ";" + &"}".repeat(n)),
        (
            "parens",
            format!("buf[0] = {}1{};", "(".repeat(n), ")".repeat(n)),
        ),
        ("unary", format!("buf[0] = {}1;", "!".repeat(n))),
        ("operators", format!("buf[0] = 1{};", " + 1".repeat(n))),
    ]
}

/// At the deepest nesting the parser accepts, the whole front end and the
/// verifier's work on the calling thread — parse, print, reparse, X-SBT,
/// compile — fit Rust's default 2 MiB thread stack, the stack the daemon's
/// connection threads parse submitted buffers on.
#[test]
fn nesting_at_the_parse_bound_fits_a_default_thread_stack() {
    let assistant = tiny_assistant();
    let deepest = [
        MAX_NESTING - 1,
        (MAX_NESTING - 4) / 2,
        MAX_NESTING - 4,
        MAX_NESTING - 4,
    ];
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            for (i, n) in deepest.into_iter().enumerate() {
                let (name, body) = &nesting_shapes(n)[i];
                let deeper = &nesting_shapes(n + 1)[i].1;
                assert!(parse_strict(&hostile("", deeper)).is_err(), "{name}");
                let src = hostile("", body);
                assert!(assistant.encode_source(&src).health.is_clean(), "{name}");
                let prog = parse_strict(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(
                    verify_program(&prog, &VerifyOptions::default()).0,
                    Verdict::Verified,
                    "{name}"
                );
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

/// Options for the benchmark11 reference splices: the paper's 2/4-rank
/// worlds plus the serial baseline, a generous step budget (these programs
/// do real numerical work), and a per-program numeric tolerance — programs
/// flagged `deterministic_across_ranks: false` legitimately print
/// rank-count-dependent values (per-rank RNG streams, gathered partials),
/// so their numeric slack is wide while token structure stays exact.
fn bench_opts(deterministic: bool) -> VerifyOptions {
    VerifyOptions {
        rank_counts: vec![2, 4],
        step_limit: 50_000_000,
        rel_tol: if deterministic { 0.15 } else { 10.0 },
        ..VerifyOptions::default()
    }
}

#[test]
fn benchmark11_reference_splices_all_verify() {
    for p in benchmark_programs() {
        // The reference "prediction" is the program's own canonical text;
        // the base is the same program with its MPI calls stripped, exactly
        // like the corpus pipeline builds training pairs. A correct splice
        // must reconstruct the original behaviour.
        let (canon_text, canon_prog) = standardize(&parse_strict(p.source).unwrap());
        let stripped = remove_mpi_calls(&canon_prog).stripped;
        let (_, base) = standardize(&stripped);
        let (verdict, runs) = verify_prediction(
            &base,
            &canon_text,
            &bench_opts(p.deterministic_across_ranks),
        );
        assert_eq!(verdict, Verdict::Verified, "{}", p.name);
        assert_eq!(
            runs, 3,
            "{}: 2-rank + 4-rank worlds + serial baseline",
            p.name
        );
    }
}

// ---------------------------------------------------------------------------
// 2. Re-ranking: total demotion across classes, stability within a class.
// ---------------------------------------------------------------------------

#[test]
fn rerank_demotes_failures_below_unverified_and_keeps_verified_order() {
    // Input arrives in model-score order; "v1" beat "v2" on score.
    let out: Vec<&str> = rerank(vec![
        ("deadlocked-top-scorer", Some(Verdict::Deadlock)),
        ("v1", Some(Verdict::Verified)),
        ("past-budget", None),
        ("v2", Some(Verdict::Verified)),
        ("crashed", Some(Verdict::RankCrash)),
    ])
    .into_iter()
    .map(|(tag, _)| tag)
    .collect();
    assert_eq!(
        out,
        [
            "v1",
            "v2",
            "past-budget",
            "deadlocked-top-scorer",
            "crashed"
        ]
    );
}

const ALL_VERDICTS: [Option<Verdict>; 8] = [
    Some(Verdict::Verified),
    None,
    Some(Verdict::Deadlock),
    Some(Verdict::RankCrash),
    Some(Verdict::TypeMismatch),
    Some(Verdict::DivergedFromSerial),
    Some(Verdict::Timeout),
    Some(Verdict::NotExecutable),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Re-ranking is a stable partition: verdict classes ascend, and inside
    /// every class the original (model-score) order is untouched — in
    /// particular two `Verified` candidates are never swapped.
    #[test]
    fn rerank_is_a_stable_class_partition(
        picks in proptest::collection::vec(0usize..ALL_VERDICTS.len(), 0..24),
    ) {
        let input: Vec<(usize, Option<Verdict>)> = picks
            .iter()
            .enumerate()
            .map(|(score_rank, &v)| (score_rank, ALL_VERDICTS[v]))
            .collect();
        let out = rerank(input.clone());

        // Same multiset of candidates (input indices are unique).
        let mut sorted_in = input.clone();
        let mut sorted_out = out.clone();
        sorted_in.sort_by_key(|&(i, _)| i);
        sorted_out.sort_by_key(|&(i, _)| i);
        prop_assert_eq!(sorted_in, sorted_out);

        // Classes never descend.
        prop_assert!(out
            .windows(2)
            .all(|w| Verdict::rank_class(w[0].1) <= Verdict::rank_class(w[1].1)));

        // Within each class, model-score order (the input index) survives.
        for class in 0u8..3 {
            let order: Vec<usize> = out
                .iter()
                .filter(|&&(_, v)| Verdict::rank_class(v) == class)
                .map(|&(i, _)| i)
                .collect();
            prop_assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "class {} reordered: {:?}",
                class,
                order
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Through the model: read-only property + verdicts on real suggestions.
// ---------------------------------------------------------------------------

/// One tiny trained assistant (beam 2, so there is a beam to re-rank)
/// shared by the whole file — training dominates test wall-clock.
fn tiny_assistant() -> &'static MpiRical {
    static ARTIFACT: OnceLock<MpiRical> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let ccfg = CorpusConfig {
            programs: 40,
            seed: 29,
            max_tokens: 320,
            threads: 1,
        };
        let (_, ds, _) = generate_dataset(&ccfg);
        let splits = ds.split(11);
        let mut cfg = MpiRicalConfig {
            model: ModelConfig::tiny(),
            vocab_min_freq: 1,
            ..Default::default()
        };
        cfg.model.max_enc_len = 256;
        cfg.model.max_dec_len = 230;
        cfg.train.epochs = 1;
        cfg.train.batch_size = 8;
        cfg.train.threads = 1;
        cfg.train.validate = false;
        cfg.decode.beam = 2;
        MpiRical::train(&splits.train, &splits.val, &cfg, |_| {}).0
    })
}

/// The same artifact with the verification loop switched on.
fn verifying_assistant(opts: VerifyOptions) -> MpiRical {
    let mut a = tiny_assistant().clone();
    a.verify = Some(opts);
    a
}

/// Fast execution budget for model-produced candidates (a 1-epoch tiny
/// model predicts plenty of junk; junk must fail fast, not stall).
fn model_opts() -> VerifyOptions {
    VerifyOptions {
        rank_counts: vec![2],
        step_limit: 100_000,
        ..VerifyOptions::default()
    }
}

const BUFFERS: [&str; 4] = [
    "int main() { int rank; printf(\"a\\n\"); return 0; }",
    "int main(int argc, char **argv) { double local = 0.0; return 0; }",
    "int main() { int size; int i; for (i = 0; i < 4; i++) {} return 0; }",
    "int main() { return 0; }",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Verification is read-only. With the loop enabled but the execution
    /// budget at zero every hypothesis stays unverified, so the stable
    /// re-rank is the identity — the suggestions (ids, functions, lines,
    /// parse health) must be bitwise what the plain artifact produces,
    /// and nothing may have touched the simulator.
    #[test]
    fn verification_is_read_only(idx in 0usize..BUFFERS.len()) {
        let plain = tiny_assistant();
        let read_only = verifying_assistant(VerifyOptions {
            max_hypotheses: 0,
            ..model_opts()
        });
        let src = BUFFERS[idx];

        prop_assert_eq!(plain.predict_ids(src), read_only.predict_ids(src));

        let off = plain.suggest_report(src);
        let on = read_only.suggest_report(src);
        prop_assert_eq!(&off.suggestions, &on.suggestions);
        prop_assert_eq!(off.health, on.health);
        prop_assert!(on.suggestions.iter().all(|s| s.verdict.is_none()));

        let stats = on.verify.expect("loop enabled: stats present");
        prop_assert_eq!(stats.hypotheses, 0, "budget zero: nothing executed");
        prop_assert_eq!(stats.sim_runs, 0, "budget zero: simulator untouched");
        prop_assert_eq!(stats.unverified, plain.decode.beam);
    }
}

#[test]
fn verified_report_carries_verdicts_and_stats() {
    let verifying = verifying_assistant(model_opts());
    for src in BUFFERS {
        let report = verifying.suggest_report(src);
        let stats = report.verify.expect("verification enabled");
        assert_eq!(
            stats.hypotheses + stats.unverified,
            tiny_assistant().decode.beam,
            "every hypothesis is accounted for"
        );
        assert_eq!(
            stats.verified
                + stats.deadlock
                + stats.rank_crash
                + stats.type_mismatch
                + stats.diverged
                + stats.timeout
                + stats.not_executable,
            stats.hypotheses,
            "verdict counts partition the executed hypotheses"
        );
        // All suggestions of one report come from the winning hypothesis.
        let verdicts: Vec<_> = report.suggestions.iter().map(|s| s.verdict).collect();
        assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{verdicts:?}");
        // The model's own prediction is untouched by the loop.
        assert_eq!(
            tiny_assistant().predict_ids(src),
            verifying.predict_ids(src)
        );
    }
}

#[test]
fn batch_and_service_agree_with_sequential_verification() {
    let verifying = verifying_assistant(model_opts());
    let sequential: Vec<_> = BUFFERS
        .iter()
        .map(|b| verifying.suggest_report(b))
        .collect();

    // One-shot batch path: same verdict-ranked suggestions, input order.
    let batch = verifying.suggest_batch(&BUFFERS);
    for (got, want) in batch.iter().zip(&sequential) {
        assert_eq!(got, &want.suggestions);
    }

    // Service path: Done tickets carry the same suggestions plus stats.
    let mut service = SuggestService::new(&verifying);
    let tickets: Vec<_> = BUFFERS
        .iter()
        .map(|b| service.submit_with(b, SubmitOptions::bulk()))
        .collect();
    service.run();
    for (ticket, want) in tickets.into_iter().zip(&sequential) {
        match service.poll(ticket) {
            SuggestPoll::Done {
                suggestions,
                verify,
                health,
                ..
            } => {
                assert_eq!(suggestions, want.suggestions);
                assert_eq!(verify, want.verify);
                assert_eq!(health, want.health);
            }
            other => panic!("ticket not finished: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Interpreter behaviour pinned to a recorded fixture.
// ---------------------------------------------------------------------------

/// What the interpreter did before it resolved names at compile time
/// (recorded by `record_interpreter_fixture` at commit 776865c, the parent
/// of that change): one line per case, tab-separated —
/// `name, ranks, smallest step budget with this outcome, outcome`.
const INTERPRETER_FIXTURE: &str = include_str!("fixtures/cinterp_behaviour.tsv");

/// The cases of the fixture: every benchmark11 program on 1, 2 and 4 ranks
/// under the default budget, every fault-corpus row on 2 ranks under the
/// fault budget, then [`SEMANTICS_CASES`].
fn fixture_cases() -> Vec<(&'static str, &'static str, usize, u64)> {
    let mut cases = Vec::new();
    for p in benchmark_programs() {
        for nranks in [1, 2, 4] {
            let budget = RunConfig::new(nranks).limits.step_limit;
            cases.push((p.name, p.source, nranks, budget));
        }
    }
    for (name, src, _) in FAULT_CORPUS {
        cases.push((name, src, 2, fault_opts().step_limit));
    }
    for &(name, nranks, budget, src) in SEMANTICS_CASES.iter().chain(WORLD_CASES) {
        cases.push((name, src, nranks, budget));
    }
    cases
}

/// Programs that pin the interpreter's semantics construct by construct —
/// control flow, evaluation order, places, calls, `printf` and one program
/// per run-time error kind with its line — as `(name, ranks, step budget,
/// source)`. Appended to the fixture by `record_interpreter_fixture` at
/// commit c4a72d8, whose rows above them were unchanged.
const SEMANTICS_CASES: &[(&str, usize, u64, &str)] = &[
    (
        "loops with break and continue",
        1,
        1_000_000,
        "int skip_rest() {\n\
         int x = 3;\n\
         if (x) { break; }\n\
         return 9;\n\
         }\n\
         int main() {\n\
         int i, j, sum = 0, trace = 0;\n\
         for (i = 0; i < 10; i++) {\n\
         if (i == 2) continue;\n\
         if (i == 7) break;\n\
         sum += i;\n\
         }\n\
         j = 0;\n\
         while (1) {\n\
         j++;\n\
         if (j % 3 == 0) { continue; }\n\
         if (j > 10) break;\n\
         trace = trace * 2 + j;\n\
         }\n\
         int k = 0;\n\
         do {\n\
         k += 2;\n\
         if (k == 4) continue;\n\
         if (k > 9) break;\n\
         trace += k;\n\
         } while (k < 20);\n\
         for (i = 0, j = 5; ; i++, j--) { if (i >= j) break; sum += i * j; }\n\
         for (int m = 0; m < 4; m++) {\n\
         int local = m * m;\n\
         { int inner = local + 1; if (inner == 2) continue; sum += inner; }\n\
         while (local > 0) { local = local - 3; if (local < 2) break; }\n\
         }\n\
         int n = 0;\n\
         while (n < 5) n++;\n\
         do n--; while (n > 2);\n\
         printf(\"%d %d %d %d %d %d %d\\n\", sum, trace, i, j, k, n, skip_rest());\n\
         return 0;\n\
         }",
    ),
    (
        "conditionals and short circuits",
        1,
        1_000_000,
        "int calls = 0;\n\
         int bump(int v) { calls = calls + 1; return v; }\n\
         int main() {\n\
         int a = 5, b = 0, r = 0;\n\
         if (a < 3) { r = 1; } else if (a < 5) { r = 2; } else if (a == 5) { r = 3; } else { r = 4; }\n\
         if (b) r = 100; else if (!a) r = 200;\n\
         int t = a > 4 ? bump(10) : bump(20);\n\
         int u = (b != 0) ? 1 : (a == 5 ? 2 : 3);\n\
         int c = (r = r + 1, r * 2);\n\
         int s1 = b && bump(1);\n\
         int s2 = a || bump(2);\n\
         int s3 = a && bump(0);\n\
         int s4 = b || bump(7);\n\
         int s5 = (b && bump(1)) || (a && bump(3));\n\
         double h = 0.0;\n\
         int s6 = h || (h = 2.5, h > 2);\n\
         printf(\"%d %d %d %d %d %d %d %d %d %d %d %.1f\\n\", r, t, u, c, s1, s2, s3, s4, s5, s6, calls, h);\n\
         return 0;\n\
         }",
    ),
    (
        "places, increments and compound assignment",
        1,
        1_000_000,
        "int main() {\n\
         int a[6];\n\
         int i;\n\
         for (i = 0; i < 6; i++) a[i] = 0;\n\
         i = 1;\n\
         a[i++] = i;\n\
         a[i++] = i * 10;\n\
         a[3] += 5; a[3] *= 3; a[3] -= 1; a[3] /= 2; a[3] %= 5;\n\
         a[4]++; ++a[4]; a[4]--; --a[5];\n\
         int *p = a;\n\
         p++; ++p; p--;\n\
         int v = *p++;\n\
         int w = *--p;\n\
         *p += 100;\n\
         double m[2][3];\n\
         m[1][2] = 4; m[1][2] += 0.5; m[0][0] = m[1][2]--;\n\
         double d = 1.5; d *= 4; d -= 0.25;\n\
         int x = 7; x <<= 2; x |= 1; x ^= 3; x &= 29; x >>= 1;\n\
         int y = (x = 3) + (x += 2);\n\
         MPI_Status st;\n\
         st.MPI_TAG = 5; st.MPI_TAG *= 3;\n\
         int *q = &a[2];\n\
         q[1] = -q[0];\n\
         printf(\"%d %d %d %d %d %d | %d %d %d %.2f %d %d %.1f %.1f %d %d\\n\", a[0], a[1], a[2], a[3], a[4], a[5], v, w, p[0], d, x, y, m[0][0], m[1][2], st.MPI_TAG, a[3]);\n\
         return 0;\n\
         }",
    ),
    (
        "printf, recursion and a late global",
        1,
        1_000_000,
        "int fact(int n) {\n\
         if (n <= 1) { return 1; }\n\
         return n * fact(n - 1);\n\
         }\n\
         int is_even(int n);\n\
         int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }\n\
         int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }\n\
         int read_late() { return late * 2; }\n\
         int late = 21;\n\
         double half(double x) { return x / 2; }\n\
         int grid[2][2] = {{1, 2}, {3, 4}};\n\
         int main(int argc, char **argv) {\n\
         printf(\"%d %s %5.2f %c %ld %e|%-4d|%x %%\\n\", fact(6), \"mixed\", half(7.0), 65, 1234567890123, 0.5, 42, 255);\n\
         printf(\"%d %d %d %d %d\\n\", is_even(10), is_odd(7), read_late(), grid[1][0], argc);\n\
         return fact(4);\n\
         }",
    ),
    (
        "error: undefined variable",
        1,
        1_000_000,
        "int main() {\n\
         int a = 1;\n\
         return a + missing;\n\
         }",
    ),
    (
        "error: undefined function",
        1,
        1_000_000,
        "int main() {\n\
         int a = 1;\n\
         a = a + 1;\n\
         return nothing(a);\n\
         }",
    ),
    (
        "error: global read before its declaration ran",
        1,
        1_000_000,
        "int peek() { return late; }\n\
         int early = peek();\n\
         int late = 3;\n\
         int main() { return early; }",
    ),
    (
        "error: pointer used as number",
        1,
        1_000_000,
        "int main() {\n\
         int a[2];\n\
         double x = 1.0;\n\
         x = a * 2.0;\n\
         return 0;\n\
         }",
    ),
    (
        "error: builtin short of arguments",
        1,
        1_000_000,
        "int main() {\n\
         double r = 2.0;\n\
         r = sqrt();\n\
         return 0;\n\
         }",
    ),
    (
        "error: printf argument of the wrong kind",
        1,
        1_000_000,
        "int main() {\n\
         int a[2];\n\
         printf(\"ok\\n\");\n\
         printf(\"%d\\n\", a);\n\
         return 0;\n\
         }",
    ),
    (
        "error: negative index",
        1,
        1_000_000,
        "int main() {\n\
         int a[4];\n\
         int i = -1;\n\
         a[i] = 3;\n\
         return 0;\n\
         }",
    ),
    (
        "error: negative array dimension",
        1,
        1_000_000,
        "int main() {\n\
         int n = -2;\n\
         int b[n];\n\
         return 0;\n\
         }",
    ),
    (
        "error: initializer past its array",
        1,
        1_000_000,
        "int main() {\n\
         int ok = 1;\n\
         int a[2] = {1, 2, 3};\n\
         return ok;\n\
         }",
    ),
    (
        "error: write through NULL",
        1,
        1_000_000,
        "int main() {\n\
         int *p = NULL;\n\
         *p = 1;\n\
         return 0;\n\
         }",
    ),
    (
        "error: division by zero in a global",
        1,
        1_000_000,
        "int zero = 0;\n\
         int bad = 1 / zero;\n\
         int main() { return bad; }",
    ),
    (
        "error: remainder by zero",
        1,
        1_000_000,
        "int main() {\n\
         int a = 7, b = 0;\n\
         a %= b;\n\
         return a;\n\
         }",
    ),
    (
        "error: step limit",
        2,
        5_000,
        "int main() {\n\
         int x = 0;\n\
         while (1) { x = x + 1; }\n\
         return x;\n\
         }",
    ),
    (
        "error: memory limit",
        1,
        1_000_000,
        "int main() {\n\
         int n = 3;\n\
         double *p = (double *)malloc(800000000);\n\
         return n;\n\
         }",
    ),
    (
        "error: call depth",
        1,
        1_000_000,
        "int down(int n) {\n\
         return down(n + 1) + 1;\n\
         }\n\
         int main() {\n\
         return down(0);\n\
         }",
    ),
    (
        "error: message count",
        2,
        1_000_000,
        "int main(int argc, char **argv) {\n\
         int rank;\n\
         int buf[4];\n\
         MPI_Init(&argc, &argv);\n\
         MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
         if (rank == 0) {\n\
         MPI_Send(buf, -1, MPI_INT, 1, 0, MPI_COMM_WORLD);\n\
         }\n\
         MPI_Finalize();\n\
         return 0;\n\
         }",
    ),
    (
        "error: unsupported MPI function",
        1,
        1_000_000,
        "int main(int argc, char **argv) {\n\
         MPI_Init(&argc, &argv);\n\
         MPI_Type_commit(0);\n\
         MPI_Finalize();\n\
         return 0;\n\
         }",
    ),
    (
        "error: MPI abort",
        2,
        1_000_000,
        "int main(int argc, char **argv) {\n\
         int rank;\n\
         MPI_Init(&argc, &argv);\n\
         MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
         if (rank == 1) { MPI_Abort(MPI_COMM_WORLD, 4); }\n\
         MPI_Barrier(MPI_COMM_WORLD);\n\
         MPI_Finalize();\n\
         return 0;\n\
         }",
    ),
];

/// Programs that pin what a multi-rank world reports when its ranks fail
/// or stall at different times, in the layout of [`SEMANTICS_CASES`].
/// Appended to the fixture by `record_interpreter_fixture` at commit
/// 96caeb6, where every rank ran on a thread of its own; both outcomes were
/// already independent of the thread schedule there.
const WORLD_CASES: &[(&str, usize, u64, &str)] = &[
    (
        "world: the computing lower rank's fault is the root cause",
        2,
        1_000_000,
        "int main(int argc, char **argv) {\n\
         int rank, i, zero = 0;\n\
         int a[4];\n\
         long acc = 0;\n\
         MPI_Init(&argc, &argv);\n\
         MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
         if (rank == 1) { acc = rank / zero; }\n\
         for (i = 0; i < 3000; i++) { acc += i; }\n\
         a[acc] = 1;\n\
         MPI_Finalize();\n\
         return 0;\n\
         }",
    ),
    (
        "world: a barrier one rank never enters",
        4,
        1_000_000,
        "int main(int argc, char **argv) {\n\
         int rank;\n\
         MPI_Init(&argc, &argv);\n\
         MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
         if (rank != 3) { MPI_Barrier(MPI_COMM_WORLD); }\n\
         MPI_Finalize();\n\
         return 0;\n\
         }",
    ),
];

/// The observable outcome of a run: per-rank exit codes and stdout, or the
/// root-cause error as displayed.
fn observe(src: &str, nranks: usize, step_limit: u64) -> String {
    let Ok(prog) = parse_strict(src) else {
        return "does not parse".to_string();
    };
    let mut cfg = RunConfig::new(nranks);
    cfg.limits.step_limit = step_limit;
    match run_program(&prog, &cfg) {
        Ok(out) => format!("exit {:?} stdout {:?}", out.exit_codes, out.rank_outputs),
        Err(e) => format!("error: {e}"),
    }
}

#[test]
fn interpreter_behaviour_matches_the_recorded_fixture() {
    let cases = fixture_cases();
    let lines: Vec<&str> = INTERPRETER_FIXTURE.lines().collect();
    assert_eq!(lines.len(), cases.len(), "one fixture line per case");
    for ((name, src, nranks, budget), line) in cases.into_iter().zip(lines) {
        let fields: Vec<&str> = line.split('\t').collect();
        let [fname, franks, min_steps, outcome] = fields[..] else {
            panic!("malformed fixture line: {line}");
        };
        assert_eq!((fname, franks), (name, nranks.to_string().as_str()));
        assert_eq!(observe(src, nranks, budget), outcome, "{name} on {nranks}");
        // Step accounting is pinned exactly: the recorded budget is the
        // smallest that reaches this outcome, so one step fewer must not.
        if let Ok(min) = min_steps.parse::<u64>() {
            assert_eq!(observe(src, nranks, min), outcome, "{name} on {nranks}");
            assert_eq!(
                observe(src, nranks, min - 1),
                format!("error: step limit of {} exceeded (runaway loop?)", min - 1),
                "{name} on {nranks}: took fewer steps than recorded"
            );
        }
    }
}

/// Regenerates the fixture from whatever interpreter this is built against.
/// Only meaningful at a commit whose behaviour is the reference; the
/// committed file came from 776865c.
#[test]
#[ignore = "recorder for tests/fixtures/cinterp_behaviour.tsv"]
fn record_interpreter_fixture() {
    let mut text = String::new();
    for (name, src, nranks, budget) in fixture_cases() {
        let outcome = observe(src, nranks, budget);
        // Smallest budget with the same outcome (none if the outcome is the
        // budget running out, or does not depend on steps at all).
        let min_steps =
            if observe(src, nranks, 0) == outcome || outcome.starts_with("error: step limit") {
                "-".to_string()
            } else {
                let (mut fails, mut passes) = (0, budget);
                while passes - fails > 1 {
                    let mid = fails + (passes - fails) / 2;
                    if observe(src, nranks, mid) == outcome {
                        passes = mid;
                    } else {
                        fails = mid;
                    }
                }
                passes.to_string()
            };
        text.push_str(&format!("{name}\t{nranks}\t{min_steps}\t{outcome}\n"));
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/cinterp_behaviour.tsv"
    );
    std::fs::write(path, text).expect("write the fixture");
}

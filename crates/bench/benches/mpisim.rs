//! Criterion benches of the simulated MPI runtime and the C interpreter —
//! the §VI-C validation substrate. Collective latency scaling across world
//! sizes, p2p ping-pong, deadlock detection, and interpreted-program
//! throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mpirical_interp::{run_program, InterpError, RunConfig};
use mpirical_sim::{ReduceOp, SimError, Source, Tag, World};
use std::time::{Duration, Instant};

fn bench_p2p(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpisim_p2p");
    g.sample_size(10);
    for msg in [1usize, 64, 1024] {
        g.bench_function(format!("pingpong_{msg}_doubles"), |b| {
            b.iter(|| {
                World::run(2, |comm| {
                    let buf = vec![1.0f64; msg];
                    let mut rbuf = vec![0.0f64; msg];
                    if comm.rank() == 0 {
                        comm.send(&buf, 1, 0)?;
                        comm.recv(&mut rbuf, Source::Rank(1), Tag::Value(1))?;
                    } else {
                        comm.recv(&mut rbuf, Source::Rank(0), Tag::Value(0))?;
                        comm.send(&buf, 0, 1)?;
                    }
                    Ok(())
                })
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpisim_collectives");
    g.sample_size(10);
    for nranks in [2usize, 4, 8] {
        g.bench_function(format!("allreduce_{nranks}ranks"), |b| {
            b.iter(|| {
                World::run(nranks, |comm| {
                    let x = [comm.rank() as f64; 16];
                    let mut out = [0.0f64; 16];
                    comm.allreduce(&x, &mut out, ReduceOp::Sum)?;
                    Ok(black_box(out[0]))
                })
                .unwrap()
            })
        });
        g.bench_function(format!("barrier_{nranks}ranks"), |b| {
            b.iter(|| {
                World::run(nranks, |comm| {
                    for _ in 0..8 {
                        comm.barrier()?;
                    }
                    Ok(())
                })
                .unwrap()
            })
        });
    }
    g.finish();
}

/// Ranks in the `blocked` snapshot of a world that must deadlock.
fn blocked_ranks(outcome: Result<Vec<()>, SimError>) -> Vec<usize> {
    match outcome {
        Err(SimError::Deadlock { blocked, .. }) => blocked.iter().map(|b| b.rank).collect(),
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

/// Time to *declare* a deadlock: the whole world, launch to verdict. Setup
/// asserts the blocked list and that one detection stays far below any
/// timer (a regression to wall-clock detection fails the job, not a chart).
fn bench_deadlock(c: &mut Criterion) {
    let recv_recv_cycle = || {
        World::run(2, |comm| {
            let mut buf = [0i32];
            comm.recv(&mut buf, Source::Rank(1 - comm.rank()), Tag::Value(0))?;
            Ok(())
        })
    };
    let missing_barrier = || {
        World::run(4, |comm| match comm.rank() {
            3 => Ok(()),
            _ => comm.barrier(),
        })
    };
    let mut g = c.benchmark_group("mpisim_deadlock");
    g.sample_size(10);
    let t = Instant::now();
    assert_eq!(blocked_ranks(recv_recv_cycle()), [0, 1]);
    assert_eq!(blocked_ranks(missing_barrier()), [0, 1, 2]);
    let per_cycle = t.elapsed() / 2;
    assert!(
        per_cycle < Duration::from_millis(50),
        "deadlock detection took {per_cycle:?} per cycle"
    );
    g.bench_function("recv_recv_cycle_2ranks", |b| {
        b.iter(|| black_box(recv_recv_cycle()).is_err())
    });
    g.bench_function("missing_barrier_4ranks", |b| {
        b.iter(|| black_box(missing_barrier()).is_err())
    });
    g.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let pi_src = r#"#include <mpi.h>
int main(int argc, char **argv) {
    int rank, size, i;
    int n = 2000;
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
    let prog = mpirical_cparse::parse_strict(pi_src).unwrap();
    let mut g = c.benchmark_group("cinterp");
    g.sample_size(10);
    for nranks in [1usize, 4] {
        g.bench_function(format!("pi_riemann_n2000_{nranks}ranks"), |b| {
            b.iter(|| run_program(black_box(&prog), &RunConfig::new(nranks)).unwrap())
        });
    }
    g.finish();
}

/// Interpreter cost per step, where steps are all there is: three programs
/// that do nothing but execute loop bodies — a bare `while (1)` run into
/// its step budget (the verifier's `Timeout` verdict), a numeric loop with
/// a user-function call per iteration, and an array sweep. Setup asserts
/// what each run returns before anything is timed.
fn bench_interpreter_steps(c: &mut Criterion) {
    let runaway = mpirical_cparse::parse_strict(
        "int main() { int x = 0; while (1) { x = x + 1; } return 0; }",
    )
    .unwrap();
    let budget = |nranks| {
        let mut cfg = RunConfig::new(nranks);
        cfg.limits.step_limit = 2_000_000;
        cfg
    };
    let pi_calls = mpirical_cparse::parse_strict(
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
    )
    .unwrap();
    let array_sweep = mpirical_cparse::parse_strict(
        r#"int main() {
    double a[1000];
    int r, i;
    double total = 0.0;
    for (i = 0; i < 1000; i++) { a[i] = 0.0; }
    for (r = 0; r < 100; r++) {
        for (i = 0; i < 1000; i++) { a[i] = a[i] + i * 0.5; }
    }
    for (i = 0; i < 1000; i++) { total += a[i]; }
    printf("%.1f\n", total);
    return 0;
}"#,
    )
    .unwrap();

    for nranks in [1, 2] {
        assert_eq!(
            run_program(&runaway, &budget(nranks)),
            Err(InterpError::StepLimit { limit: 2_000_000 })
        );
    }
    let stdout = |prog| run_program(prog, &RunConfig::new(1)).unwrap().combined();
    assert_eq!(stdout(&pi_calls), "3.141593\n");
    assert_eq!(stdout(&array_sweep), "24975000.0\n");

    let mut g = c.benchmark_group("cinterp_steps");
    g.sample_size(10);
    for nranks in [1usize, 2] {
        g.bench_function(format!("runaway_2m_steps_{nranks}ranks"), |b| {
            b.iter(|| run_program(black_box(&runaway), &budget(nranks)).is_err())
        });
    }
    g.bench_function("pi_riemann_100k_calls", |b| {
        b.iter(|| run_program(black_box(&pi_calls), &RunConfig::new(1)).unwrap())
    });
    g.bench_function("array_sweep_100x1000", |b| {
        b.iter(|| run_program(black_box(&array_sweep), &RunConfig::new(1)).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_p2p,
    bench_collectives,
    bench_deadlock,
    bench_interpreter,
    bench_interpreter_steps
);
criterion_main!(benches);

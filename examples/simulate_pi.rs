//! Run the paper's running example — distributed pi via Riemann sums — on
//! the simulated MPI runtime at several world sizes, demonstrating the
//! §VI-C validation substrate: answers must be identical across
//! decompositions, and a deliberately broken variant must be caught.
//!
//! ```text
//! cargo run --release --example simulate_pi
//! ```

use mpirical_interp::{run_program, run_source, RunConfig};

const PI_SRC: &str = r#"#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank, size, i;
    int n = 100000;
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
    if (rank == 0) {
        printf("pi = %.10f\n", pi);
    }
    MPI_Finalize();
    return 0;
}"#;

/// The same program with the Reduce misplaced *inside* the loop — the kind
/// of mistake the paper's intro says programmers make (and a deadlock on
/// more than one rank, since rank 0 reduces n/size times but others n/size'
/// times... here it simply produces a wrong answer on 1 rank and hangs on
/// several, which the simulator turns into a clean error).
const BROKEN_SRC: &str = r#"#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank, size, i;
    int n = 100;
    double local = 0.0, pi, x, step;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    step = 1.0 / (double)n;
    for (i = rank; i < n; i += size) {
        x = (i + 0.5) * step;
        local += 4.0 / (1.0 + x * x);
        MPI_Reduce(&local, &pi, 1, MPI_DOUBLE, MPI_SUM, 0, MPI_COMM_WORLD);
    }
    if (rank == 0) {
        printf("pi = %.10f\n", pi);
    }
    MPI_Finalize();
    return 0;
}"#;

fn main() {
    println!("distributed pi on the simulated MPI runtime:");
    let mut reference = None;
    for nranks in [1usize, 2, 4, 8] {
        let t0 = std::time::Instant::now();
        let out = run_source(PI_SRC, nranks).expect("pi program runs");
        let line = out.rank_outputs[0].trim().to_string();
        println!(
            "  {nranks} ranks: {line}   ({:.0} ms)",
            t0.elapsed().as_secs_f64() * 1e3
        );
        match &reference {
            None => reference = Some(line),
            Some(r) => assert_eq!(
                r, &line,
                "domain decomposition changed the answer — validation failed"
            ),
        }
    }
    println!("  answer is identical on every world size ✓");

    println!("\nmisplaced MPI_Reduce (inside the loop):");
    let prog = mpirical_cparse::parse_strict(BROKEN_SRC).unwrap();
    match run_program(&prog, &RunConfig::new(4)) {
        Ok(out) => println!("  ran, but output is wrong: {}", out.rank_outputs[0].trim()),
        Err(e) => println!("  caught by the simulator: {e}"),
    }
}

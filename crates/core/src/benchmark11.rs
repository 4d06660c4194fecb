//! The "fully compiled numerical computations" benchmark (paper §VI-C,
//! Table III): eleven hand-written MPI programs with domain decomposition,
//! each demonstrating one numerical computation.
//!
//! The paper validated these by compiling and running them under a real MPI;
//! here [`validate_program`] substitutes that check with the simulated
//! runtime: the program must parse strictly, pass the corpus inclusion
//! criteria, execute on 1/2/4 ranks without fault, and (for the
//! rank-deterministic programs) print identical root output on every world
//! size.

use mpirical_cparse::{count_code_tokens, parse_strict};
use mpirical_interp::{run_program, RunConfig};
use serde::{Deserialize, Serialize};

/// One benchmark program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchProgram {
    /// Table III row name.
    pub name: &'static str,
    pub source: &'static str,
    /// Whether root output must be identical across world sizes (false for
    /// Monte-Carlo, whose per-rank RNG streams differ by construction).
    pub deterministic_across_ranks: bool,
}

/// Validation outcome for one program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Validation {
    pub name: String,
    pub parses: bool,
    pub tokens: usize,
    pub within_token_budget: bool,
    pub runs: Vec<(usize, bool)>,
    pub rank_invariant: bool,
    pub root_output: String,
}

impl Validation {
    pub fn ok(&self) -> bool {
        self.parses
            && self.within_token_budget
            && self.runs.iter().all(|(_, ok)| *ok)
            && self.rank_invariant
    }
}

/// Validate one program on the simulated runtime.
pub fn validate_program(p: &BenchProgram) -> Validation {
    let parses = parse_strict(p.source).is_ok();
    let tokens = count_code_tokens(p.source);
    let mut runs = Vec::new();
    let mut outputs = Vec::new();
    if parses {
        let prog = parse_strict(p.source).unwrap();
        for nranks in [1usize, 2, 4] {
            match run_program(&prog, &RunConfig::new(nranks)) {
                Ok(out) => {
                    runs.push((nranks, true));
                    outputs.push(out.rank_outputs[0].clone());
                }
                Err(_) => {
                    runs.push((nranks, false));
                    outputs.push(String::new());
                }
            }
        }
    }
    let rank_invariant = if p.deterministic_across_ranks && outputs.len() == 3 {
        outputs.windows(2).all(|w| w[0] == w[1])
    } else {
        true
    };
    Validation {
        name: p.name.to_string(),
        parses,
        tokens,
        within_token_budget: tokens <= 320,
        runs,
        rank_invariant,
        root_output: outputs.first().cloned().unwrap_or_default(),
    }
}

/// All eleven programs, in Table III order.
pub fn benchmark_programs() -> Vec<BenchProgram> {
    vec![
        BenchProgram {
            name: "Array Average",
            deterministic_across_ranks: true,
            source: r#"#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank, size, i;
    int n = 64;
    double data[64];
    double local = 0.0, total = 0.0;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    for (i = 0; i < n; i++) {
        data[i] = i + 1.0;
    }
    for (i = rank; i < n; i += size) {
        local += data[i];
    }
    MPI_Reduce(&local, &total, 1, MPI_DOUBLE, MPI_SUM, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        printf("average = %.4f\n", total / n);
    }
    MPI_Finalize();
    return 0;
}
"#,
        },
        BenchProgram {
            name: "Vector Dot Product",
            deterministic_across_ranks: true,
            source: r#"#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank, size, i;
    int n = 128;
    double a[128], b[128];
    double local = 0.0, dot = 0.0;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    for (i = 0; i < n; i++) {
        a[i] = i * 0.5;
        b[i] = n - i;
    }
    for (i = rank; i < n; i += size) {
        local += a[i] * b[i];
    }
    MPI_Reduce(&local, &dot, 1, MPI_DOUBLE, MPI_SUM, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        printf("dot = %.4f\n", dot);
    }
    MPI_Finalize();
    return 0;
}
"#,
        },
        BenchProgram {
            name: "Min-Max",
            deterministic_across_ranks: true,
            source: r#"#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank, size, i;
    int n = 96;
    double data[96];
    double lmin, lmax, gmin, gmax;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    for (i = 0; i < n; i++) {
        data[i] = (i * 37 + 11) % 101;
    }
    lmin = data[rank];
    lmax = data[rank];
    for (i = rank; i < n; i += size) {
        if (data[i] < lmin) {
            lmin = data[i];
        }
        if (data[i] > lmax) {
            lmax = data[i];
        }
    }
    MPI_Reduce(&lmin, &gmin, 1, MPI_DOUBLE, MPI_MIN, 0, MPI_COMM_WORLD);
    MPI_Reduce(&lmax, &gmax, 1, MPI_DOUBLE, MPI_MAX, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        printf("min %.1f max %.1f\n", gmin, gmax);
    }
    MPI_Finalize();
    return 0;
}
"#,
        },
        BenchProgram {
            name: "Matrix-Vector Multiplication",
            deterministic_across_ranks: true,
            source: r#"#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank, size, i, j;
    double mat[16][8], vec[8], out[16], mine[16][8], local_out[16];
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    if (rank == 0) {
        for (i = 0; i < 16; i++) {
            for (j = 0; j < 8; j++) {
                mat[i][j] = i + j;
            }
        }
        for (j = 0; j < 8; j++) {
            vec[j] = 1.0;
        }
    }
    MPI_Bcast(vec, 8, MPI_DOUBLE, 0, MPI_COMM_WORLD);
    int rows_per = 16 / size;
    MPI_Scatter(mat, rows_per * 8, MPI_DOUBLE, mine, rows_per * 8, MPI_DOUBLE, 0, MPI_COMM_WORLD);
    for (i = 0; i < rows_per; i++) {
        local_out[i] = 0.0;
        for (j = 0; j < 8; j++) {
            local_out[i] += mine[i][j] * vec[j];
        }
    }
    MPI_Gather(local_out, rows_per, MPI_DOUBLE, out, rows_per, MPI_DOUBLE, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        printf("out[0]=%.1f out[15]=%.1f\n", out[0], out[15]);
    }
    MPI_Finalize();
    return 0;
}
"#,
        },
        BenchProgram {
            name: "Sum (Reduce & Gather)",
            deterministic_across_ranks: false,
            source: r#"#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank, size, i;
    double local = 0.0, total = 0.0;
    double parts[16];
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    for (i = rank; i < 200; i += size) {
        local += i * 0.25;
    }
    MPI_Reduce(&local, &total, 1, MPI_DOUBLE, MPI_SUM, 0, MPI_COMM_WORLD);
    MPI_Gather(&local, 1, MPI_DOUBLE, parts, 1, MPI_DOUBLE, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        printf("sum = %.2f first_part = %.2f\n", total, parts[0]);
    }
    MPI_Finalize();
    return 0;
}
"#,
        },
        BenchProgram {
            name: "Merge Sort",
            deterministic_across_ranks: true,
            source: r#"#include <mpi.h>
#include <stdio.h>
void local_sort(int *a, int len) {
    int i, j;
    for (i = 0; i < len; i++) {
        for (j = i + 1; j < len; j++) {
            if (a[j] < a[i]) {
                int t = a[i];
                a[i] = a[j];
                a[j] = t;
            }
        }
    }
}
int main(int argc, char **argv) {
    int rank, size, i;
    int data[64], chunk[64];
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    if (rank == 0) {
        for (i = 0; i < 64; i++) {
            data[i] = (i * 7919 + 13) % 1000;
        }
    }
    int per = 64 / size;
    MPI_Scatter(data, per, MPI_INT, chunk, per, MPI_INT, 0, MPI_COMM_WORLD);
    local_sort(chunk, per);
    MPI_Gather(chunk, per, MPI_INT, data, per, MPI_INT, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        local_sort(data, 64);
        printf("first %d last %d\n", data[0], data[63]);
    }
    MPI_Finalize();
    return 0;
}
"#,
        },
        BenchProgram {
            name: "Pi Monte-Carlo",
            deterministic_across_ranks: false,
            source: r#"#include <mpi.h>
#include <stdio.h>
#include <stdlib.h>
int main(int argc, char **argv) {
    int rank, size, i;
    long hits = 0, total = 0;
    int trials = 4000;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    srand(rank + 1);
    for (i = rank; i < trials; i += size) {
        double x = (double)rand() / RAND_MAX;
        double y = (double)rand() / RAND_MAX;
        if (x * x + y * y <= 1.0) {
            hits = hits + 1;
        }
    }
    MPI_Reduce(&hits, &total, 1, MPI_LONG, MPI_SUM, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        printf("pi approx %.3f\n", 4.0 * total / trials);
    }
    MPI_Finalize();
    return 0;
}
"#,
        },
        BenchProgram {
            name: "Pi Riemann Sum",
            deterministic_across_ranks: false,
            source: r#"#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank, size, i;
    int n = 10000;
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
        printf("pi = %.6f\n", pi);
    }
    MPI_Finalize();
    return 0;
}
"#,
        },
        BenchProgram {
            name: "Factorial",
            deterministic_across_ranks: true,
            source: r#"#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank, size, i;
    long local = 1, result = 1;
    int n = 16;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    for (i = rank + 1; i <= n; i += size) {
        local = local * i;
    }
    MPI_Reduce(&local, &result, 1, MPI_LONG, MPI_PROD, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        printf("%d! = %ld\n", n, result);
    }
    MPI_Finalize();
    return 0;
}
"#,
        },
        BenchProgram {
            name: "Fibonacci",
            deterministic_across_ranks: true,
            source: r#"#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank, size, i;
    long fib = 0;
    int n = 30;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    if (rank == 0) {
        long a = 0, b = 1;
        for (i = 0; i < n; i++) {
            long next = a + b;
            a = b;
            b = next;
        }
        fib = a;
    }
    MPI_Bcast(&fib, 1, MPI_LONG, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        printf("fib(%d) = %ld\n", n, fib);
    }
    MPI_Finalize();
    return 0;
}
"#,
        },
        BenchProgram {
            name: "Trapezoidal Rule (Integration)",
            deterministic_across_ranks: false,
            source: r#"#include <mpi.h>
#include <stdio.h>
double f(double x) {
    return x * x + 1.0;
}
int main(int argc, char **argv) {
    int rank, size, i;
    int n = 2048;
    double a = 0.0, b = 4.0, h, local = 0.0, total;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    h = (b - a) / n;
    int chunk = n / size;
    int first = rank * chunk;
    int last = (rank == size - 1) ? n : first + chunk;
    for (i = first; i < last; i++) {
        double xl = a + i * h;
        local += 0.5 * (f(xl) + f(xl + h)) * h;
    }
    MPI_Reduce(&local, &total, 1, MPI_DOUBLE, MPI_SUM, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        printf("integral = %.4f\n", total);
    }
    MPI_Finalize();
    return 0;
}
"#,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_programs_in_table_order() {
        let progs = benchmark_programs();
        assert_eq!(progs.len(), 11);
        assert_eq!(progs[0].name, "Array Average");
        assert_eq!(progs[10].name, "Trapezoidal Rule (Integration)");
    }

    #[test]
    fn all_programs_pass_inclusion_criteria() {
        for p in benchmark_programs() {
            parse_strict(p.source).unwrap_or_else(|e| panic!("{} does not parse: {e}", p.name));
            let tokens = count_code_tokens(p.source);
            assert!(
                tokens <= 320,
                "{}: {} tokens (paper bound 320)",
                p.name,
                tokens
            );
        }
    }

    #[test]
    fn all_programs_validate_on_simulated_mpi() {
        for p in benchmark_programs() {
            let v = validate_program(&p);
            assert!(v.ok(), "{} failed validation: {v:?}", p.name);
            assert!(!v.root_output.is_empty(), "{} printed nothing", p.name);
        }
    }

    #[test]
    fn numerical_answers_are_correct() {
        let progs = benchmark_programs();
        let get = |name: &str| {
            let p = progs.iter().find(|p| p.name == name).unwrap();
            validate_program(p).root_output
        };
        // average of 1..=64 = 32.5
        assert_eq!(get("Array Average"), "average = 32.5000\n");
        // pi to 1e-5
        let pi_line = get("Pi Riemann Sum");
        let pi: f64 = pi_line.trim().trim_start_matches("pi = ").parse().unwrap();
        assert!((pi - std::f64::consts::PI).abs() < 1e-5);
        // 16! = 20922789888000
        assert_eq!(get("Factorial"), "16! = 20922789888000\n");
        // fib(30) = 832040
        assert_eq!(get("Fibonacci"), "fib(30) = 832040\n");
        // ∫₀⁴ (x²+1) dx = 64/3 + 4 ≈ 25.3333 (trapezoid slightly above)
        let integral_line = get("Trapezoidal Rule (Integration)");
        let v: f64 = integral_line
            .trim()
            .trim_start_matches("integral = ")
            .parse()
            .unwrap();
        assert!((v - (64.0 / 3.0 + 4.0)).abs() < 1e-2, "{v}");
    }

    #[test]
    fn mpi_call_mix_covers_common_core() {
        // Across the 11 programs the paper's common-core functions
        // (minus Send/Recv which Table III's codes replace with collectives)
        // must all appear.
        let mut seen = std::collections::HashSet::new();
        for p in benchmark_programs() {
            let prog = parse_strict(p.source).unwrap();
            for (name, _) in prog.calls_matching(|n| n.starts_with("MPI_")) {
                seen.insert(name);
            }
        }
        for f in [
            "MPI_Init",
            "MPI_Finalize",
            "MPI_Comm_rank",
            "MPI_Comm_size",
            "MPI_Reduce",
            "MPI_Bcast",
            "MPI_Scatter",
            "MPI_Gather",
        ] {
            assert!(seen.contains(f), "{f} missing from the benchmark mix");
        }
    }
}

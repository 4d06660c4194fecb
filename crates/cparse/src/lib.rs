//! # mpirical-cparse
//!
//! Error-tolerant C-subset front-end for the MPI-RICAL reproduction.
//!
//! This crate fills the role played by **pycparser** and **TreeSitter** in
//! the paper (Schneider et al., SC 2023, §IV-A and §V-A):
//!
//! * [`lex`] — tokenization with source-line tracking (the paper's "location"
//!   unit is the line number, §III RQ2);
//! * [`parse_tolerant`] — never-failing parse with `Error` recovery nodes,
//!   mirroring TreeSitter's ability to parse code mid-edit for live IDE
//!   advising;
//! * [`parse_strict`] — the corpus *inclusion gate*: a program enters the
//!   dataset only if it parses cleanly (paper §V-A1);
//! * [`print_program`] / [`standardize`] — "code standardization" (§V-A3):
//!   regenerating the program from its AST with canonical layout, which
//!   defines the line numbering all labels refer to.
//!
//! The supported subset covers the C that appears in MPI numerical
//! mini-apps: scalar/array/pointer declarations, control flow (`if`/`else`,
//! `for`, `while`, `do`, `break`/`continue`/`return`), function definitions
//! and calls, the usual operator zoo with C precedence, casts, `sizeof`,
//! string/char literals, struct member access (for `MPI_Status`), and
//! whole-line preprocessor directives carried through verbatim.
//!
//! ```
//! use mpirical_cparse::{parse_strict, print_program};
//!
//! let src = "int main(int argc, char **argv) { MPI_Init(&argc, &argv); MPI_Finalize(); return 0; }";
//! let prog = parse_strict(src).unwrap();
//! let mpi_calls = prog.calls_matching(|n| n.starts_with("MPI_"));
//! assert_eq!(mpi_calls.len(), 2);
//! let standardized = print_program(&prog);
//! assert!(standardized.contains("MPI_Init(&argc, &argv);"));
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod splice;
pub mod token;

pub use ast::{
    AssignOp, BinOp, Block, Declaration, Declarator, Expr, ForInit, FunctionDef, Init, Item, Param,
    Program, Stmt, TypeSpec, UnOp,
};
pub use error::{Diagnostic, ParseError, ParseHealth, Severity};
pub use lexer::{lex, LexOutput};
pub use parser::{parse_strict, parse_tolerant, ParseOutput, MAX_NESTING};
pub use printer::{print_program, render_expr, standardize};
pub use splice::splice_stmt;
pub use token::{Keyword, Punct, Token, TokenKind};

/// Count the code tokens of a source text (excludes preprocessor directives
/// and EOF) — the unit of the corpus ≤320-token exclusion criterion.
pub fn count_code_tokens(source: &str) -> usize {
    lex(source).code_token_count()
}

/// True if `name` is an MPI API symbol (function or constant).
pub fn is_mpi_name(name: &str) -> bool {
    name.starts_with("MPI_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_tokens_matches_paper_unit() {
        let n = count_code_tokens("#include <mpi.h>\nint main() { return 0; }");
        assert_eq!(n, 9);
    }

    #[test]
    fn mpi_name_check() {
        assert!(is_mpi_name("MPI_Send"));
        assert!(is_mpi_name("MPI_COMM_WORLD"));
        assert!(!is_mpi_name("mpi_send"));
        assert!(!is_mpi_name("printf"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Source-like strings: printable ASCII with braces/semicolons likely.
    fn arb_source() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                Just("int ".to_string()),
                Just("x".to_string()),
                Just(" = ".to_string()),
                Just("1".to_string()),
                Just(";".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("if".to_string()),
                Just("\"s\"".to_string()),
                Just("+".to_string()),
                Just("MPI_Send".to_string()),
                Just("\n".to_string()),
                Just("/*".to_string()),
                Just("*/".to_string()),
                Just("'c'".to_string()),
                Just("3.5".to_string()),
            ],
            0..64,
        )
        .prop_map(|parts| parts.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tolerant pipeline is total: any input lexes and parses without
        /// panicking, and the result can be printed.
        #[test]
        fn tolerant_pipeline_is_total(src in arb_source()) {
            let out = parse_tolerant(&src);
            let _ = print_program(&out.program);
        }

        /// Lexing any byte soup never panics and always ends in EOF.
        #[test]
        fn lex_is_total(src in "\\PC*") {
            let out = lex(&src);
            prop_assert!(matches!(out.tokens.last().unwrap().kind, TokenKind::Eof));
        }

        /// Standardization is idempotent on anything that parses strictly.
        #[test]
        fn print_idempotent_on_clean_programs(
            n_decls in 1usize..6,
            use_loop in any::<bool>(),
        ) {
            let mut body = String::new();
            for i in 0..n_decls {
                body.push_str(&format!("int v{i} = {i};"));
            }
            if use_loop {
                body.push_str("for (int i = 0; i < 10; i++) { v0 += i; }");
            }
            body.push_str("return v0;");
            let src = format!("int main() {{ {body} }}");
            let p1 = parse_strict(&src).unwrap();
            let t1 = print_program(&p1);
            let p2 = parse_strict(&t1).unwrap();
            let t2 = print_program(&p2);
            prop_assert_eq!(t1, t2);
        }
    }
}

//! Seeded input generation. The system under test only ever receives what
//! these generators produce; the same seed gives a byte-identical stream.
//!
//! The *pool* of C sources is fixed (constants below) so that encoder-length
//! and interpreter-cost distributions do not move between seeds; the seed
//! decides order, edits, caps, arrival times and variant numbers.

use mpirical::corpus::{generate_dataset, remove_mpi_calls, CorpusConfig, Dataset};
use mpirical::cparse::{parse_strict, parse_tolerant, standardize, Program};
use mpirical::{benchmark_programs, Verdict};
use std::time::Duration;

/// Corpus the serial source pool and the artifact's vocabulary are drawn
/// from (fixed: see module docs).
pub const CORPUS_SEED: u64 = 0xC0FFEE;
pub const CORPUS_PROGRAMS: usize = 120;

pub fn corpus() -> Dataset {
    let config = CorpusConfig {
        programs: CORPUS_PROGRAMS,
        seed: CORPUS_SEED,
        max_tokens: 320,
        threads: 1,
    };
    generate_dataset(&config).1
}

/// splitmix64 — the benchmark's own generator, so a change to the `rand`
/// shim cannot silently change the request streams a baseline was taken on.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The fixed pool of serial C sources every wire workload draws from: the
/// eleven benchmark programs with their MPI calls stripped, plus the serial
/// side of a generated corpus. Encoder length spans 90–256 ids; about half
/// the sources fill the 256-id window.
pub fn source_pool() -> Vec<String> {
    let mut pool: Vec<String> = benchmark_programs()
        .iter()
        .map(|p| {
            let (_, canon) = standardize(&parse_strict(p.source).expect("benchmark11 parses"));
            standardize(&remove_mpi_calls(&canon).stripped).0
        })
        .collect();
    pool.extend(corpus().records.into_iter().map(|r| r.input_code));
    pool
}

/// Size classes the pool is cut into for [`stratified_order`].
const STRATA: usize = 4;

/// The pool's indices in a seeded order that keeps every stretch of a stream
/// the same mix of source sizes: the pool is cut into [`STRATA`] size classes,
/// each is shuffled, and the classes are dealt round-robin (each hand of
/// [`STRATA`] shuffled again). Encoder cost follows source size, so the
/// files a 20-second window happens to visit should not decide its numbers.
fn stratified_order(pool: &[String], rng: &mut Rng) -> Vec<usize> {
    let mut by_size: Vec<usize> = (0..pool.len()).collect();
    by_size.sort_by_key(|&i| (pool[i].len(), i));
    let per_class = pool.len().div_ceil(STRATA);
    let mut classes: Vec<Vec<usize>> = by_size.chunks(per_class).map(<[usize]>::to_vec).collect();
    for class in &mut classes {
        rng.shuffle(class);
    }
    let mut order = Vec::with_capacity(pool.len());
    for k in 0..per_class {
        let mut hand: Vec<usize> = classes.iter().filter_map(|c| c.get(k).copied()).collect();
        rng.shuffle(&mut hand);
        order.extend(hand);
    }
    order
}

// ---------------------------------------------------------------------------
// Keystroke stream (interactive_retrigger, mixed_overload connection A)
// ---------------------------------------------------------------------------

/// What a keystroke did to the buffer relative to the previous request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// One integer literal changed; the buffer still parses cleanly.
    Clean,
    /// Cursor is mid-call: a statement is cut after its `(` (unbalanced, so
    /// the tolerant parser must recover).
    MidEdit,
    /// The previous buffer again, byte for byte.
    Resubmit,
}

/// One interactive request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keystroke {
    pub source: String,
    pub kind: EditKind,
    /// The buffer holds an open call (a mid-edit buffer, or a resubmission of
    /// one): the front-end must report recovery events.
    pub unbalanced: bool,
    /// `max_new_tokens` cap.
    pub cap: usize,
}

/// Keystrokes spent in one file before the user moves to the next.
pub const KEYS_PER_FILE: usize = 4;
/// Generated-token caps an interactive request draws from.
pub const CAPS: [usize; 3] = [8, 16, 32];

/// Endless keystroke stream: every group of four requests holds two clean
/// one-token edits, one mid-edit buffer and one exact resubmission (so the
/// shares are exactly 50/25/25 %), and every group of three cycles the caps.
pub struct KeystrokeStream {
    rng: Rng,
    pool: Vec<String>,
    order: Vec<usize>,
    file: usize,
    key_in_file: usize,
    clean: String,
    last: String,
    last_unbalanced: bool,
    kinds: [EditKind; 4],
    caps: [usize; 3],
    issued: usize,
}

impl KeystrokeStream {
    pub fn new(pool: &[String], seed: u64) -> KeystrokeStream {
        let mut rng = Rng::new(seed ^ 0x6b65_7973);
        let order = stratified_order(pool, &mut rng);
        let first = pool[order[0]].clone();
        KeystrokeStream {
            rng,
            pool: pool.to_vec(),
            order,
            file: 0,
            key_in_file: 0,
            clean: first.clone(),
            last: first,
            last_unbalanced: false,
            kinds: [
                EditKind::Clean,
                EditKind::MidEdit,
                EditKind::Clean,
                EditKind::Resubmit,
            ],
            caps: CAPS,
            issued: 0,
        }
    }
}

impl Iterator for KeystrokeStream {
    type Item = Keystroke;

    fn next(&mut self) -> Option<Keystroke> {
        if self.key_in_file == KEYS_PER_FILE {
            self.key_in_file = 0;
            self.file += 1;
            if self.file == self.order.len() {
                self.file = 0;
                self.order = stratified_order(&self.pool, &mut self.rng);
            }
            self.clean = self.pool[self.order[self.file]].clone();
            self.last = self.clean.clone();
            self.last_unbalanced = false;
        }
        if self.issued.is_multiple_of(4) {
            self.rng.shuffle(&mut self.kinds);
        }
        if self.issued.is_multiple_of(3) {
            self.rng.shuffle(&mut self.caps);
        }
        let kind = self.kinds[self.issued % 4];
        let (source, unbalanced) = match kind {
            EditKind::Clean => {
                self.clean = edit_one_literal(&self.clean, &mut self.rng);
                (self.clean.clone(), false)
            }
            EditKind::MidEdit => (open_one_call(&self.clean, &mut self.rng), true),
            EditKind::Resubmit => (self.last.clone(), self.last_unbalanced),
        };
        let cap = self.caps[self.issued % 3];
        self.last = source.clone();
        self.last_unbalanced = unbalanced;
        self.issued += 1;
        self.key_in_file += 1;
        Some(Keystroke {
            source,
            kind,
            unbalanced,
            cap,
        })
    }
}

/// Byte ranges of the decimal integer literals in `text` that stand alone
/// (not part of an identifier or a floating-point literal).
fn integer_literals(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'.';
    let mut out = Vec::new();
    let mut i = 0;
    let mut in_string = false;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'"' && (i == 0 || bytes[i - 1] != b'\\') {
            in_string = !in_string;
        }
        if !in_string && b.is_ascii_digit() && (i == 0 || !word(bytes[i - 1])) {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i == bytes.len() || !word(bytes[i]) {
                out.push((start, i));
            }
            continue;
        }
        i += 1;
    }
    out
}

/// Replace one seeded integer literal with another small positive integer —
/// the "one token edit" of a keystroke. Array sizes and loop bounds may
/// change; the program stays well formed.
fn edit_one_literal(text: &str, rng: &mut Rng) -> String {
    let literals = integer_literals(text);
    if literals.is_empty() {
        return format!("{text}\n");
    }
    let (start, end) = literals[rng.below(literals.len())];
    let old = &text[start..end];
    let mut new = (2 + rng.below(97)).to_string();
    if new == old {
        new = "101".to_string();
    }
    format!("{}{}{}", &text[..start], new, &text[end..])
}

/// Lines of `text` where a call statement can be left open: they hold a `(`
/// and end a statement (control-flow headers are left alone).
fn call_lines(lines: &[&str]) -> Vec<usize> {
    (0..lines.len())
        .filter(|&i| {
            let line = lines[i].trim();
            line.contains('(')
                && line.ends_with(';')
                && !["for", "if", "while", "return"]
                    .iter()
                    .any(|kw| line.starts_with(kw))
        })
        .collect()
}

/// The cursor is inside a call whose arguments were just deleted: one seeded
/// statement line loses everything between its first `(` and the `;` —
/// `printf("%f\\n", x);` becomes `printf(;` — leaving the buffer unbalanced
/// with a token no expression can start with, so the parser has to skip.
/// Lines from the second half of the buffer are preferred (where a user is
/// typing).
fn open_one_call(text: &str, rng: &mut Rng) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let candidates = call_lines(&lines);
    if candidates.is_empty() {
        return format!("{text}foo(");
    }
    let late: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| i >= lines.len() / 2)
        .collect();
    let from = if late.is_empty() { &candidates } else { &late };
    let target = from[rng.below(from.len())];
    let mut out = String::with_capacity(text.len());
    for (i, line) in lines.iter().enumerate() {
        if i == target {
            let cut = line.find('(').expect("candidate lines hold a paren");
            out.push_str(&line[..=cut]);
            out.push(';');
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Bulk file stream (bulk_reindex, mixed_overload connection B)
// ---------------------------------------------------------------------------

/// Endless stream of whole files: the pool in seeded [`stratified_order`],
/// redrawn on every pass.
pub struct FileStream {
    rng: Rng,
    pool: Vec<String>,
    order: Vec<usize>,
    next: usize,
}

impl FileStream {
    pub fn new(pool: &[String], seed: u64) -> FileStream {
        let mut rng = Rng::new(seed ^ 0x6669_6c65);
        let order = stratified_order(pool, &mut rng);
        FileStream {
            rng,
            pool: pool.to_vec(),
            order,
            next: 0,
        }
    }
}

impl Iterator for FileStream {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        if self.next == self.order.len() {
            self.next = 0;
            self.order = stratified_order(&self.pool, &mut self.rng);
        }
        self.next += 1;
        Some(self.pool[self.order[self.next - 1]].clone())
    }
}

// ---------------------------------------------------------------------------
// Open-loop arrival schedule (mixed_overload)
// ---------------------------------------------------------------------------

/// Open-loop arrival offsets at `rate_per_s` over `window`: one arrival per
/// slot of `1 / rate`, placed uniformly at random in the first half of its
/// slot. The count is a pure function of the arguments and the gaps range from
/// half a slot to a slot and a half, so the generator's own backlog — one
/// blocking connection serves every arrival — stays out of the tail, which a
/// 20-second run could not settle behind Poisson bursts.
pub fn arrival_schedule(rate_per_s: f64, window: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::new(seed ^ 0x6172_7276);
    let slot = Duration::from_secs_f64(1.0 / rate_per_s);
    let n = (rate_per_s * window.as_secs_f64()).round() as u32;
    (0..n)
        .map(|i| slot * i + slot.mul_f64(rng.unit() / 2.0))
        .collect()
}

/// How late the generator sent a request that was due at `due`: zero when it
/// was sent on time or early (a generator never sends early, but clocks are
/// read twice).
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

// ---------------------------------------------------------------------------
// Hypothesis stream (verify_corpus)
// ---------------------------------------------------------------------------

/// Share of the hypothesis stream that is a recv-recv deadlock: one pair in
/// [`PAIRS_PER_BLOCK`]. An assumption about what a trained model emits, not a
/// measurement — recorded as such in the provenance block.
pub const DEADLOCK_PAIRS_PER_BLOCK: usize = 1;
/// Variants of each benchmark11 reference splice per block.
pub const REFERENCE_VARIANTS: usize = 5;
/// Variants of each non-deadlock fault class per block.
pub const FAULT_VARIANTS: usize = 2;
/// Every (base, hypothesis) pair recurs this many times (once per round), so
/// two thirds of the stream repeats an earlier pair — the headroom a verdict
/// cache would have.
pub const ROUNDS_PER_BLOCK: usize = 3;

/// One hypothesis handed to the verifier.
#[derive(Debug, Clone)]
pub struct Hypothesis {
    /// Stable label: program or fault-class name.
    pub kind: &'static str,
    /// Position of the pair in its block (rounds shuffle, this stays).
    pub slot: usize,
    pub base: Program,
    pub predicted: String,
    /// Numeric tolerance (wide for the rank-count-dependent programs).
    pub rel_tol: f64,
    pub expect: Verdict,
}

/// The benchmark's own copies of the fault classes (after
/// `tests/suggestion_verification.rs`): `(kind, expected verdict, source)`.
/// Every rank guard holds a plain statement *after* its MPI call: stripping
/// prunes a guard left empty and the line-based splice lands a block's last
/// call behind its closing brace, so without it the call ends up at top
/// level, where a rank blocked in a receive while its peer fails races the
/// abort wake-up (see the README's findings) and the verdict stops being a
/// function of the hypothesis.
const FAULTS: [(&str, Verdict, &str); 4] = [
    (
        "fault:type-mismatch",
        Verdict::TypeMismatch,
        "int main(int argc, char **argv) {\nint rank;\nint ival = 7;\ndouble dval = 0.0;\n\
         MPI_Init(&argc, &argv);\nMPI_Comm_rank(MPI_COMM_WORLD, &rank);\nif (rank == 0) {\n\
         MPI_Send(&ival, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);\nival = 8;\n}\nif (rank == 1) {\n\
         MPI_Recv(&dval, 1, MPI_DOUBLE, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);\ndval = 1.0;\n}\n\
         MPI_Finalize();\nreturn 0;\n}",
    ),
    (
        "fault:wrong-root",
        Verdict::RankCrash,
        "int main(int argc, char **argv) {\nint rank;\ndouble v = 1.0;\nMPI_Init(&argc, &argv);\n\
         MPI_Comm_rank(MPI_COMM_WORLD, &rank);\nMPI_Bcast(&v, 1, MPI_DOUBLE, 9, MPI_COMM_WORLD);\n\
         MPI_Finalize();\nreturn 0;\n}",
    ),
    (
        "fault:missing-reduction",
        Verdict::DivergedFromSerial,
        "int main(int argc, char **argv) {\nint rank, size, i;\ndouble local = 0.0;\n\
         MPI_Init(&argc, &argv);\nMPI_Comm_rank(MPI_COMM_WORLD, &rank);\n\
         MPI_Comm_size(MPI_COMM_WORLD, &size);\nfor (i = rank; i < 64; i += size) {\n\
         local += i + 1.0;\n}\nif (rank == 0) {\nprintf(\"sum = %.2f\\n\", local);\n}\n\
         MPI_Finalize();\nreturn 0;\n}",
    ),
    (
        "fault:runaway-loop",
        Verdict::Timeout,
        "int main(int argc, char **argv) {\nint rank;\nint x = 0;\nMPI_Init(&argc, &argv);\n\
         MPI_Comm_rank(MPI_COMM_WORLD, &rank);\nwhile (1) {\nx = x + 1;\n}\nMPI_Finalize();\n\
         return 0;\n}",
    ),
];

pub const DEADLOCK: &str = "int main(int argc, char **argv) {\nint rank;\nint x = 0;\n\
    MPI_Init(&argc, &argv);\nMPI_Comm_rank(MPI_COMM_WORLD, &rank);\nif (rank == 0) {\n\
    MPI_Recv(&x, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);\nx = 1;\n}\nif (rank == 1) {\n\
    MPI_Recv(&x, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);\nx = 2;\n}\nMPI_Finalize();\n\
    return 0;\n}";

/// A mid-edit base no splice can make executable.
const BROKEN_BASE: &str = "int main(int argc, char **argv) {\nint x = ;\nreturn 0;\n}";
const BROKEN_PREDICTED: &str =
    "int main(int argc, char **argv) {\nMPI_Init(&argc, &argv);\nint x = ;\nMPI_Finalize();\nreturn 0;\n}";

/// `source` with `int variant = <n>;` as the first statement of `main`, so
/// pairs with different `n` differ in their spliced AST (a verdict cache may
/// not conflate them) while behaving identically.
fn with_variant(source: &str, n: u64) -> String {
    let main = source.find("int main(").expect("programs define main");
    let brace = main + source[main..].find('{').expect("main has a body");
    format!(
        "{}\nint variant = {n};{}",
        &source[..=brace],
        &source[brace + 1..]
    )
}

/// A complete MPI program as a (serial base, predicted program) pair, built
/// the way the corpus pipeline builds training pairs: the prediction is the
/// canonical text, the base is the same program with its MPI calls stripped.
fn pair_from_program(source: &str) -> (Program, String) {
    let (canon_text, canon) = standardize(&parse_strict(source).expect("hypothesis sources parse"));
    let (_, base) = standardize(&remove_mpi_calls(&canon).stripped);
    (base, canon_text)
}

/// Pairs in one block: eleven references × variants, five fault classes ×
/// variants, and the deadlock.
pub const PAIRS_PER_BLOCK: usize =
    11 * REFERENCE_VARIANTS + 5 * FAULT_VARIANTS + DEADLOCK_PAIRS_PER_BLOCK;

/// Endless hypothesis stream in *rounds*: a block draws fresh variant
/// numbers for its [`PAIRS_PER_BLOCK`] pairs, then yields
/// [`ROUNDS_PER_BLOCK`] rounds, each a fresh shuffle of the same pairs. A
/// round therefore always holds the same mix of costs, whatever the seed.
pub struct HypothesisStream {
    rng: Rng,
    block: Vec<Hypothesis>,
    rounds_left: usize,
}

impl HypothesisStream {
    pub fn new(seed: u64) -> HypothesisStream {
        HypothesisStream {
            rng: Rng::new(seed ^ 0x6879_706f),
            block: Vec::new(),
            rounds_left: 0,
        }
    }

    fn push(&mut self, kind: &'static str, source: &str, rel_tol: f64, expect: Verdict) {
        let variant = 1 + self.rng.below(1_000_000) as u64;
        let (base, predicted) = pair_from_program(&with_variant(source, variant));
        self.block.push(Hypothesis {
            kind,
            slot: self.block.len(),
            base,
            predicted,
            rel_tol,
            expect,
        });
    }

    fn new_block(&mut self) {
        self.block.clear();
        for p in benchmark_programs() {
            let rel_tol = if p.deterministic_across_ranks {
                0.15
            } else {
                10.0
            };
            for _ in 0..REFERENCE_VARIANTS {
                self.push(p.name, p.source, rel_tol, Verdict::Verified);
            }
        }
        for (kind, expect, source) in FAULTS {
            for _ in 0..FAULT_VARIANTS {
                self.push(kind, source, 0.15, expect);
            }
        }
        for _ in 0..FAULT_VARIANTS {
            let variant = 1 + self.rng.below(1_000_000) as u64;
            self.block.push(Hypothesis {
                kind: "fault:not-executable",
                slot: self.block.len(),
                base: parse_tolerant(&with_variant(BROKEN_BASE, variant)).program,
                predicted: BROKEN_PREDICTED.to_string(),
                rel_tol: 0.15,
                expect: Verdict::NotExecutable,
            });
        }
        for _ in 0..DEADLOCK_PAIRS_PER_BLOCK {
            self.push(
                "fault:recv-recv-deadlock",
                DEADLOCK,
                0.15,
                Verdict::Deadlock,
            );
        }
        assert_eq!(self.block.len(), PAIRS_PER_BLOCK);
    }

    /// The next round: every pair of the current block once, shuffled.
    pub fn next_round(&mut self) -> Vec<Hypothesis> {
        if self.rounds_left == 0 {
            self.new_block();
            self.rounds_left = ROUNDS_PER_BLOCK;
        }
        self.rounds_left -= 1;
        let mut round = self.block.clone();
        self.rng.shuffle(&mut round);
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pool() -> Vec<String> {
        vec![
            "int main() {\nint n = 64;\nfoo(n, 3);\nreturn 0;\n}\n".to_string(),
            "int main() {\ndouble x = 1.5;\nint k = 7;\nk = bar(k);\nreturn k;\n}\n".to_string(),
        ]
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        let pool = tiny_pool();
        let a: Vec<Keystroke> = KeystrokeStream::new(&pool, 42).take(64).collect();
        let b: Vec<Keystroke> = KeystrokeStream::new(&pool, 42).take(64).collect();
        assert_eq!(a, b);
        let c: Vec<Keystroke> = KeystrokeStream::new(&pool, 43).take(64).collect();
        assert_ne!(a, c, "a different seed gives a different stream");
        let f: Vec<String> = FileStream::new(&pool, 42).take(9).collect();
        assert_eq!(f, FileStream::new(&pool, 42).take(9).collect::<Vec<_>>());
        assert_eq!(
            arrival_schedule(6.0, Duration::from_secs(10), 5),
            arrival_schedule(6.0, Duration::from_secs(10), 5)
        );
    }

    #[test]
    fn keystroke_shares_and_edit_shapes() {
        let pool = tiny_pool();
        let keys: Vec<Keystroke> = KeystrokeStream::new(&pool, 7).take(240).collect();
        let count = |k: EditKind| keys.iter().filter(|x| x.kind == k).count();
        assert_eq!(count(EditKind::Clean), 120);
        assert_eq!(count(EditKind::MidEdit), 60);
        assert_eq!(count(EditKind::Resubmit), 60);
        for cap in CAPS {
            assert_eq!(keys.iter().filter(|k| k.cap == cap).count(), 80);
        }
        for (i, w) in keys.windows(2).enumerate() {
            // The first keystroke in a file resubmits the file as opened.
            if w[1].kind == EditKind::Resubmit && (i + 1) % KEYS_PER_FILE != 0 {
                assert_eq!(w[1].source, w[0].source);
            }
            let opens = |s: &str| s.matches('(').count() as i64 - s.matches(')').count() as i64;
            assert_eq!(opens(&w[1].source), i64::from(w[1].unbalanced));
            match w[1].kind {
                EditKind::Clean => assert!(!w[1].unbalanced),
                EditKind::MidEdit => assert!(w[1].unbalanced),
                EditKind::Resubmit => {}
            }
        }
    }

    /// The premise of the mid-edit share: on every source of the real pool,
    /// every buffer the generator can leave open makes the tolerant parser
    /// report recovery events, and every clean edit stays clean.
    #[test]
    fn mid_edits_of_the_pool_need_recovery_and_clean_edits_do_not() {
        let pool = source_pool();
        assert!(pool.len() >= 40, "pool holds {} sources", pool.len());
        let mut rng = Rng::new(11);
        for source in &pool {
            assert!(parse_tolerant(source).health().is_clean());
            let lines: Vec<&str> = source.lines().collect();
            assert!(
                !call_lines(&lines).is_empty(),
                "no call statement in:\n{source}"
            );
            for _ in 0..4 {
                let open = open_one_call(source, &mut rng);
                let health = parse_tolerant(&open).health();
                assert!(health.recovery_events > 0, "{health:?} for:\n{open}");
                let edited = edit_one_literal(source, &mut rng);
                assert!(parse_tolerant(&edited).health().is_clean(), "{edited}");
            }
        }
    }

    #[test]
    fn every_hand_of_the_order_spans_the_size_classes() {
        let pool: Vec<String> = (1..=22).map(|n| "x".repeat(n * 10)).collect();
        let order = stratified_order(&pool, &mut Rng::new(5));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..22).collect::<Vec<_>>(),
            "a permutation of the pool"
        );
        // 22 sources: classes of 6, 6, 6 and 4; the first four hands hold one
        // source of each class.
        for hand in order.chunks(STRATA).take(4) {
            let mut classes: Vec<usize> = hand.iter().map(|i| i / 6).collect();
            classes.sort_unstable();
            assert_eq!(classes, [0, 1, 2, 3]);
        }
    }

    #[test]
    fn literal_edit_changes_exactly_one_integer() {
        let mut rng = Rng::new(1);
        let src = "int a[64];\ndouble x = 1.5;\nprintf(\"%d 7\\n\", v2);\n";
        assert_eq!(integer_literals(src), vec![(6, 8)]);
        let edited = edit_one_literal(src, &mut rng);
        assert_ne!(edited, src);
        assert_eq!(&edited[..6], &src[..6]);
        assert!(edited.ends_with(&src[8..]));
    }

    #[test]
    fn schedule_is_sorted_sized_and_inside_the_window() {
        let window = Duration::from_secs(20);
        let due = arrival_schedule(4.0, window, 9);
        assert_eq!(due.len(), 80);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|d| *d < window));
        let slot = Duration::from_millis(250);
        for (i, d) in due.iter().enumerate() {
            let start = slot * i as u32;
            assert!(
                *d >= start && *d < start + slot / 2,
                "first half of its own slot"
            );
        }
        assert_ne!(due, arrival_schedule(4.0, window, 10));
    }

    #[test]
    fn lateness_counts_only_delay() {
        let ms = Duration::from_millis;
        assert_eq!(lateness(ms(100), ms(130)), ms(30));
        assert_eq!(lateness(ms(100), ms(100)), ms(0));
        assert_eq!(lateness(ms(100), ms(90)), ms(0), "never negative");
    }

    #[test]
    fn rounds_repeat_pairs_three_times_then_renew() {
        let mut s = HypothesisStream::new(3);
        // A pair is identified by its predicted program (variant number inside).
        let ids = |r: &[Hypothesis]| {
            let mut v: Vec<String> = r.iter().map(|h| h.predicted.clone()).collect();
            v.sort_unstable();
            v
        };
        let r1 = s.next_round();
        let r2 = s.next_round();
        let r3 = s.next_round();
        let r4 = s.next_round();
        assert_eq!(r1.len(), PAIRS_PER_BLOCK);
        assert_eq!(ids(&r1), ids(&r2));
        assert_eq!(ids(&r1), ids(&r3));
        assert_ne!(ids(&r4), ids(&r1), "a new block draws new variants");
        let order = |r: &[Hypothesis]| r.iter().map(|h| h.predicted.clone()).collect::<Vec<_>>();
        assert_ne!(order(&r1), order(&r2), "each round is a fresh shuffle");
        let deadlocks = r1.iter().filter(|h| h.expect == Verdict::Deadlock).count();
        assert_eq!(deadlocks, DEADLOCK_PAIRS_PER_BLOCK);
    }
}

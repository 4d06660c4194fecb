//! Compile-time name resolution against the name lookup it replaced.
//!
//! `cinterp` used to find a variable by walking a chain of scopes at run
//! time; it now gives every declaration a slot before execution. This suite
//! keeps the old rule as an executable model — [`Model`], a scope chain over
//! a tiny language of `int` variables — generates programs that lean on
//! every corner of it (nested blocks, shadowing, `for`-init declarations,
//! declarations re-executed by loops, recursion, globals against parameters
//! and locals, globals declared below their readers, uses before the
//! declaration in the same block, names nobody declares in live and in dead
//! code), renders them as C, and requires the interpreter to print what the
//! model prints — or to fail with `Undefined` on the name the model fails on.

use mpirical_interp::{run_source, InterpError};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::Write;

// -- the language --------------------------------------------------------------

#[derive(Debug, Clone)]
enum Expr {
    Lit(i64),
    Var(&'static str),
    Add(Box<Expr>, Box<Expr>),
    /// Call of helper `f<index>`; the first argument is its recursion fuel.
    Call(usize, Vec<Expr>),
}

#[derive(Debug, Clone)]
enum Stmt {
    /// `int name;` or `int name = init;`
    Decl(&'static str, Option<Expr>),
    Assign(&'static str, Expr),
    /// `printf("name=%d\n", name);`
    Print(&'static str),
    Block(Vec<Stmt>),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `for (int var = 0; …)` when `declares`, else `for (var = 0; …)`.
    For {
        var: &'static str,
        declares: bool,
        count: i64,
        body: Vec<Stmt>,
    },
    Return(Expr),
}

#[derive(Debug, Clone)]
struct Function {
    /// `d` (the fuel) first, then these.
    params: Vec<&'static str>,
    body: Vec<Stmt>,
}

#[derive(Debug, Clone)]
struct Program {
    /// Globals declared above the functions, and below `main`.
    globals_above: Vec<(&'static str, Option<Expr>)>,
    globals_below: Vec<(&'static str, Option<Expr>)>,
    helpers: Vec<Function>,
    main: Vec<Stmt>,
}

/// Few names, so that they collide; `u` and `w` are never declared globally
/// and rarely locally.
const NAMES: [&str; 6] = ["a", "b", "c", "g", "u", "w"];

// -- generation ------------------------------------------------------------------

/// A stream of decisions drawn from the case's random words.
struct Dice<'a> {
    words: &'a [u32],
    at: usize,
    /// Statements left to hand out: bounds the program.
    fuel: usize,
    /// Names with a declaration textually in sight, roughly: most uses pick
    /// one of these, so that most programs get somewhere.
    declared: Vec<&'static str>,
}

impl Dice<'_> {
    fn roll(&mut self, sides: u32) -> u32 {
        let word = self.words[self.at % self.words.len()];
        self.at += 1;
        // Reusing the words on wrap-around must not repeat the decisions.
        let lap = (self.at / self.words.len()) as u32;
        word.wrapping_add(lap.wrapping_mul(0x9E37_79B9)) % sides
    }

    fn name(&mut self) -> &'static str {
        NAMES[self.roll(NAMES.len() as u32) as usize]
    }

    /// A name to read or assign: nine times in ten a declared one.
    fn used_name(&mut self) -> &'static str {
        if self.declared.is_empty() || self.roll(10) == 0 {
            return self.name();
        }
        let pick = self.roll(self.declared.len() as u32);
        self.declared[pick as usize]
    }

    fn declared_name(&mut self) -> &'static str {
        let name = self.name();
        self.declared.push(name);
        name
    }

    /// `fuel`: the expression a call passes as recursion fuel, if calls are
    /// allowed here at all.
    fn expr(&mut self, depth: u32, fuel: Option<&Expr>, helpers: usize) -> Expr {
        match self.roll(if depth == 0 { 2 } else { 5 }) {
            0 => Expr::Lit(self.roll(10) as i64),
            1 | 2 if self.declared.is_empty() => Expr::Lit(self.roll(10) as i64),
            1 | 2 => Expr::Var(self.used_name()),
            3 => Expr::Add(
                Box::new(self.expr(depth - 1, fuel, helpers)),
                Box::new(self.expr(depth - 1, fuel, helpers)),
            ),
            _ => match fuel {
                Some(fuel_expr) if helpers > 0 => {
                    let callee = self.roll(helpers as u32) as usize;
                    let mut args = vec![fuel_expr.clone()];
                    for _ in 0..PARAMS[callee].len() {
                        args.push(self.expr(depth - 1, None, helpers));
                    }
                    Expr::Call(callee, args)
                }
                _ => Expr::Var(self.used_name()),
            },
        }
    }

    fn stmts(&mut self, depth: u32, fuel: &Expr, helpers: usize, in_helper: bool) -> Vec<Stmt> {
        let n = 1 + self.roll(4);
        let outer = self.declared.len();
        let stmts = (0..n)
            .filter_map(|_| self.stmt(depth, fuel, helpers, in_helper))
            .collect();
        self.declared.truncate(outer);
        stmts
    }

    fn stmt(&mut self, depth: u32, fuel: &Expr, helpers: usize, in_helper: bool) -> Option<Stmt> {
        if self.fuel == 0 {
            return None;
        }
        self.fuel -= 1;
        let compound = if depth == 0 { 0 } else { 4 };
        Some(match self.roll(8 + compound) {
            0 | 1 => {
                let init = (self.roll(3) > 0).then(|| self.expr(2, Some(fuel), helpers));
                Stmt::Decl(self.declared_name(), init)
            }
            2 | 3 => Stmt::Assign(self.used_name(), self.expr(2, Some(fuel), helpers)),
            4..=6 => Stmt::Print(self.used_name()),
            7 if in_helper => Stmt::Return(self.expr(2, Some(fuel), helpers)),
            7 => Stmt::Print(self.used_name()),
            8 => Stmt::Block(self.stmts(depth - 1, fuel, helpers, in_helper)),
            9 => Stmt::If(
                // Literal conditions make dead branches; variables, live ones.
                if self.roll(2) == 0 {
                    Expr::Lit(self.roll(2) as i64)
                } else {
                    self.expr(1, None, helpers)
                },
                self.stmts(depth - 1, fuel, helpers, in_helper),
                self.stmts(depth - 1, fuel, helpers, in_helper),
            ),
            _ => {
                let declares = self.roll(2) == 0;
                let outer = self.declared.len();
                let var = if declares {
                    self.declared_name()
                } else {
                    self.used_name()
                };
                let count = self.roll(3) as i64;
                let body = self.stmts(depth - 1, fuel, helpers, in_helper);
                self.declared.truncate(outer);
                Stmt::For {
                    var,
                    declares,
                    count,
                    body,
                }
            }
        })
    }
}

/// Parameters (after the fuel) of the two helpers.
const PARAMS: [&[&str]; 2] = [&["a"], &["g", "b"]];

fn generate(words: &[u32]) -> Program {
    let mut dice = Dice {
        words,
        at: 0,
        fuel: 40,
        declared: Vec::new(),
    };
    let helpers = dice.roll(3) as usize;
    let globals = |dice: &mut Dice, at_least: u32| -> Vec<(&'static str, Option<Expr>)> {
        (0..at_least + dice.roll(3))
            .map(|_| {
                // Initialisers read other globals (now and then one not
                // declared yet) and, rarely, call helpers (which read
                // globals in their turn, initialised or not).
                let init = (dice.roll(3) > 0).then(|| {
                    let fuel = (dice.roll(6) == 0).then_some(Expr::Lit(1));
                    let depth = u32::from(!dice.declared.is_empty());
                    dice.expr(depth, fuel.as_ref(), helpers)
                });
                let name = NAMES[dice.roll(4) as usize];
                dice.declared.push(name);
                (name, init)
            })
            .collect()
    };
    let globals_above = globals(&mut dice, 1);
    let globals_below = globals(&mut dice, 0);
    // A helper passes on one unit of fuel less than it got.
    let less_fuel = Expr::Add(Box::new(Expr::Var("d")), Box::new(Expr::Lit(-1)));
    let helpers = (0..helpers)
        .map(|h| {
            let globals = dice.declared.len();
            dice.declared.extend(PARAMS[h]);
            let body = dice.stmts(2, &less_fuel, helpers, true);
            dice.declared.truncate(globals);
            Function {
                params: PARAMS[h].to_vec(),
                body,
            }
        })
        .collect::<Vec<_>>();
    let main = dice.stmts(3, &Expr::Lit(2), helpers.len(), false);
    Program {
        globals_above,
        globals_below,
        helpers,
        main,
    }
}

// -- rendering as C ----------------------------------------------------------------

fn render_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Lit(v) if *v < 0 => write!(out, "({v})").unwrap(),
        Expr::Lit(v) => write!(out, "{v}").unwrap(),
        Expr::Var(name) => out.push_str(name),
        Expr::Add(l, r) => {
            out.push('(');
            render_expr(l, out);
            out.push_str(" + ");
            render_expr(r, out);
            out.push(')');
        }
        Expr::Call(callee, args) => {
            write!(out, "f{callee}(").unwrap();
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(a, out);
            }
            out.push(')');
        }
    }
}

fn render_decl(name: &str, init: &Option<Expr>, out: &mut String) {
    write!(out, "int {name}").unwrap();
    if let Some(e) = init {
        out.push_str(" = ");
        render_expr(e, out);
    }
    out.push_str(";\n");
}

fn render_block(stmts: &[Stmt], out: &mut String) {
    out.push_str("{\n");
    for s in stmts {
        render_stmt(s, out);
    }
    out.push_str("}\n");
}

fn render_stmt(s: &Stmt, out: &mut String) {
    match s {
        Stmt::Decl(name, init) => render_decl(name, init, out),
        Stmt::Assign(name, e) => {
            write!(out, "{name} = ").unwrap();
            render_expr(e, out);
            out.push_str(";\n");
        }
        Stmt::Print(name) => writeln!(out, "printf(\"{name}=%d\\n\", {name});").unwrap(),
        Stmt::Block(stmts) => render_block(stmts, out),
        Stmt::If(cond, then_branch, else_branch) => {
            out.push_str("if (");
            render_expr(cond, out);
            out.push_str(") ");
            render_block(then_branch, out);
            out.push_str("else ");
            render_block(else_branch, out);
        }
        Stmt::For {
            var,
            declares,
            count,
            body,
        } => {
            let ty = if *declares { "int " } else { "" };
            write!(out, "for ({ty}{var} = 0; {var} < {count}; {var}++) ").unwrap();
            render_block(body, out);
        }
        Stmt::Return(e) => {
            out.push_str("return ");
            render_expr(e, out);
            out.push_str(";\n");
        }
    }
}

fn render(p: &Program) -> String {
    let mut out = String::new();
    for (name, init) in &p.globals_above {
        render_decl(name, init, &mut out);
    }
    for (h, f) in p.helpers.iter().enumerate() {
        write!(out, "int f{h}(int d").unwrap();
        for param in &f.params {
            write!(out, ", int {param}").unwrap();
        }
        out.push_str(") {\nif (d <= 0) { return 1; }\n");
        for s in &f.body {
            render_stmt(s, &mut out);
        }
        out.push_str("}\n");
    }
    out.push_str("int main() ");
    render_block(&p.main, &mut out);
    for (name, init) in &p.globals_below {
        render_decl(name, init, &mut out);
    }
    out
}

// -- the model: a scope chain searched by name at run time -------------------------

/// Why the model stopped early.
enum Stop {
    Undefined(&'static str),
    Return(i64),
    /// A loop body reset its own counter: the program never ends.
    Runaway,
}

struct Model<'p> {
    program: &'p Program,
    /// Index 0 is the global scope.
    scopes: Vec<HashMap<&'static str, usize>>,
    /// Scope count at entry of each active call: what lies below the
    /// innermost is invisible, except the globals.
    frames: Vec<usize>,
    cells: Vec<i64>,
    output: String,
    /// Loop iterations left before the program counts as a runaway.
    iterations: u32,
}

impl Model<'_> {
    fn lookup(&self, name: &'static str) -> Result<usize, Stop> {
        let floor = self.frames.last().copied().unwrap_or(1);
        self.scopes[floor..]
            .iter()
            .rev()
            .chain(&self.scopes[..1])
            .find_map(|scope| scope.get(name).copied())
            .ok_or(Stop::Undefined(name))
    }

    fn declare(&mut self, name: &'static str, init: &Option<Expr>) -> Result<(), Stop> {
        // The new variable is in scope in its own initialiser.
        self.cells.push(0);
        let cell = self.cells.len() - 1;
        self.scopes.last_mut().unwrap().insert(name, cell);
        if let Some(e) = init {
            self.cells[cell] = self.eval(e)?;
        }
        Ok(())
    }

    fn eval(&mut self, e: &Expr) -> Result<i64, Stop> {
        Ok(match e {
            Expr::Lit(v) => *v,
            Expr::Var(name) => self.cells[self.lookup(name)?],
            Expr::Add(l, r) => {
                let l = self.eval(l)?;
                l.wrapping_add(self.eval(r)?)
            }
            Expr::Call(callee, args) => {
                let mut values = Vec::new();
                for a in args {
                    values.push(self.eval(a)?);
                }
                let f = &self.program.helpers[*callee];
                self.frames.push(self.scopes.len());
                self.scopes.push(HashMap::new());
                for (name, v) in std::iter::once(&"d").chain(&f.params).zip(&values) {
                    self.cells.push(*v);
                    let cell = self.cells.len() - 1;
                    self.scopes.last_mut().unwrap().insert(name, cell);
                }
                let result = if values[0] <= 0 {
                    Ok(1)
                } else {
                    match self.block(&f.body) {
                        Ok(()) => Ok(0),
                        Err(Stop::Return(v)) => Ok(v),
                        Err(stop) => Err(stop),
                    }
                };
                let floor = self.frames.pop().unwrap();
                self.scopes.truncate(floor);
                result?
            }
        })
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), Stop> {
        self.scopes.push(HashMap::new());
        let result = stmts.iter().try_for_each(|s| self.exec(s));
        self.scopes.pop();
        result
    }

    fn exec(&mut self, s: &Stmt) -> Result<(), Stop> {
        match s {
            Stmt::Decl(name, init) => self.declare(name, init),
            Stmt::Assign(name, e) => {
                // Right-hand side first, then the target.
                let v = self.eval(e)?;
                let cell = self.lookup(name)?;
                self.cells[cell] = v;
                Ok(())
            }
            Stmt::Print(name) => {
                let v = self.cells[self.lookup(name)?];
                writeln!(self.output, "{name}={v}").unwrap();
                Ok(())
            }
            Stmt::Block(stmts) => self.block(stmts),
            Stmt::If(cond, then_branch, else_branch) => {
                if self.eval(cond)? != 0 {
                    self.block(then_branch)
                } else {
                    self.block(else_branch)
                }
            }
            Stmt::For {
                var,
                declares,
                count,
                body,
            } => {
                self.scopes.push(HashMap::new());
                let result = (|| {
                    if *declares {
                        self.declare(var, &Some(Expr::Lit(0)))?;
                    } else {
                        let cell = self.lookup(var)?;
                        self.cells[cell] = 0;
                    }
                    while self.cells[self.lookup(var)?] < *count {
                        self.iterations = self.iterations.checked_sub(1).ok_or(Stop::Runaway)?;
                        self.block(body)?;
                        let cell = self.lookup(var)?;
                        self.cells[cell] = self.cells[cell].wrapping_add(1);
                    }
                    Ok(())
                })();
                self.scopes.pop();
                result
            }
            Stmt::Return(e) => Err(Stop::Return(self.eval(e)?)),
        }
    }
}

/// What the program prints, or the name it dies on; `None` for a program
/// that does not terminate.
fn model(p: &Program) -> Option<Result<String, &'static str>> {
    let mut m = Model {
        program: p,
        scopes: vec![HashMap::new()],
        frames: Vec::new(),
        cells: Vec::new(),
        output: String::new(),
        iterations: 10_000,
    };
    let run = |m: &mut Model| -> Result<(), Stop> {
        // Every global is initialised before `main`, wherever it stands.
        for (name, init) in p.globals_above.iter().chain(&p.globals_below) {
            m.declare(name, init)?;
        }
        m.frames.push(m.scopes.len());
        m.scopes.push(HashMap::new());
        m.block(&p.main)
    };
    match run(&mut m) {
        Ok(()) | Err(Stop::Return(_)) => Some(Ok(m.output)),
        Err(Stop::Undefined(name)) => Some(Err(name)),
        Err(Stop::Runaway) => None,
    }
}

fn interpreter(src: &str) -> Result<String, String> {
    match run_source(src, 1) {
        Ok(out) => Ok(out.rank_outputs[0].clone()),
        Err(InterpError::Undefined { name, .. }) => Err(name),
        Err(other) => panic!("unexpected failure: {other}\n{src}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn slots_resolve_like_the_name_chain(
        words in proptest::collection::vec(any::<u32>(), 24..96),
    ) {
        let program = generate(&words);
        if let Some(want) = model(&program) {
            let src = render(&program);
            prop_assert_eq!(interpreter(&src), want.map_err(str::to_string), "\n{}", src);
        }
    }
}

#[test]
fn the_generator_reaches_the_corners_it_is_for() {
    // A property over programs that all happen to be trivial proves
    // nothing: over a fixed sample, both outcomes must be common, and
    // shadowing, recursion and loop-local declarations must occur.
    let mut rng = proptest::new_rng(7);
    let strategy = proptest::collection::vec(any::<u32>(), 24..96);
    let (mut printed, mut undefined, mut calls, mut loops) = (0, 0, 0, 0);
    for _ in 0..200 {
        let program = generate(&strategy.generate(&mut rng));
        let src = render(&program);
        match model(&program) {
            Some(Ok(out)) if !out.is_empty() => printed += 1,
            Some(Err(_)) => undefined += 1,
            _ => {}
        }
        calls += usize::from(src.contains("= f0(") || src.contains("+ f0("));
        loops += usize::from(src.contains("for (int "));
    }
    assert!(printed >= 40, "programs that print: {printed}/200");
    assert!(
        undefined >= 40,
        "programs that hit an undefined name: {undefined}/200"
    );
    assert!(calls >= 40, "programs with helper calls: {calls}/200");
    assert!(
        loops >= 40,
        "programs with for-init declarations: {loops}/200"
    );
}

// -- hand-written corners ------------------------------------------------------------

#[test]
fn a_use_before_the_declaration_sees_the_outer_variable() {
    let src = r#"int x = 1;
    int main() {
        int k;
        for (k = 0; k < 2; k++) {
            printf("%d ", x);
            int x = 10 + k;
            printf("%d ", x);
        }
        return 0;
    }"#;
    assert_eq!(interpreter(src).unwrap(), "1 10 1 11 ");
}

#[test]
fn a_callee_sees_globals_and_its_own_locals_but_not_its_callers() {
    let src = r#"int g = 5;
    int inner() { return g + hidden; }
    int outer() { int hidden = 100; int g = 7; return inner(); }
    int main() { printf("%d", outer()); return 0; }"#;
    assert_eq!(interpreter(src), Err("hidden".to_string()));
}

#[test]
fn an_undefined_name_in_dead_code_is_not_an_error() {
    let src = r#"int main() {
        int x = 2;
        if (x > 5) { printf("%d", nobody); nowhere = 1; }
        printf("%d", x);
        return 0;
    }"#;
    assert_eq!(interpreter(src).unwrap(), "2");
}

#[test]
fn a_declaration_as_a_bare_branch_ends_with_the_branch() {
    // Not C (a declaration is not a statement), but the parser takes it.
    // C99 6.8.4 makes each branch a block of its own; the name lookup this
    // interpreter used to do leaked the declaration into the enclosing
    // block instead.
    let src = "int main() { if (1) int x = 5; printf(\"%d\", x); return 0; }";
    assert_eq!(interpreter(src), Err("x".to_string()));
}

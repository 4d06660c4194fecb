//! The lowering pass: checked AST → slot-resolved IR → flat code.
//!
//! [`compile`] walks a [`Program`] once and decides everything that does
//! not depend on run-time values, so that the interpreter
//! ([`crate::interp`]) never sees a name:
//!
//! * **Variables.** Every declaration gets a [`Slot`] — global, or local to
//!   its function's frame — and every identifier becomes the slot C's
//!   scoping rules pick at that point of the text: innermost enclosing
//!   block first, declarations visible only *after* they appear, a callee
//!   seeing its own locals and the globals but never its caller's locals.
//!   Well-known constants (`NULL`, `RAND_MAX`, `MPI_COMM_WORLD`, …) become
//!   literals.
//! * **Callees.** Each call site is a user function (by index; a user
//!   definition wins over a builtin of the same name), a stdlib builtin, a
//!   `<math.h>` function or an MPI binding with its arguments already
//!   sorted into buffers, counts, datatypes, ranks and statuses.
//! * **Types.** Declarations, parameters, casts and `sizeof` carry their
//!   [`CType`] and pointer-ness instead of re-deriving them from type words.
//! * **Frame depth.** Each function records the static depth of one
//!   activation (`Function::levels`), which the interpreter sums over the
//!   calls in progress against [`MAX_LEVELS`](crate::MAX_LEVELS).
//!
//! The pass is infallible. What is wrong with a program — a name that
//! resolves to nothing, a call with too few arguments, an assignment to a
//! non-lvalue, an unparsed region — is only wrong *if it runs*: dead code
//! in a model-generated program must not fail the live code around it, and
//! the verifier classifies run-time errors, not compile-time ones. Such a
//! construct lowers to a node (`Expr::Raise`, `Stmt::Raise`, an unresolved
//! `VarRef`) that raises its [`InterpError`] when executed. The one thing
//! no slot can know statically is whether a *global* has been initialised
//! yet (an initialiser may call a function that reads a global declared
//! further down), so an unbound global slot raises `Undefined` at run time
//! as well.
//!
//! The IR keeps the tree's shape — statements, blocks, expressions — and
//! lives only while its function is lowered: `code.rs` emits each
//! function's flat code from it.

use crate::builtins::{MathFn, RAND_MAX};
use crate::code::{Code, Emit};
use crate::error::InterpError;
use crate::machine::{CType, Slot, Value};
use mpirical_cparse as ast;
use mpirical_cparse::{BinOp, Item, Program, UnOp};
use mpirical_sim::ReduceOp;
use std::collections::HashMap;

/// A program lowered by [`compile`]: immutable, shared by every rank of
/// every world that runs it.
#[derive(Debug)]
pub struct Compiled {
    /// The flat code of the globals, `main`'s entry and every function.
    pub(crate) code: Code,
    pub(crate) main: Option<u32>,
    /// Identifiers, for `Undefined` errors: by name id.
    pub(crate) names: Vec<Box<str>>,
    /// The name id of each global slot.
    pub(crate) global_names: Vec<u32>,
}

impl Compiled {
    /// The identifier `v` was written as, where `func` is the running
    /// function (whose slots a local `v` indexes).
    pub(crate) fn name(&self, v: VarRef, func: Option<usize>) -> &str {
        let id = match v.slot() {
            None => v.0 & !VarRef::UNRESOLVED,
            Some(Slot::Global(i)) => self.global_names[i as usize],
            Some(Slot::Local(i)) => {
                let func = func.expect("a local is read inside a call");
                self.code.functions[func].local_names[i as usize]
            }
        };
        &self.names[id as usize]
    }
}

/// An identifier after resolution, packed in one word so that an op can
/// carry two: a global or local [`Slot`], or — for a name no declaration is
/// in scope for, which is `Undefined` when executed — the name's id. A
/// slot's name is its declaration's ([`Compiled::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VarRef(u32);

impl VarRef {
    const GLOBAL: u32 = 1 << 31;
    const UNRESOLVED: u32 = 1 << 30;

    fn to(slot: Slot) -> VarRef {
        match slot {
            Slot::Global(i) => VarRef(i | VarRef::GLOBAL),
            Slot::Local(i) => VarRef(i),
        }
    }

    #[inline]
    pub fn slot(self) -> Option<Slot> {
        if self.0 & VarRef::GLOBAL != 0 {
            Some(Slot::Global(self.0 & !VarRef::GLOBAL))
        } else if self.0 & VarRef::UNRESOLVED != 0 {
            None
        } else {
            Some(Slot::Local(self.0))
        }
    }
}

#[derive(Debug)]
pub(crate) struct Function {
    pub params: Vec<Param>,
    pub body: Block,
    /// The name id of each local slot of one activation.
    pub local_names: Vec<u32>,
    /// The static depth of one activation, its callees not counted: the
    /// most nested levels open at once, one per statement, block, interior
    /// expression, lvalue, declaration and initializer level, with a call
    /// weighted 3, a `printf` 2 and an MPI call 7 (the Rust frames the tree
    /// walker spent on each). Leaves and expression statements count
    /// nothing. The interpreter sums this over the calls in progress
    /// against [`MAX_LEVELS`](crate::MAX_LEVELS).
    pub levels: usize,
    pub line: u32,
}

#[derive(Debug)]
pub(crate) struct Param {
    pub var: VarRef,
    pub ctype: CType,
    pub is_pointer: bool,
}

#[derive(Debug)]
pub(crate) struct Block {
    pub stmts: Vec<Stmt>,
}

#[derive(Debug)]
pub(crate) enum Stmt {
    Decl(Decl),
    Expr(Option<Expr>),
    If {
        cond: Expr,
        then_branch: Box<Stmt>,
        else_branch: Option<Box<Stmt>>,
    },
    While {
        cond: Expr,
        body: Box<Stmt>,
    },
    DoWhile {
        body: Box<Stmt>,
        cond: Expr,
    },
    For {
        init: ForInit,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    Block(Block),
    /// An unparsed region: fails when reached.
    Raise(Box<InterpError>),
}

#[derive(Debug)]
pub(crate) enum ForInit {
    None,
    Decl(Decl),
    Expr(Expr),
}

#[derive(Debug)]
pub(crate) struct Decl {
    pub ctype: CType,
    pub declarators: Vec<Declarator>,
    pub line: u32,
}

#[derive(Debug)]
pub(crate) struct Declarator {
    pub var: VarRef,
    pub is_pointer: bool,
    /// Array dimensions; `None` is an unsized `[]`.
    pub dims: Vec<Option<Expr>>,
    pub init: Option<Init>,
}

#[derive(Debug)]
pub(crate) enum Init {
    Expr(Expr),
    List(Vec<Init>),
}

#[derive(Debug)]
pub(crate) enum Expr {
    Const(Value),
    Var(VarRef),
    /// Rvalue of a subscript or member access.
    Load(Box<Lvalue>),
    AddrOf(Box<Lvalue>),
    IncDec {
        target: Box<Lvalue>,
        delta: i64,
        /// Postfix: the value is the old one.
        post: bool,
    },
    Deref(Box<Expr>),
    Neg(Box<Expr>),
    Not(Box<Expr>),
    BitNot(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    /// Any binary operator but the short-circuit two.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Assign {
        /// The operator of a compound assignment.
        op: Option<BinOp>,
        target: Box<Lvalue>,
        rhs: Box<Expr>,
    },
    /// Arithmetic cast (a pointer cast is its operand).
    Cast {
        to_float: bool,
        operand: Box<Expr>,
    },
    Ternary {
        cond: Box<Expr>,
        then_expr: Box<Expr>,
        else_expr: Box<Expr>,
    },
    Comma(Box<Expr>, Box<Expr>),
    Call(Box<Call>),
    Printf(Box<Printf>),
    Mpi(Box<MpiCall>),
    /// Fails with this error when evaluated.
    Raise(Box<InterpError>),
}

/// An assignable location.
#[derive(Debug)]
pub(crate) enum Lvalue {
    Var(VarRef),
    Index {
        base: Box<Lvalue>,
        index: Expr,
    },
    Deref {
        ptr: Expr,
        /// `*p` of a plain variable `p` takes its element type from `p`.
        pointee: Option<VarRef>,
    },
    Member {
        base: Box<Lvalue>,
        /// Cell offset of the field inside `MPI_Status`.
        offset: usize,
    },
    /// Not an lvalue: fails when evaluated.
    Raise(Box<InterpError>),
}

#[derive(Debug)]
pub(crate) struct Call {
    pub callee: Callee,
    /// Exactly the arguments the callee evaluates, in order.
    pub args: Vec<Expr>,
    pub line: u32,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Callee {
    /// Index into [`Compiled::functions`]; `args` matches its parameters.
    User(u32),
    Math(MathFn),
    Srand,
    Rand,
    Abs,
    Exit,
    /// `malloc`, sized in elements of this type (`(T *)malloc(n)`).
    Malloc(CType),
}

#[derive(Debug)]
pub(crate) struct Printf {
    pub fmt: Box<str>,
    pub args: Vec<PrintfOperand>,
    pub line: u32,
}

#[derive(Debug)]
pub(crate) enum PrintfOperand {
    Str(Box<str>),
    Value(Expr),
}

/// MPI datatype selector from `MPI_INT`-style identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MpiDtype {
    Int,
    Long,
    Float,
    Double,
    Byte,
}

/// An argument MPI takes as a named constant: the constant, or the error
/// that naming anything else raises once the call gets that far.
pub(crate) type Named<T> = Result<T, Box<InterpError>>;

#[derive(Debug)]
pub(crate) struct MpiCall {
    pub op: Mpi,
    pub line: u32,
}

/// The five leading arguments of a point-to-point call: `buf, count,
/// datatype, peer, tag` — the peer is the destination of a send and the
/// source (possibly `MPI_ANY_SOURCE`) of a receive.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub buf: Expr,
    pub count: Expr,
    pub dtype: Named<MpiDtype>,
    pub peer: Expr,
    pub tag: Expr,
}

/// An MPI binding with its arguments sorted by role. `Option` fields are
/// arguments the binding tolerates missing (or `MPI_STATUS_IGNORE`).
#[derive(Debug)]
pub(crate) enum Mpi {
    /// `MPI_Init`, `MPI_Finalize`, …: succeeds, evaluates nothing.
    Nop,
    CommRank(Expr),
    CommSize(Expr),
    Wtime,
    Barrier,
    Abort(Expr),
    Send(Envelope),
    Isend {
        send: Envelope,
        request: Option<Expr>,
    },
    Recv {
        recv: Envelope,
        status: Option<Expr>,
    },
    Irecv {
        recv: Envelope,
        request: Option<Expr>,
    },
    Wait {
        status: Option<Expr>,
    },
    Sendrecv {
        send: Envelope,
        recv: Envelope,
        status: Option<Expr>,
    },
    Bcast {
        buf: Expr,
        count: Expr,
        dtype: Named<MpiDtype>,
        root: Expr,
    },
    Reduce {
        send: Expr,
        recv: Expr,
        count: Expr,
        dtype: Named<MpiDtype>,
        op: Named<ReduceOp>,
        /// `None`: `MPI_Allreduce`.
        root: Option<Expr>,
    },
    Gather {
        send: Expr,
        count: Expr,
        dtype: Named<MpiDtype>,
        recv: Expr,
        /// `None`: `MPI_Allgather`.
        root: Option<Expr>,
    },
    Scatter {
        send: Expr,
        count: Expr,
        dtype: Named<MpiDtype>,
        recv: Expr,
        recv_count: Expr,
        root: Expr,
    },
}

/// Lower a program. Never fails: see the module docs for what becomes of
/// the constructs that cannot run.
pub fn compile(prog: &Program) -> Compiled {
    let mut lower = Lower::default();
    // Like the globals, all functions are known before any body is lowered;
    // of two definitions with one name the later wins.
    for (index, f) in prog.functions().enumerate() {
        lower
            .funcs
            .insert(f.name.as_str(), (index as u32, f.params.len()));
    }
    // A function may read a global declared below it, so every global has
    // its slot before the first body is lowered.
    let global_decls = || {
        prog.items.iter().filter_map(|item| match item {
            Item::Declaration(d) => Some(d),
            _ => None,
        })
    };
    for d in global_decls() {
        for decl in &d.declarators {
            lower.declare(&decl.name);
        }
    }
    let globals: Vec<Decl> = global_decls().map(|d| lower.declaration(d)).collect();
    let mut emit = Emit::default();
    emit.globals(&globals);
    for f in prog.functions() {
        emit.function(lower.function(f));
    }
    Compiled {
        code: emit.finish(),
        main: lower.funcs.get("main").map(|&(index, _)| index),
        names: lower.names,
        global_names: lower.global_names,
    }
}

#[derive(Default)]
struct Lower<'a> {
    /// Function name → (index, parameter count).
    funcs: HashMap<&'a str, (u32, usize)>,
    globals: HashMap<&'a str, u32>,
    names: Vec<Box<str>>,
    name_ids: HashMap<&'a str, u32>,
    /// Block scopes of the function being lowered, innermost last; empty
    /// while lowering global declarations.
    scopes: Vec<HashMap<&'a str, u32>>,
    /// The name id of each local slot handed out in that function so far.
    local_names: Vec<u32>,
    /// The name id of each global slot.
    global_names: Vec<u32>,
    /// Levels open at the node being lowered, and the most seen in the
    /// function so far (see [`Function::levels`]).
    open: usize,
    deepest: usize,
}

fn raise(e: InterpError) -> Expr {
    Expr::Raise(Box::new(e))
}

fn too_few_arguments(name: &str, reads: usize, have: usize, line: u32) -> InterpError {
    InterpError::TypeError {
        detail: format!("{name} needs {reads} argument(s), got {have}"),
        line,
    }
}

/// The error of a call that lacks one of the arguments it `needs` (listed in
/// the order the binding reads them).
fn missing_argument(name: &str, needs: &[usize], have: usize, line: u32) -> Option<InterpError> {
    let index = needs.iter().find(|&&i| i >= have)?;
    Some(InterpError::TypeError {
        detail: format!("{name}: missing argument {index}"),
        line,
    })
}

fn dtype_of(e: &ast::Expr, line: u32) -> Named<MpiDtype> {
    match e {
        ast::Expr::Ident(name) => Ok(match name.as_str() {
            "MPI_INT" => MpiDtype::Int,
            "MPI_LONG" | "MPI_LONG_LONG" | "MPI_LONG_LONG_INT" => MpiDtype::Long,
            "MPI_FLOAT" => MpiDtype::Float,
            "MPI_DOUBLE" => MpiDtype::Double,
            "MPI_CHAR" | "MPI_BYTE" | "MPI_UNSIGNED_CHAR" => MpiDtype::Byte,
            other => {
                return Err(Box::new(InterpError::Unsupported {
                    detail: format!("MPI datatype {other}"),
                    line,
                }))
            }
        }),
        _ => Err(Box::new(InterpError::TypeError {
            detail: "expected an MPI datatype constant".into(),
            line,
        })),
    }
}

fn op_of(e: &ast::Expr, line: u32) -> Named<ReduceOp> {
    match e {
        ast::Expr::Ident(name) => Ok(match name.as_str() {
            "MPI_SUM" => ReduceOp::Sum,
            "MPI_PROD" => ReduceOp::Prod,
            "MPI_MIN" => ReduceOp::Min,
            "MPI_MAX" => ReduceOp::Max,
            other => {
                return Err(Box::new(InterpError::Unsupported {
                    detail: format!("MPI op {other}"),
                    line,
                }))
            }
        }),
        _ => Err(Box::new(InterpError::TypeError {
            detail: "expected an MPI_Op constant".into(),
            line,
        })),
    }
}

impl<'a> Lower<'a> {
    fn name_id(&mut self, name: &'a str) -> u32 {
        *self.name_ids.entry(name).or_insert_with(|| {
            self.names.push(name.into());
            self.names.len() as u32 - 1
        })
    }

    /// The slot of a declaration of `name` in the innermost scope. Declaring
    /// a name twice in one scope rebinds the same slot.
    fn declare(&mut self, name: &'a str) -> VarRef {
        let id = self.name_id(name);
        let slot = match self.scopes.last_mut() {
            Some(scope) => Slot::Local(*scope.entry(name).or_insert_with(|| {
                self.local_names.push(id);
                self.local_names.len() as u32 - 1
            })),
            None => {
                let next = self.globals.len() as u32;
                Slot::Global(*self.globals.entry(name).or_insert_with(|| {
                    self.global_names.push(id);
                    next
                }))
            }
        };
        VarRef::to(slot)
    }

    /// What `name` means here: the innermost declaration already seen in an
    /// enclosing block of this function, else the global, else nothing.
    fn resolve(&mut self, name: &'a str) -> VarRef {
        let local = self.scopes.iter().rev().find_map(|scope| scope.get(name));
        let slot = match local {
            Some(&i) => Some(Slot::Local(i)),
            None => self.globals.get(name).map(|&i| Slot::Global(i)),
        };
        match slot {
            Some(slot) => VarRef::to(slot),
            None => VarRef(self.name_id(name) | VarRef::UNRESOLVED),
        }
    }

    fn scoped<T>(&mut self, lower: impl FnOnce(&mut Self) -> T) -> T {
        self.scopes.push(HashMap::new());
        let out = lower(self);
        self.scopes.pop();
        out
    }

    /// Lower with `levels` more levels open (see [`Function::levels`]).
    fn nested<T>(&mut self, levels: usize, lower: impl FnOnce(&mut Self) -> T) -> T {
        self.open += levels;
        self.deepest = self.deepest.max(self.open);
        let out = lower(self);
        self.open -= levels;
        out
    }

    fn function(&mut self, f: &'a ast::FunctionDef) -> Function {
        self.deepest = 0;
        // Parameters live in a scope of their own around the body block.
        let (params, body) = self.scoped(|this| {
            let params = f
                .params
                .iter()
                .map(|p| Param {
                    var: this.declare(&p.name),
                    ctype: CType::from_words(&p.type_spec.words),
                    is_pointer: p.pointer_depth > 0 || p.array,
                })
                .collect();
            (params, this.nested(1, |this| this.block(&f.body)))
        });
        let local_names = std::mem::take(&mut self.local_names);
        Function {
            params,
            body,
            local_names,
            levels: self.deepest,
            line: f.line,
        }
    }

    fn block(&mut self, b: &'a ast::Block) -> Block {
        self.scoped(|this| Block {
            stmts: b.stmts.iter().map(|s| this.stmt(s)).collect(),
        })
    }

    /// The body of an `if`, loop or `else`: a scope of its own (C99 6.8.4),
    /// so a declaration standing there without braces ends with it.
    fn body(&mut self, s: &'a ast::Stmt) -> Box<Stmt> {
        Box::new(self.scoped(|this| this.stmt(s)))
    }

    fn stmt(&mut self, s: &'a ast::Stmt) -> Stmt {
        let own = match s {
            ast::Stmt::Expr { expr: Some(_), .. } => 0,
            _ => 1,
        };
        self.nested(own, |this| this.stmt_here(s))
    }

    fn stmt_here(&mut self, s: &'a ast::Stmt) -> Stmt {
        match s {
            ast::Stmt::Decl(d) => Stmt::Decl(self.declaration(d)),
            ast::Stmt::Expr { expr, .. } => Stmt::Expr(expr.as_ref().map(|e| self.expr(e))),
            ast::Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => Stmt::If {
                cond: self.expr(cond),
                then_branch: self.body(then_branch),
                else_branch: else_branch.as_ref().map(|e| self.body(e)),
            },
            ast::Stmt::While { cond, body, .. } => Stmt::While {
                cond: self.expr(cond),
                body: self.body(body),
            },
            ast::Stmt::DoWhile { body, cond, .. } => Stmt::DoWhile {
                body: self.body(body),
                cond: self.expr(cond),
            },
            ast::Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => self.scoped(|this| Stmt::For {
                init: match init {
                    ast::ForInit::None => ForInit::None,
                    ast::ForInit::Decl(d) => ForInit::Decl(this.declaration(d)),
                    ast::ForInit::Expr(e) => ForInit::Expr(this.expr(e)),
                },
                cond: cond.as_ref().map(|e| this.expr(e)),
                step: step.as_ref().map(|e| this.expr(e)),
                body: this.body(body),
            }),
            ast::Stmt::Return { expr, .. } => Stmt::Return(expr.as_ref().map(|e| self.expr(e))),
            ast::Stmt::Break { .. } => Stmt::Break,
            ast::Stmt::Continue { .. } => Stmt::Continue,
            ast::Stmt::Block(b) => Stmt::Block(self.block(b)),
            ast::Stmt::Error { line, lines } => Stmt::Raise(Box::new(InterpError::Unsupported {
                detail: format!("unparsed region `{}`", lines.join(" ")),
                line: *line,
            })),
        }
    }

    fn declaration(&mut self, d: &'a ast::Declaration) -> Decl {
        self.nested(1, |this| this.declaration_here(d))
    }

    fn declaration_here(&mut self, d: &'a ast::Declaration) -> Decl {
        Decl {
            ctype: CType::from_words(&d.type_spec.words),
            line: d.line,
            declarators: d
                .declarators
                .iter()
                .map(|decl| {
                    // In `int n[n] = {n}` the dims still see the outer `n`,
                    // the initialiser already the new one.
                    let dims = decl
                        .arrays
                        .iter()
                        .map(|dim| dim.as_ref().map(|e| self.expr(e)))
                        .collect();
                    Declarator {
                        dims,
                        var: self.declare(&decl.name),
                        is_pointer: decl.pointer_depth > 0,
                        init: decl.init.as_ref().map(|i| self.init(i)),
                    }
                })
                .collect(),
        }
    }

    fn init(&mut self, init: &'a ast::Init) -> Init {
        self.nested(1, |this| match init {
            ast::Init::Expr(e) => Init::Expr(this.expr(e)),
            ast::Init::List(items) => Init::List(items.iter().map(|i| this.init(i)).collect()),
        })
    }

    fn boxed(&mut self, e: &'a ast::Expr) -> Box<Expr> {
        Box::new(self.expr(e))
    }

    fn expr(&mut self, e: &'a ast::Expr) -> Expr {
        let own = match e {
            ast::Expr::IntLit(_)
            | ast::Expr::FloatLit(_)
            | ast::Expr::CharLit(_)
            | ast::Expr::Ident(_)
            | ast::Expr::SizeofType { .. } => 0,
            _ => 1,
        };
        self.nested(own, |this| this.expr_here(e))
    }

    fn expr_here(&mut self, e: &'a ast::Expr) -> Expr {
        match e {
            ast::Expr::IntLit(v) => Expr::Const(Value::Int(*v)),
            ast::Expr::FloatLit(v) => Expr::Const(Value::Double(*v)),
            ast::Expr::CharLit(c) => Expr::Const(Value::Int(*c as i64)),
            ast::Expr::StrLit(_) => raise(InterpError::Unsupported {
                detail: "string value outside printf".into(),
                line: 0,
            }),
            ast::Expr::Ident(name) => match name.as_str() {
                "NULL" => Expr::Const(Value::Ptr(0)),
                "RAND_MAX" => Expr::Const(Value::Int(RAND_MAX)),
                "MPI_COMM_WORLD" | "MPI_SUCCESS" => Expr::Const(Value::Int(0)),
                "MPI_ANY_SOURCE" | "MPI_ANY_TAG" => Expr::Const(Value::Int(-1)),
                _ => Expr::Var(self.resolve(name)),
            },
            ast::Expr::Call { callee, args, line } => self.call(callee, args, *line),
            ast::Expr::Binary { op, lhs, rhs } => {
                let (lhs, rhs) = (self.boxed(lhs), self.boxed(rhs));
                match op {
                    BinOp::And => Expr::And(lhs, rhs),
                    BinOp::Or => Expr::Or(lhs, rhs),
                    _ => Expr::Binary { op: *op, lhs, rhs },
                }
            }
            ast::Expr::Unary { op, operand } => match op {
                UnOp::AddrOf => Expr::AddrOf(Box::new(self.lvalue(operand))),
                UnOp::Deref => Expr::Deref(self.boxed(operand)),
                UnOp::Neg => Expr::Neg(self.boxed(operand)),
                UnOp::Not => Expr::Not(self.boxed(operand)),
                UnOp::BitNot => Expr::BitNot(self.boxed(operand)),
                UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => Expr::IncDec {
                    target: Box::new(self.lvalue(operand)),
                    delta: if matches!(op, UnOp::PreInc | UnOp::PostInc) {
                        1
                    } else {
                        -1
                    },
                    post: op.is_postfix(),
                },
            },
            ast::Expr::Assign { op, lhs, rhs } => Expr::Assign {
                op: op.map(|a| a.to_binop()),
                target: Box::new(self.lvalue(lhs)),
                rhs: self.boxed(rhs),
            },
            ast::Expr::Index { .. } | ast::Expr::Member { .. } => {
                Expr::Load(Box::new(self.lvalue(e)))
            }
            ast::Expr::Cast {
                ty,
                pointer_depth,
                operand,
            } => {
                let target = CType::from_words(&ty.words);
                if *pointer_depth == 0 {
                    return Expr::Cast {
                        to_float: target.is_float(),
                        operand: self.boxed(operand),
                    };
                }
                // `(T *)malloc(n)` sizes the allocation by T.
                match operand.as_ref() {
                    ast::Expr::Call { callee, args, line }
                        if callee == "malloc" && !self.funcs.contains_key("malloc") =>
                    {
                        self.call_reading("malloc", Callee::Malloc(target), 1, args, *line)
                    }
                    other => self.expr(other),
                }
            }
            ast::Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => Expr::Ternary {
                cond: self.boxed(cond),
                then_expr: self.boxed(then_expr),
                else_expr: self.boxed(else_expr),
            },
            ast::Expr::SizeofType { ty, pointer_depth } => {
                let bytes = if *pointer_depth > 0 {
                    8
                } else {
                    CType::from_words(&ty.words).size_bytes()
                };
                Expr::Const(Value::Int(bytes as i64))
            }
            ast::Expr::Comma { lhs, rhs } => Expr::Comma(self.boxed(lhs), self.boxed(rhs)),
        }
    }

    fn lvalue(&mut self, e: &'a ast::Expr) -> Lvalue {
        let own = usize::from(!matches!(e, ast::Expr::Ident(_)));
        self.nested(own, |this| this.lvalue_here(e))
    }

    fn lvalue_here(&mut self, e: &'a ast::Expr) -> Lvalue {
        match e {
            ast::Expr::Ident(name) => Lvalue::Var(self.resolve(name)),
            ast::Expr::Index { base, index } => Lvalue::Index {
                base: Box::new(self.lvalue(base)),
                index: self.expr(index),
            },
            ast::Expr::Unary {
                op: UnOp::Deref,
                operand,
            } => Lvalue::Deref {
                ptr: self.expr(operand),
                pointee: match operand.as_ref() {
                    ast::Expr::Ident(name) => Some(self.resolve(name)),
                    _ => None,
                },
            },
            ast::Expr::Member { base, field, .. } => Lvalue::Member {
                base: Box::new(self.lvalue(base)),
                offset: match field.as_str() {
                    "MPI_SOURCE" => 0,
                    "MPI_TAG" => 1,
                    _ => 2,
                },
            },
            other => Lvalue::Raise(Box::new(InterpError::TypeError {
                detail: format!("not an lvalue: {other:?}"),
                line: 0,
            })),
        }
    }

    // -- calls -----------------------------------------------------------------

    fn call(&mut self, callee: &'a str, args: &'a [ast::Expr], line: u32) -> Expr {
        if let Some(&(index, params)) = self.funcs.get(callee) {
            if params != args.len() {
                return raise(InterpError::TypeError {
                    detail: format!("{callee} expects {params} args, got {}", args.len()),
                    line,
                });
            }
            return self.call_reading(callee, Callee::User(index), params, args, line);
        }
        if callee.starts_with("MPI_") {
            return match self.nested(6, |this| this.mpi(callee, args, line)) {
                Ok(op) => Expr::Mpi(Box::new(MpiCall { op, line })),
                Err(e) => raise(e),
            };
        }
        match callee {
            "printf" => self.nested(1, |this| this.printf(args, line)),
            // fprintf(stderr, fmt, …) — drop the stream argument.
            "fprintf" => match args.split_first() {
                Some((_stream, rest)) => self.nested(1, |this| this.printf(rest, line)),
                None => raise(too_few_arguments(callee, 1, 0, line)),
            },
            "malloc" => self.call_reading(callee, Callee::Malloc(CType::Long), 1, args, line),
            // Evaluates nothing, not even its argument.
            "free" => Expr::Const(Value::Int(0)),
            "srand" => self.call_reading(callee, Callee::Srand, 1, args, line),
            "rand" => self.call_reading(callee, Callee::Rand, 0, args, line),
            "abs" | "labs" => self.call_reading(callee, Callee::Abs, 1, args, line),
            "exit" => self.call_reading(callee, Callee::Exit, 1, args, line),
            _ => match MathFn::from_name(callee) {
                // Extra arguments are evaluated and ignored, up to two in all.
                Some(f) if args.len() <= 2 => {
                    let reads = args.len().max(f.arity());
                    self.call_reading(callee, Callee::Math(f), reads, args, line)
                }
                _ => raise(InterpError::Undefined {
                    name: callee.to_string(),
                    line,
                }),
            },
        }
    }

    /// A call that evaluates its first `reads` arguments (a builtin ignores
    /// the rest unevaluated); with fewer it raises a `TypeError` when run.
    fn call_reading(
        &mut self,
        name: &str,
        callee: Callee,
        reads: usize,
        args: &'a [ast::Expr],
        line: u32,
    ) -> Expr {
        if args.len() < reads {
            return raise(too_few_arguments(name, reads, args.len(), line));
        }
        let args = self.nested(2, |this| {
            args[..reads].iter().map(|a| this.expr(a)).collect()
        });
        Expr::Call(Box::new(Call { callee, args, line }))
    }

    fn printf(&mut self, args: &'a [ast::Expr], line: u32) -> Expr {
        let Some((ast::Expr::StrLit(fmt), rest)) = args.split_first() else {
            return raise(InterpError::Unsupported {
                detail: "printf needs a literal format string".into(),
                line,
            });
        };
        Expr::Printf(Box::new(Printf {
            fmt: fmt.as_str().into(),
            args: rest
                .iter()
                .map(|a| match a {
                    ast::Expr::StrLit(s) => PrintfOperand::Str(s.as_str().into()),
                    other => PrintfOperand::Value(self.expr(other)),
                })
                .collect(),
            line,
        }))
    }

    /// `MPI_Status *` argument: `None` if absent or `MPI_STATUS_IGNORE`.
    fn status(&mut self, arg: Option<&'a ast::Expr>) -> Option<Expr> {
        match arg? {
            ast::Expr::Ident(name)
                if name == "MPI_STATUS_IGNORE" || name == "MPI_STATUSES_IGNORE" =>
            {
                None
            }
            other => Some(self.expr(other)),
        }
    }

    /// `buf, count, datatype, peer, tag` at `args[0..5]`.
    fn envelope(&mut self, args: &'a [ast::Expr], line: u32) -> Envelope {
        Envelope {
            buf: self.expr(&args[0]),
            count: self.expr(&args[1]),
            dtype: dtype_of(&args[2], line),
            peer: self.expr(&args[3]),
            tag: self.expr(&args[4]),
        }
    }

    fn mpi(&mut self, name: &'a str, args: &'a [ast::Expr], line: u32) -> Result<Mpi, InterpError> {
        let needs = |name: &str, indices: &[usize], args: &[ast::Expr]| {
            missing_argument(name, indices, args.len(), line).map_or(Ok(()), Err)
        };
        Ok(match name {
            "MPI_Init"
            | "MPI_Finalize"
            | "MPI_Get_processor_name"
            | "MPI_Initialized"
            | "MPI_Finalized" => Mpi::Nop,
            "MPI_Comm_rank" => {
                needs(name, &[1], args)?;
                Mpi::CommRank(self.expr(&args[1]))
            }
            "MPI_Comm_size" => {
                needs(name, &[1], args)?;
                Mpi::CommSize(self.expr(&args[1]))
            }
            "MPI_Wtime" => Mpi::Wtime,
            "MPI_Barrier" => Mpi::Barrier,
            "MPI_Abort" => {
                needs(name, &[1], args)?;
                Mpi::Abort(self.expr(&args[1]))
            }
            "MPI_Send" | "MPI_Ssend" | "MPI_Rsend" | "MPI_Bsend" => {
                needs(name, &[0, 1, 2, 3, 4], args)?;
                Mpi::Send(self.envelope(args, line))
            }
            "MPI_Isend" => {
                // A buffered send that also marks its request complete.
                needs("MPI_Send", &[0, 1, 2, 3, 4], args)?;
                Mpi::Isend {
                    send: self.envelope(args, line),
                    request: args.get(6).map(|r| self.expr(r)),
                }
            }
            "MPI_Recv" => {
                needs(name, &[0, 1, 2, 3, 4], args)?;
                Mpi::Recv {
                    recv: self.envelope(args, line),
                    status: self.status(args.get(6)),
                }
            }
            "MPI_Irecv" => {
                needs(name, &[0, 1, 2, 3, 4], args)?;
                Mpi::Irecv {
                    recv: self.envelope(args, line),
                    request: args.get(6).map(|r| self.expr(r)),
                }
            }
            "MPI_Wait" => Mpi::Wait {
                status: self.status(args.get(1)),
            },
            "MPI_Sendrecv" => {
                // A send of args 0..5, then an `MPI_Recv` of args 5...
                needs(name, &[0, 1, 2, 3, 4], args)?;
                let recv = &args[5..];
                needs("MPI_Recv", &[0, 1, 2, 3, 4], recv)?;
                Mpi::Sendrecv {
                    send: self.envelope(args, line),
                    recv: self.envelope(recv, line),
                    status: self.status(recv.get(6)),
                }
            }
            "MPI_Bcast" => {
                needs(name, &[0, 1, 2, 3], args)?;
                Mpi::Bcast {
                    buf: self.expr(&args[0]),
                    count: self.expr(&args[1]),
                    dtype: dtype_of(&args[2], line),
                    root: self.expr(&args[3]),
                }
            }
            "MPI_Reduce" | "MPI_Allreduce" => {
                let all = name == "MPI_Allreduce";
                needs(name, &[0, 1, 2, 3, 4], args)?;
                if !all {
                    needs(name, &[5], args)?;
                }
                Mpi::Reduce {
                    send: self.expr(&args[0]),
                    recv: self.expr(&args[1]),
                    count: self.expr(&args[2]),
                    dtype: dtype_of(&args[3], line),
                    op: op_of(&args[4], line),
                    root: (!all).then(|| self.expr(&args[5])),
                }
            }
            "MPI_Gather" | "MPI_Allgather" => {
                let all = name == "MPI_Allgather";
                needs(name, &[0, 1, 2, 3], args)?;
                if !all {
                    needs(name, &[6], args)?;
                }
                Mpi::Gather {
                    send: self.expr(&args[0]),
                    count: self.expr(&args[1]),
                    dtype: dtype_of(&args[2], line),
                    recv: self.expr(&args[3]),
                    root: (!all).then(|| self.expr(&args[6])),
                }
            }
            "MPI_Scatter" => {
                needs(name, &[0, 1, 2, 3, 4, 6], args)?;
                Mpi::Scatter {
                    send: self.expr(&args[0]),
                    count: self.expr(&args[1]),
                    dtype: dtype_of(&args[2], line),
                    recv: self.expr(&args[3]),
                    recv_count: self.expr(&args[4]),
                    root: self.expr(&args[6]),
                }
            }
            other => {
                return Err(InterpError::Unsupported {
                    detail: format!("MPI function {other}"),
                    line,
                })
            }
        })
    }
}
